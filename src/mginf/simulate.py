"""Regenerative Monte Carlo of M|G|inf busy cycles.

With infinitely many servers the system first empties exactly at the maximum
departure epoch among the customers of the current busy period, so no event
calendar is needed: track that maximum and stop when the next arrival lands
beyond it.  All cycles of a run advance in lock-step on one Philox stream per
seed, so runs are reproducible.  Service draws go through a law's vectorised
inverse CDF (`ServiceLaw.quantile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
# numpy loads its random module on first attribute access; import it with the
# package so that the first run_cycles call does not pay for it.
from numpy.random import Generator, Philox

from .errors import EmptySample
from .params import QueueParams


@dataclass(frozen=True)
class CycleSamples:
    busy: np.ndarray
    idle: np.ndarray
    cycle: np.ndarray
    seed: int
    n: int


def run_cycles(
    params: QueueParams,
    quantile: Callable[[np.ndarray], np.ndarray],
    n_cycles: int,
    seed: int,
) -> CycleSamples:
    """Simulate n_cycles independent busy cycles in lock-step.

    Service times are drawn by inverse transform through `quantile`, the
    service law's inverse CDF (`ServiceLaw.quantile`), vectorised over u and
    exactly 0 inside the atom G(0).  A cycle starts with an arrival to an empty
    system; interarrival gaps are Exponential(lambda).  The busy period ends
    at the running maximum E of the departure epochs once the next arrival
    reaches it; the idle period is a fresh Exponential(lambda) draw
    (memorylessness).  Draw order on the one stream `Philox(key=seed)`: the n
    opening services; then, per round, one gap for each open cycle in cycle
    order and one service for each cycle still open after its gap; finally
    the n idle periods.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    scale = 1.0 / params.lam
    rng = Generator(Philox(key=seed))
    busy = np.empty(n_cycles)
    e = quantile(rng.random(n_cycles))  # departure epoch of each opening customer
    a = np.zeros(n_cycles)              # last arrival epoch of each open cycle
    open_ = np.arange(n_cycles)
    while open_.size:
        a += rng.exponential(scale, open_.size)
        closed = a >= e
        busy[open_[closed]] = e[closed]
        open_, a, e = open_[~closed], a[~closed], e[~closed]
        e = np.maximum(e, a + quantile(rng.random(open_.size)))
    idle = rng.exponential(scale, n_cycles)
    return CycleSamples(busy=busy, idle=idle, cycle=busy + idle, seed=seed, n=n_cycles)


class EmpiricalCdf:
    """Right-continuous step CDF of a sample."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise EmptySample("empty sample")
        self.sorted = np.sort(samples)
        self.n = samples.size

    def __call__(self, t) -> float | np.ndarray:
        tt = np.asarray(t, dtype=float)
        out = np.searchsorted(self.sorted, tt, side="right") / self.n
        return float(out) if tt.ndim == 0 else out

    def left_limit(self, t) -> float | np.ndarray:
        tt = np.asarray(t, dtype=float)
        out = np.searchsorted(self.sorted, tt, side="left") / self.n
        return float(out) if tt.ndim == 0 else out


def empirical_cdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf(samples)


def ks_distance(emp: EmpiricalCdf, analytic: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_x max(|Fhat(x) - F(x)|, |Fhat(x-) - F(x)|) over the sample points.

    Valid for reference CDFs with an atom at 0: sample points at 0 compare the
    empirical mass there against F(0) directly.
    """
    s, n = emp.sorted, emp.n
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))  # first of each run
    xs = s[starts]  # distinct points, already sorted
    f = np.asarray(analytic(xs), dtype=float)
    before = starts / n  # Fhat(x-): the sample points below x
    after = np.append(starts[1:], n) / n  # Fhat(x): up to the next distinct point
    if isinstance(analytic, EmpiricalCdf):
        # step reference: compare matching one-sided limits
        f_before = analytic.left_limit(xs)
        gap = np.maximum(np.abs(after - f), np.abs(before - f_before))
    else:
        gap = np.maximum(np.abs(after - f), np.abs(before - f))
        # the reference jumps at its atom at 0, so only the direct comparison applies there
        gap[xs == 0.0] = np.abs(after - f)[xs == 0.0]
    return float(np.max(gap))


class CycleSummary(NamedTuple):
    mean_busy: float
    mean_idle: float
    mean_cycle: float
    stderr_busy: float
    stderr_idle: float
    stderr_cycle: float


def cycle_summary(samples: CycleSamples) -> CycleSummary:
    if samples.n < 2:
        raise EmptySample("need at least 2 cycles for standard errors")
    root_n = np.sqrt(samples.n)
    return CycleSummary(
        mean_busy=float(samples.busy.mean()),
        mean_idle=float(samples.idle.mean()),
        mean_cycle=float(samples.cycle.mean()),
        stderr_busy=float(samples.busy.std(ddof=1) / root_n),
        stderr_idle=float(samples.idle.std(ddof=1) / root_n),
        stderr_cycle=float(samples.cycle.std(ddof=1) / root_n),
    )
