"""Regenerative Monte Carlo of M|G|inf busy cycles.

With infinitely many servers the system first empties exactly at the maximum
departure epoch among the customers of the current busy period, so no event
calendar is needed: track that maximum and stop when the next arrival lands
beyond it.  All cycles of a run advance in lock-step on one Philox stream per
seed, so runs are reproducible.  Service draws go through a law's vectorised
inverse CDF (`ServiceLaw.quantile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
# numpy loads its random module on first attribute access; import it with the
# package so that the first run_cycles call does not pay for it.
from numpy.random import Generator, Philox

from .errors import EmptySample, SimulationTooLarge
from .params import QueueParams


# Largest expected work of a run, in customers: about 100 s at the 80-220 ns
# per customer measured on 2-core x86-64 with 2e3-1e5 cycles at rho 1-8.  A
# round of the lock-step loop costs 16-40 us however few cycles are open, as
# much as ROUND_CUSTOMERS customers, and a cycle takes about e^rho rounds.
MAX_CUSTOMERS = 5e8
ROUND_CUSTOMERS = 256


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
    work = (n_cycles + ROUND_CUSTOMERS) * math.exp(params.rho)  # a cycle has e^rho customers
    if work > MAX_CUSTOMERS:
        raise SimulationTooLarge(f"{n_cycles} cycles at rho = {params.rho:g} would draw about "
                                 f"{work:.3g} customers' worth, more than {MAX_CUSTOMERS:.3g}")
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
    empirical mass there against F(0) directly.  Against a continuous reference
    the sorted point i (1-based) bounds both limits of its run of ties, so
    max(|i/n - F|, F - (i-1)/n) over all points is the run-start statistic.
    """
    s, n = emp.sorted, emp.n
    if isinstance(analytic, EmpiricalCdf):
        # step reference: compare matching one-sided limits at each distinct point
        starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))  # first of each run
        xs = s[starts]
        after = np.append(starts[1:], n) / n  # Fhat(x): up to the next distinct point
        return float(np.max(np.maximum(np.abs(after - analytic(xs)),
                                       np.abs(starts / n - analytic.left_limit(xs)))))
    f = np.asarray(analytic(s), dtype=float)
    steps = np.arange(n + 1) / n  # Fhat just below and at each sorted point
    gap = np.maximum(np.abs(steps[1:] - f), f - steps[:-1])
    lo, hi = np.searchsorted(s, 0.0, "left"), np.searchsorted(s, 0.0, "right")
    # the reference jumps at its atom at 0, so only Fhat(0) against F(0) applies there
    gap[lo:hi] = np.abs(steps[hi] - f[lo:hi])
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
