"""Regenerative Monte Carlo of M|G|inf busy cycles.

With infinitely many servers the system first empties exactly at the maximum
departure epoch among the customers of the current busy period, so no event
calendar is needed: track that maximum and stop when the next arrival lands
beyond it.  Each cycle gets its own counter-based substream, so runs are
reproducible and order-independent.  Service draws go through a law's
inverse CDF (`ServiceLaw.quantile`); the tabulated-beta inverse is
`kernel_service_sampler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptySample
from .kernel import KernelContext
from .params import QueueParams


def kernel_service_sampler(ctx: KernelContext) -> Callable[[float], float]:
    """Inverse-transform sampler for tabulated beta.

    A monotone CDF table seeds a tight bracket; each draw is refined by
    bisection on the true CDF to 1e-10 in probability.
    """
    from .kernel import riccati_service_atom, riccati_service_cdf

    atom = riccati_service_atom(ctx)
    hi = ctx.horizon
    while riccati_service_cdf(ctx, hi) < 1.0 - 1e-13:
        hi *= 2.0
    ts = np.linspace(0.0, hi, 4096)
    us = np.asarray(riccati_service_cdf(ctx, ts))

    def sampler(u: float) -> float:
        if u <= atom:
            return 0.0
        i = int(np.searchsorted(us, u))
        lo_t, hi_t = ts[max(i - 1, 0)], ts[min(i, len(ts) - 1)]
        for _ in range(60):
            mid = 0.5 * (lo_t + hi_t)
            v = riccati_service_cdf(ctx, mid)
            if abs(v - u) < 1e-10:
                return mid
            if v < u:
                lo_t = mid
            else:
                hi_t = mid
        return 0.5 * (lo_t + hi_t)

    return sampler


@dataclass(frozen=True)
class CycleSamples:
    busy: np.ndarray
    idle: np.ndarray
    cycle: np.ndarray
    seed: int
    n: int


def run_cycles(
    params: QueueParams,
    quantile: Callable[[float], float],
    n_cycles: int,
    seed: int,
) -> CycleSamples:
    """Simulate n_cycles independent busy cycles.

    Service times are drawn by inverse transform through `quantile`, the
    service law's inverse CDF (`ServiceLaw.quantile`), which returns exactly 0
    inside the atom G(0).  A cycle starts with an arrival to an empty system;
    interarrival gaps are Exponential(lambda).  The busy period ends at the
    running maximum E of the departure epochs once the next arrival exceeds
    it; the idle period is a fresh Exponential(lambda) draw (memorylessness).
    Records busy then idle and sums them into the cycle length.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    lam = params.lam
    base = np.random.Philox(key=seed)
    busy = np.empty(n_cycles)
    idle = np.empty(n_cycles)
    for i in range(n_cycles):
        rng = np.random.Generator(base.jumped(i))
        e = quantile(rng.random())  # departure epoch of the opening customer
        a = 0.0
        while True:
            a += rng.exponential(1.0 / lam)
            if a >= e:
                break
            depart = a + quantile(rng.random())
            if depart > e:
                e = depart
        busy[i] = e
        idle[i] = rng.exponential(1.0 / lam)
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
    xs = np.unique(emp.sorted)
    f = np.asarray(analytic(xs), dtype=float)
    after = emp(xs)
    before = emp.left_limit(xs)
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
