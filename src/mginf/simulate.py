"""Regenerative Monte Carlo of M|G|inf busy cycles.

With infinitely many servers the system first empties exactly at the maximum
departure epoch among the customers of the current busy period, so no event
calendar is needed: on one stream of customers, customer i opens a new busy
cycle iff its arrival T_i is at or past the running maximum of the earlier
departures (the regenerative method; Asmussen & Glynn, Stochastic
Simulation, 2007, IV.4).  `run_cycles` reads every cycle of a chunk of
customers off one cumulative sum and one running maximum, on one SFC64
stream per seed, so runs are reproducible.  Service draws go through a law's
vectorised inverse CDF (`ServiceLaw.quantile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
# numpy loads its random module on first attribute access; import it with the
# package so that the first run_cycles call does not pay for it.
from numpy.random import SFC64, Generator

from .errors import EmptySample, NonPositiveParameter, SimulationTooLarge
from .params import QueueParams


# Largest expected work of a run, in customers: about 20 s at the 37-45 ns per
# customer measured on 2-core x86-64 at rho 3-5 (SFC64 exponential and uniform
# 10 ns, the closed-form quantile 10 ns, cumsum, add and running max 10 ns,
# the cycle scan 2 ns, the rest per-chunk call overhead).  A run draws about
# e^rho customers a cycle, rounded up to whole chunks of CHUNK.
MAX_CUSTOMERS = 5e8
# Customers per chunk: longer chunks spread the fixed numpy cost of each chunk
# (some 25 numpy calls), shorter ones draw less past the last cycle (1000
# cycles at rho 1 need about 2700 customers).
CHUNK = 8192
# Points per block of ks_distance and busy_idle_correlation.  A block's arrays
# (reference values, steps i/n and gaps, 128 kB each) are reused from the heap
# and stay in L2 cache.  Arrays over a whole sample of 1e5 points are fresh
# memory, whose first touch costs a page fault per 4 kB (about 2.5 us each on a
# 2-vCPU VM).
KS_BLOCK = 16384


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
    """Simulate the first n_cycles busy cycles of one stream of customers.

    Customers arrive at T_i, the cumulative sum of Exponential(lambda) gaps,
    and leave at D_i = T_i + S_i, with S_i drawn by inverse transform through
    `quantile`, the service law's inverse CDF (`ServiceLaw.quantile`),
    vectorised over u and exactly 0 inside the atom G(0).  Customer i opens a
    busy cycle iff T_i >= M_{i-1} = max_{j<i} D_j; a cycle opened by customer
    s and closed by the next opener s' has busy period M_{s'-1} - T_s and idle
    period T_{s'} - M_{s'-1}, Exponential(lambda) by memorylessness.  The time
    before the first arrival is not a cycle.

    Draw order on the one stream `Generator(SFC64(seed))`, per chunk of CHUNK
    customers: CHUNK standard exponentials, scaled by 1/lambda into the gaps,
    then CHUNK uniforms.  Each chunk's clock starts at the previous chunk's
    last arrival, and only the latest departure and the open cycle's start are
    carried, re-based to it, so a sample's rounding error stays a few ulps of
    CHUNK/lambda per customer of its cycle however long the run.
    """
    if n_cycles < 1:
        raise NonPositiveParameter(f"n_cycles must be >= 1, got {n_cycles}")
    work = n_cycles * math.exp(params.rho) + CHUNK  # a cycle has e^rho customers
    if work > MAX_CUSTOMERS:
        raise SimulationTooLarge(f"{n_cycles} cycles at rho = {params.rho:g} would draw about "
                                 f"{work:.3g} customers, more than {MAX_CUSTOMERS:.3g}")
    scale = 1.0 / params.lam
    rng = Generator(SFC64(seed))
    busy = np.empty(n_cycles)
    idle = np.empty(n_cycles)
    draws, t = np.empty(CHUNK), np.empty(CHUNK)  # reused by every chunk
    m = np.empty(CHUNK + 1)  # M_{i-1} for each customer of the chunk, then M at its end
    m[-1] = 0.0              # the system is empty at time 0
    opened = math.nan        # start of the open cycle: none before the first arrival
    done = -1                # cycles closed; the first opener closes the time before it
    while done < n_cycles:
        rng.standard_exponential(out=draws)
        draws *= scale
        np.cumsum(draws, out=t)
        m[0] = m[-1]
        np.add(t, quantile(rng.random(out=draws)), out=m[1:])
        np.fmax.accumulate(m, out=m)  # the running maximum: m holds no NaN, and fmax is faster
        starts = np.flatnonzero(t >= m[:-1])
        if starts.size:
            ends, new = m[starts], t[starts]
            lo, hi = max(done, 0), min(done + starts.size, n_cycles)
            k = hi - done  # starts[lo - done:k] close cycles lo..hi-1
            np.subtract(new[lo - done:k], ends[lo - done:k], out=idle[lo:hi])
            np.subtract(ends[1:k], new[:k - 1], out=busy[hi - k + 1:hi])
            if done >= 0:  # the first start closes the cycle left open by the last chunk
                busy[lo] = ends[0] - opened
            done += starts.size
            opened = new[-1]
        opened -= t[-1]
        m[-1] -= t[-1]
    return CycleSamples(busy=busy, idle=idle, cycle=busy + idle, seed=seed, n=n_cycles)


def ks_distance(samples, analytic: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_x max(|Fhat(x) - F(x)|, |Fhat(x-) - F(x)|) over the sample points, Fhat their step CDF.

    Valid for reference CDFs with an atom at 0: the run of sample points at 0
    compares the empirical mass there, Fhat(0), against F(0) once, at its last
    point, which leads the points above 0.  Against a continuous reference the
    sorted point i (1-based) bounds both limits of its run of ties, so
    max(|i/n - F|, F - (i-1)/n) over all points is the run-start statistic.
    As F - i/n <= F - (i-1)/n, that is the larger of max(i/n - F) and
    max(F - (i-1)/n).  Both reductions, and F itself, run over blocks of
    KS_BLOCK sorted points; the maxima are those of the whole arrays bit for
    bit.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise EmptySample("empty sample")
    lo, hi = np.searchsorted(s, 0.0, "left"), np.searchsorted(s, 0.0, "right")
    lead = hi - 1 if hi > lo else hi  # the last point at 0 leads the points above it
    tops = []
    for start, stop in ((0, lo), (lead, n)):
        for a in range(start, stop, KS_BLOCK):
            b = min(a + KS_BLOCK, stop)
            f = np.asarray(analytic(s[a:b]), dtype=float)
            steps = np.arange(a, b + 1, dtype=float)
            steps /= n  # Fhat just below and at each sorted point
            gap = np.subtract(steps[1:], f)
            tops.append(gap.max())
            np.subtract(f, steps[:-1], out=gap)
            if a == lead < hi:  # the reference jumps at 0: only Fhat(0) = hi/n against F(0)
                gap[0] = f[0] - steps[1]
            tops.append(gap.max())
    return float(np.max(tops))


def cycle_ks(samples: CycleSamples, law) -> tuple[float, float, float]:
    """KS distances of the busy, cycle and idle samples from law.busy_cdf, cycle_cdf, idle_cdf."""
    return (ks_distance(samples.busy, law.busy_cdf), ks_distance(samples.cycle, law.cycle_cdf),
            ks_distance(samples.idle, law.idle_cdf))


def busy_idle_correlation(samples: CycleSamples) -> float:
    """Sample correlation of the busy and idle periods; 0 when either is constant.

    Either is constant for one cycle, and busy is identically 0 at the
    degenerate endpoint.  The centred sums of squares and products run over
    blocks of KS_BLOCK cycles.  np.corrcoef would first copy both samples into
    one 2 x n array, fresh memory whose page faults cost more than the sums,
    and call BLAS, whose threads can take milliseconds to wake on a busy box.
    """
    busy, idle = samples.busy, samples.idle
    mean_busy, mean_idle = busy.mean(), idle.mean()
    sbb = sbi = sii = 0.0
    for a in range(0, samples.n, KS_BLOCK):
        db, di = busy[a:a + KS_BLOCK] - mean_busy, idle[a:a + KS_BLOCK] - mean_idle
        sbb += np.einsum("i,i", db, db)
        sbi += np.einsum("i,i", db, di)
        sii += np.einsum("i,i", di, di)
    if sbb > 0.0 and sii > 0.0:
        return float(np.clip(sbi / math.sqrt(sbb) / math.sqrt(sii), -1.0, 1.0))
    return 0.0


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
