"""Laplace transforms and the grid solution of the busy-period renewal equation.

The busy-period transform has two equivalent routes from a law: a
nested-quadrature evaluation straight from its service CDF, and the
kernel-based rational form in L phi(s), which `ServiceLaw.kernel_moments`
sums over the same Simpson nodes as the tail root (gamma, C).  The nested
quadrature takes every s at once: one pass of G and of its inner integral
serves them all, and each s's outer integral is a Romberg sum over the
shared nodes.
In the time domain 1 - B = u/lambda, where u solves the renewal equation
u = a + a * u with the defective density a = (1 - e^{-rho}) phi.  Its
trapezoidal discretisation on a uniform grid of the law's step is a
lower-triangular Toeplitz system.  Past the last beta knot the kernel is exactly
exponential, so the system's coefficients are geometric from lag J on (J the
grid points before the knot): a_d = a_J q^(d-J).  The system is solved
exactly in blocks of M >= 4J points (block by block with the history carried
forward, as for Volterra convolution equations in general: Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  Each block uses one
power-series reciprocal of a[:M]; the J points before it enter by a middle
product, and all older points by one scalar carried from block to block.
The walk stops at the first block end where the grid meets its own
exponential tail: by the key renewal theorem for defective equations
1 - B(t) ~ C e^{-gamma t} (Feller II, XI.6; Asmussen, Applied Probability and
Queues, 2003, V.7), with (gamma, C) from `ServiceLaw.busy_tail`, and past
that block B and Z are closed form in them.  For constant beta the tail is
exact from t = 0, so the walk is one block at every rho.
The reciprocal takes Newton steps whose two products share one cyclic FFT of
about the new length (middle product).  Every FFT length is the smallest
5-smooth number 2^a 3^b 5^c that holds the product.  The busy-cycle CDF is B
convolved with the exponential idle-period density; that convolution is a
first-order recurrence, evaluated in O(n) with no FFT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import GridTooLarge, NegativeS, QuadratureFailure
from .params import BetaSpec, QueueParams

if TYPE_CHECKING:  # law imports this module
    from .law import ServiceLaw


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at t = 0, h, 2h, ..., n*h."""

    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step


class LaplacePoint(NamedTuple):
    s: float
    value: float


# Largest time grid built (eval rows, the kernel grid, the busy-period walk).
# A walk peaks at about 26 bytes a point (tracemalloc, 354k points at rho = 5),
# 0.44 GB at this size; its default grids are one block of 4096 points.
MAX_GRID_POINTS = 2**24

# Points per block of the busy-period solve (at least 4 J, J the points before
# the last knot).
SERIES_BLOCK = 4096

# The walk stops at the first block end t_k with |1 - B_k - C e^{-gamma t_k}|
# below this: a tenth of verify's 1e-3 gate on the series curves, so the step
# from grid to tail stays ten times inside it.  The mismatch holds the grid's
# own O(h^2) error (1.25e-5 at rho = 3, h = 0.005), which a tolerance near
# rounding would never accept.
TAIL_TOL = 1e-4


def grid_points(t_max: float, step: float) -> int:
    """round(t_max/step) + 1, the points of the grid 0, step, ..., t_max.

    Raises GridTooLarge beyond MAX_GRID_POINTS (an even number, so the
    comparison below matches round-half-even exactly).
    """
    steps = t_max / step
    if not steps < MAX_GRID_POINTS - 0.5:
        raise GridTooLarge(f"grid of {steps + 1:.3g} points (t_max {t_max:g}, step {step:g}) "
                           f"exceeds {MAX_GRID_POINTS}")
    return int(round(steps)) + 1


def default_step(params: QueueParams, spec: BetaSpec) -> float:
    """h small vs the kernel's rate lambda + max|beta|, the only rate the solve sees.

    The beta term keeps h * (lambda + max|beta|) within the grid solve's 0.01 limit.
    """
    return min(0.005 / params.lam, 0.01 / (params.lam + spec.max_abs))


def series_block(t_knot: float, step: float) -> tuple[int, int]:
    """(J, M) of the busy-period walk at `step`.

    J = max(1, grid points with t < t_knot) and M = max(SERIES_BLOCK, 4J) the
    block length, so every block ends past t_knot.  Raises GridTooLarge when
    the first block would pass MAX_GRID_POINTS, so a law can reject its step
    before any output.
    """
    knot = t_knot / step
    if 4.0 * knot > MAX_GRID_POINTS:
        raise GridTooLarge(f"busy-period blocks of {4.0 * knot:.3g} points (step {step:g}, "
                           f"last knot {t_knot:g}) exceed {MAX_GRID_POINTS}")
    lead = math.ceil(knot)  # the first k with k h >= t_knot
    while lead > 0 and (lead - 1) * step >= t_knot:
        lead -= 1
    while lead * step < t_knot:
        lead += 1
    lead = max(1, lead)
    return lead, max(SERIES_BLOCK, 4 * lead)


def _fft_size(n: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= n, a length pocketfft transforms natively."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """The power series 1/a to len(a) terms, by Newton steps g <- g (2 - a g).

    A step from k correct terms to m = min(2k, n) uses one cyclic length
    N = _fft_size(m) >= m and the transform of g for both of its products
    (the middle product).  The cyclic a[:m] g of length N wraps only onto
    terms below m + k - 1 - N < k, so its terms k..m-1, the defect, are exact;
    the correction g times the defect has m - 1 < N terms and does not wrap.
    That is five FFTs of length about m per step.
    """
    n = len(a)
    g = np.array([1.0 / a[0]])
    while (k := len(g)) < n:
        m = min(2 * k, n)
        size = _fft_size(m)
        g_hat = np.fft.rfft(g, size)
        defect = -np.fft.irfft(np.fft.rfft(a[:m], size) * g_hat, size)[k:m]
        g = np.concatenate([g, np.fft.irfft(np.fft.rfft(defect, size) * g_hat, size)[:m - k]])
    return g


def _density(law: ServiceLaw, h: float, start: int, stop: int) -> np.ndarray:
    """The defective density a = (1 - e^{-rho}) phi at the grid points start..stop-1."""
    a = law.kernel(np.arange(start, stop) * h)
    a *= (1.0 - law.params.exp_neg_rho) * law.inv_total
    return a


def busy_period_cdf_series(law: ServiceLaw) -> GridFunction:
    """B(t) on 0, h, ..., T at the law's step h: 1 - u/lambda, u solving the trapezoidal system.

    u = a + K u, with a = (1 - e^{-rho}) phi = (1 - e^{-rho}) f/I and K x the
    trapezoid rule for the convolution x * a with half-weight endpoints,
    K x = h (c * x) - h x_0 a/2, where c = a except c_0 = a_0/2.  Row 0 gives
    u_0 = a_0, so T * u = rhs with T = delta - h c and rhs = a (1 - h a_0/2):
    the sum of the Neumann series sum_k K^k a with no term dropped.  u >= 0 when a >= 0, so B <= 1 up to rounding.

    Past the last knot f is exponential, so T_d = T_J q^(d-J) exactly for
    every d >= J, with q = e^{-r h}, r the kernel's tail rate and (J, M) from
    `series_block`.  The grid is solved in blocks [s, s+M), the first with
    one power-series reciprocal of T[:M] and one product; for k in a later
    block,

        sum_{j=s}^{k} T_{k-j} u_j = rhs_k - sum_{j=s-J}^{s-1} T_{k-j} u_j
                                    - T_J q^(k-s+1) S_s,

    an M x M system solved with the same reciprocal, where the scalar
    S_s = sum_{j <= s-J-1} q^(s-J-1-j) u_j holds every older point and moves
    on once a block: S_{s+M} = q^M S_s + sum_{j=s-J}^{s+M-J-1} q^(s+M-J-1-j) u_j.
    The walk ends at the first block end t_k with |u_k/lambda - C e^{-gamma t_k}|
    below TAIL_TOL, (gamma, C) = law.busy_tail; a walk that would pass
    MAX_GRID_POINTS raises GridTooLarge.
    """
    h = law.step
    lead, m = series_block(law.t_knot, h)
    lam = law.params.lam
    gamma, c = law.busy_tail
    a = _density(law, h, 0, m + lead)
    half = 0.5 * h * a[0]
    y = a[:m] * (1.0 - half)  # the right-hand side of the first block
    a *= -h  # T = delta - h c, in place
    a[0] = 1.0 - half
    size = _fft_size(2 * m - 1)
    g_hat = np.fft.rfft(_reciprocal(a[:m]), size)
    near_size = _fft_size(m + lead - 1)
    near_hat = np.fft.rfft(a[1:m + lead], near_size)
    steps = math.exp(-law.tail_rate * h) ** np.arange(m + 1)  # q^0 .. q^m
    blocks = []
    carry = 0.0  # S for the block starting at s
    s = 0
    while True:
        e = s + m
        if s:
            if e > MAX_GRID_POINTS:
                raise GridTooLarge(f"busy-period grid did not meet its exponential tail "
                                   f"within {MAX_GRID_POINTS} points (step {h:g})")
            y = _density(law, h, s, e)
            y *= 1.0 - half
            prev = blocks[-1][-lead:]  # u_{s-J} .. u_{s-1}; M >= J
            y -= np.fft.irfft(np.fft.rfft(prev, near_size) * near_hat,
                              near_size)[lead - 1:lead - 1 + m]
            y -= a[lead] * carry * steps[1:]
        x = np.fft.irfft(np.fft.rfft(y, size) * g_hat, size)[:m]
        blocks.append(x)
        if abs(x[-1] / lam - c * math.exp(-gamma * (e - 1) * h)) < TAIL_TOL:
            break
        # S moves on by M: its window gains u_j for j in [s - J, e - J)
        window = np.concatenate([prev, x[:m - lead]]) if s else x[:m - lead]
        carry = steps[m] * carry + (window * steps[window.size - 1::-1]).sum()
        s = e
    u = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    u *= -1.0 / lam
    u += 1.0
    return GridFunction(step=h, values=u)


def busy_cycle_cdf_series(params: QueueParams, b: GridFunction) -> GridFunction:
    """Z(t) = (idle-period exponential density) * B(t) on the grid of B.

    This is the trapezoid rule for the convolution with half-weight endpoints,
    Z = x (S - B/2 - B_0 e^{-lambda t}/2) with x = lambda h, q = e^{-x} and
    S_k = sum_{j<=k} q^{k-j} B_j, evaluated in O(n) with no FFT.  Summing by
    parts over the increments D_j = B_j - B_{j-1} (D_0 = B_0) gives
    S = (B - q T)/(1 - q), where T_k = sum_{j<=k} q^{k-j} D_j
    obeys T_k = q T_{k-1} + D_k.  T is of the size of B'/lambda, where S is of
    the size of B/x, so T carries far less rounding (4e-16 against 1.5e-14 at
    rho = 3).  T is a cumulative sum of e^{x j} D_j inside blocks of
    floor(200/x) points, so no factor exceeds e^200, scaled back by e^{-x j}
    and carried across blocks.
    """
    x = params.lam * b.step
    q = math.exp(-x)
    bv = b.values
    d = np.diff(bv, prepend=0.0)
    n = len(bv)
    width = max(int(200.0 / x), 1)
    grow = np.exp(x * np.arange(min(width, n)))
    t = np.empty(n)
    carry = 0.0  # T just before the block
    for start in range(0, n, width):
        block = d[start:start + width]
        e = grow[:len(block)]
        t[start:start + len(block)] = (np.cumsum(block * e) + q * carry) / e
        carry = t[start + len(block) - 1]
    idle = np.exp(-params.lam * b.times)
    z = x / -math.expm1(-x) * (bv - q * t) - 0.5 * x * (bv + bv[0] * idle)
    z[0] = 0.0  # exact: the idle period is positive almost surely (rounding left ~1e-17)
    return GridFunction(step=b.step, values=z)


def busy_period_laplace_from_service(law: ServiceLaw, s_points) -> list[LaplacePoint]:
    """Busy-period transform at every s of `s_points`, straight from the service CDF.

    Evaluates 1 + (s - 1/J)/lambda with
    J = int_0^inf exp(-s*t - lambda int_0^t [1 - G(v)] dv) dt by nested
    quadrature on about 40,001 nodes over [0, t*] and the tail past t* in
    closed form, e^{-s t*} e^{-inner(t*)}/s, as if the inner integral had
    saturated there.  t* = min(34/s_min, t_knot + 36/r), s_min the smallest
    positive s and r the kernel's tail rate: by 34/s_min every integrand is
    below e^{-34} of its start, and past t_knot 1 - G decays at rate r, so by
    t_knot + 36/r it has fallen by e^{-36} and the inner integral has all but
    saturated.  The node spacing thus follows the service law's own scale, not
    its mean busy period.  At r = 0, G == 1 and t* = 34/s_min.

    G is smooth between beta's knots, where G'' jumps with beta's slope, so
    the nodes are uniform on each piece of [0, t*] between knots, 16 k
    intervals on a piece of length w, k = max(1, round(2500 w/t*)); a
    constant's one piece has 40,000.  G is evaluated once on all the nodes,
    and the inner integral is one composite Simpson prefix at the even nodes,
    shared by every s.  Each s then forms only its integrand at the even
    nodes and integrates each piece by `_romberg`: a larger s sees nodes
    coarser against its 1/s, which plain Simpson would resolve only to about
    (s H)^4, H the even nodes' spacing.  The s points of `verify` span a
    factor 50.  At s = 0 the outer integral diverges and the normalization
    value 1 is returned.  It writes into one array of the nodes' size and one
    of half that, never into the one `law.cdf` returns.
    """
    s_all = [float(s) for s in s_points]
    if any(s < 0 for s in s_all):
        raise NegativeS(f"s must be >= 0, got {min(s_all)}")
    positive = [s for s in s_all if s > 0]
    if not positive:
        return [LaplacePoint(0.0, 1.0) for _ in s_all]
    params, r, s_min = law.params, law.tail_rate, min(positive)
    t_star = 34.0 / s_min if r == 0.0 else min(34.0 / s_min, law.t_knot + 36.0 / r)
    knots = law.spec.knot_times
    edges = np.append(knots[knots < t_star], t_star)
    widths = np.diff(edges)
    counts = 16 * np.maximum(1, np.rint(2500.0 / t_star * widths)).astype(int)
    offsets = np.concatenate([[0], np.cumsum(counts)])  # each piece's first node
    steps = widths / counts
    ts = np.arange(offsets[-1] + 1, dtype=float)
    body = ts[:-1]  # node lo + k of a piece from a, spaced h, is a + k h
    body -= np.repeat(offsets[:-1], counts)
    body *= np.repeat(steps, counts)
    body += np.repeat(edges[:-1], counts)
    ts[-1] = t_star
    y = np.subtract(1.0, law.cdf(ts))
    y *= params.lam
    if not np.all(np.isfinite(y)):
        raise QuadratureFailure("service CDF returned non-finite values")
    # composite Simpson prefix of the inner integral at the even nodes, after a 0
    half = offsets // 2  # each piece's first even node
    inner = np.zeros(half[-1] + 1)
    cells = inner[1:]
    np.add(y[:-2:2], np.multiply(y[1::2], 4.0, out=cells), out=cells)
    cells += y[2::2]
    cells *= np.repeat(steps / 3.0, counts // 2)
    np.cumsum(cells, out=cells)
    even = ts[::2]
    integrand = y[:half[-1] + 1]  # lambda (1 - G) is spent: its first half holds each integrand
    out = []
    for s in s_all:
        if s == 0:
            out.append(LaplacePoint(0.0, 1.0))
            continue
        np.multiply(even, -s, out=integrand)
        integrand -= inner
        np.exp(integrand, out=integrand)
        j = _romberg(integrand, half, 2.0 * steps)
        j += integrand[-1] / s  # exponential tail with the saturated inner integral
        if not math.isfinite(j) or j <= 0:
            raise QuadratureFailure("outer Laplace integral failed")
        out.append(LaplacePoint(s, 1.0 + (s - 1.0 / j) / params.lam))
    return out


def _romberg(y: np.ndarray, bounds: np.ndarray, h: np.ndarray) -> float:
    """Sum over pieces of Romberg's integral from the trapezoid sums at h_i, 2h_i, 4h_i, 8h_i.

    Piece i holds samples y[bounds[i]:bounds[i+1] + 1] at spacing h[i], the
    last piece ends at the last sample, and every bound must be divisible by 8.  The stride-k samples of a piece are those of
    y[::k], so each level is one reduceat over all pieces.  Column 1 of the
    table holds the Simpson sums at h, 2h and 4h; two more Richardson steps
    remove their h^4 and h^6 terms.
    """
    lo, hi = bounds[:-1], bounds[1:]
    ends = 0.5 * (y[hi] - y[lo])  # closes each half-open sum [lo, hi) with trapezoid ends
    table = [k * h * (np.add.reduceat(y[:-1:k], lo // k) + ends) for k in (1, 2, 4, 8)]
    for level in (4.0, 16.0, 64.0):
        table = [(level * fine - coarse) / (level - 1.0) for fine, coarse in zip(table, table[1:])]
    return float(table[0].sum())


def busy_period_laplace_general(law: ServiceLaw, s: float) -> LaplacePoint:
    """Busy-period transform from the kernel: rational in L phi(s).

    With (1 - G(0)) L f = (1 - e^{-rho}) L phi / lambda and x = (1 - e^{-rho}) L phi
    this is (1 - (s + lambda) x / lambda) / D, where
    D = 1 - x = e^{-rho} - (1 - e^{-rho})(L phi - 1) keeps e^{-rho} beside 1.
    L phi - 1 is `ServiceLaw.kernel_moments` at g = -s.  At s = 0, and at
    r = 0 where phi == 0 and D = e^{-rho} + (1 - e^{-rho}) rounds to 1, it is
    the normalization value 1.
    """
    if s < 0:
        raise NegativeS(f"s must be >= 0, got {s}")
    if s == 0:
        return LaplacePoint(0.0, 1.0)
    q0, lam = law.params.exp_neg_rho, law.params.lam
    excess = law.kernel_moments(-s)[0]  # L phi(s) - 1
    x = (1.0 - q0) * (1.0 + excess)
    return LaplacePoint(s, float((1.0 - (s + lam) * x / lam) / (q0 - (1.0 - q0) * excess)))


def busy_cycle_laplace(params: QueueParams, bp: LaplacePoint) -> LaplacePoint:
    """Idle and busy periods are independent: Zbar(s) = lambda/(lambda+s) * Bbar(s)."""
    return LaplacePoint(bp.s, params.lam / (params.lam + bp.s) * bp.value)
