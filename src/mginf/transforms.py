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
trapezoidal discretisation on a uniform grid of step h is a lower-triangular
Toeplitz system.  Past the last beta knot the kernel is exactly
exponential, so the system's coefficients are geometric from lag J on (J the
grid points before the knot): a_d = a_J q^(d-J).  The system is solved
exactly in blocks of M >= 4J points (block by block with the history carried
forward, as for Volterra convolution equations in general: Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  Each block uses one
power-series reciprocal of a[:M]; the J points before it enter by a middle
product, and all older points by one scalar carried from block to block.
The trapezoid error of this second-kind Volterra equation with a smooth
kernel expands in even powers of h (Linz, Analytical and Numerical Methods
for Volterra Equations, SIAM 1985, ch. 7).  So a companion walk at 2h, in
blocks of M/2 points that end with the walk's own, runs in lockstep on the
even samples of the same density, and one Richardson step
R = u_h + (u_h - u_2h)/3 removes the h^2 term: B is fourth order for
constant beta.  The walk stops at the first block end where R meets its own
exponential tail: by the key renewal theorem for defective equations
1 - B(t) ~ C e^{-gamma t} (Feller II, XI.6; Asmussen, Applied Probability and
Queues, 2003, V.7), with (gamma, C) from `ServiceLaw.busy_tail`, and past
that block B and Z are closed form in them.  For constant beta the tail is
exact from t = 0, so the walk is one block at every rho.
The reciprocal takes Newton steps whose two products share one cyclic FFT of
about the new length (middle product).  Every FFT length is the smallest
5-smooth number 2^a 3^b 5^c that holds the product.  The busy-cycle CDF is B
convolved with the exponential idle-period density; that convolution is a
first-order recurrence, evaluated in O(n) with no FFT, whose increments
integrate the idle density exactly against the cubic interpolant of B
(exponential time differencing: Cox & Matthews, J. Comput. Phys. 176, 2002),
so Z is fourth order too.  It takes the law whose grid B is; the law's step
certificate keeps lambda h <= 0.01, so the weights are one power series.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (GridTooLarge, NegativeS, NonFiniteParameter, NonPositiveParameter,
                     QuadratureFailure)
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
            raise NonPositiveParameter(f"step must be > 0, got {self.step}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteParameter("grid values must be finite")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step


# Largest time grid built (eval rows, the kernel grid, the busy-period walk).
# A walk and its companion at 2h peak at about 18 bytes a point (tracemalloc,
# 377k points at rho = 5), 0.30 GB at this size; their default grids are one
# block of 4096 points.
MAX_GRID_POINTS = 2**24

# Points per block of the busy-period solve (at least 4 J, J the points before
# the last knot).
SERIES_BLOCK = 4096

# The walk stops at the first block end t_k with |1 - R_k - C e^{-gamma t_k}|
# below this, R the extrapolated grid: the largest step B may take at T, where
# the grid meets its tail.  R's own error is far smaller (1.1e-9 at rho = 3,
# h = 0.005), so the mismatch is mostly how far the tail still is from its
# asymptote at t_k; verify's series-vs-transform and mean checks read both sides.
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


@functools.cache
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


# Newton steps of the reciprocal up to this many terms take their two products by
# direct convolution: at 512 terms that is 59 us against 77 us for the five FFT calls
# of a step, and at 2 terms 6 us against 48 us (numpy 2.4, 2 cores)
DIRECT_PRODUCT_TERMS = 512


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """The power series 1/a to len(a) terms, by Newton steps g <- g (2 - a g).

    A step from k correct terms to m = min(2k, n) forms the defect, the terms
    k..m-1 of a[:m] g, and adds g times the defect.  Up to
    DIRECT_PRODUCT_TERMS terms both products are direct convolutions.  Past
    that a step uses one cyclic length N = _fft_size(m) >= m and the transform
    of g for both of its products (the middle product).  The cyclic a[:m] g of
    length N wraps only onto terms below m + k - 1 - N < k, so its terms
    k..m-1 are exact; the correction g times the defect has m - 1 < N terms
    and does not wrap.  That is five FFTs of length about m per step.
    """
    n = len(a)
    g = np.array([1.0 / a[0]])
    while (k := len(g)) < n:
        m = min(2 * k, n)
        if m <= DIRECT_PRODUCT_TERMS:
            defect = -np.convolve(a[:m], g)[k:m]
            g = np.concatenate([g, np.convolve(g, defect)[:m - k]])
            continue
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


class _Walk:
    """The trapezoidal system for u at one step h, solved one block of M points at a time.

    u = a + K u, with a = (1 - e^{-rho}) phi = (1 - e^{-rho}) f/I and K x the
    trapezoid rule for the convolution x * a with half-weight endpoints,
    K x = h (c * x) - h x_0 a/2, where c = a except c_0 = a_0/2.  Row 0 gives
    u_0 = a_0, so T * u = rhs with T = delta - h c and rhs = a (1 - h a_0/2):
    the sum of the Neumann series sum_k K^k a with no term dropped.  u >= 0
    when a >= 0.

    Past the last knot f is exponential, so T_d = T_J q^(d-J) exactly for
    every d >= J, with q = e^{-r h}, r the kernel's tail rate and J the grid
    points before the knot (`series_block`), M >= J.  `block` solves
    [s, s+M), the first block with one power-series reciprocal of T[:M] and
    one product; for k in a later block,

        sum_{j=s}^{k} T_{k-j} u_j = rhs_k - sum_{j=s-J}^{s-1} T_{k-j} u_j
                                    - T_J q^(k-s+1) S_s,

    an M x M system solved with the same reciprocal, where the scalar
    S_s = sum_{j <= s-J-1} q^(s-J-1-j) u_j holds every older point and moves
    on once a block: S_{s+M} = q^M S_s + sum_{j=s-J}^{s+M-J-1} q^(s+M-J-1-j) u_j.
    What only a later block needs (T_1 .. T_{M+J-1} for the middle product,
    of which the last J come from that block's own density, the powers of q
    and S) is formed when the second block is asked for, so a one-block walk
    never forms it.
    """

    def __init__(self, h: float, lead: int, rate: float):
        self.h, self.lead, self.q = h, lead, math.exp(-rate * h)
        self.last = None  # u on the last block solved
        self.near_hat = None  # the transform of T_1 .. T_{M+J-1}, from the second block on

    def block(self, y: np.ndarray) -> np.ndarray:
        """u on the next block of M = len(y) points, from the density a there; y is overwritten."""
        h, lead, m = self.h, self.lead, y.size
        if self.last is None:
            self.half = 0.5 * h * y[0]
            self.t = t = y * -h  # T = delta - h c
            t[0] = 1.0 - self.half
            self.size = _fft_size(2 * m - 1)
            self.g_hat = np.fft.rfft(_reciprocal(t), self.size)
            y *= 1.0 - self.half
        else:
            last = self.last
            if self.near_hat is None:  # the second block: S = 0 before the first
                self.near_size = _fft_size(m + lead - 1)
                near = np.concatenate([self.t[1:], y[:lead] * -h])
                self.near_hat = np.fft.rfft(near, self.near_size)
                self.t_lead = self.t[lead]
                self.steps = self.q ** np.arange(m + 1)  # q^0 .. q^M
                del self.t
                self.carry, window = 0.0, last[:m - lead]
            else:
                window = np.concatenate([self.prev, last[:m - lead]])
            # S moves on by M: its window gains u_j for j in [s - M - J, s - J)
            weights = self.steps[window.size - 1::-1]
            self.carry = self.steps[m] * self.carry + (window * weights).sum()
            self.prev = last[-lead:]  # u_{s-J} .. u_{s-1}
            y *= 1.0 - self.half
            y -= np.fft.irfft(np.fft.rfft(self.prev, self.near_size) * self.near_hat,
                              self.near_size)[lead - 1:lead - 1 + m]
            y -= self.t_lead * self.carry * self.steps[1:]
        self.last = np.fft.irfft(np.fft.rfft(y, self.size) * self.g_hat, self.size)[:m]
        return self.last


def _walks(law: ServiceLaw):
    """(u_h, u_2h) on each block in turn: the walks at the law's step h and at 2h, in lockstep.

    The h walk's blocks hold M points and the 2h walk's M/2 (M is even), so
    both span the same times [s h, (s + M) h) and every 2h block still ends
    past the knot.  The 2h walk takes the even samples of the h walk's density,
    since k (2h) and (2k) h are the same double.  The walk goes on as long as
    its caller asks; a block past MAX_GRID_POINTS raises GridTooLarge.
    """
    h = law.step
    lead, m = series_block(law.t_knot, h)
    fine = _Walk(h, lead, law.tail_rate)
    coarse = _Walk(2.0 * h, series_block(law.t_knot, 2.0 * h)[0], law.tail_rate)
    s = 0
    while True:
        if s and s + m > MAX_GRID_POINTS:
            raise GridTooLarge(f"busy-period grid did not meet its exponential tail "
                               f"within {MAX_GRID_POINTS} points (step {h:g})")
        y = _density(law, h, s, s + m)
        u_2h = coarse.block(y[::2].copy())
        yield fine.block(y), u_2h
        s += m


def busy_period_cdf_series(law: ServiceLaw) -> GridFunction:
    """B(t) on 0, h, ..., T at the law's step h: 1 - R/lambda, R the Richardson grid of u.

    u solves the trapezoidal system of `_Walk`, whose error expands in even
    powers of h.  `_walks` gives it at h and at 2h block by block, and
    c = (u_h - u_2h)/3 at the even points (those of the 2h grid) removes the
    h^2 term there: R = u_h + c, with c linear between even points and
    extrapolated from the last two at each block's last point, so a block's R
    never waits on the next.  R is fourth order for constant beta (1.1e-9 at
    rho = 3, h = 0.005, where u_h alone is off by 1.3e-5).  The walk ends at
    the first block end t_k with |R_k/lambda - C e^{-gamma t_k}| below
    TAIL_TOL, (gamma, C) = law.busy_tail; the 2h walk alone would not get
    there on a flat table at rho = 20, where its own error is 1.7e-4.  B is
    clipped to [0, 1], a projection that cannot move it away from a CDF.
    """
    lam, h = law.params.lam, law.step
    gamma, c = law.busy_tail
    blocks = []
    for u_h, u_2h in _walks(law):
        corr = u_h[::2] - u_2h
        corr /= 3.0
        r = u_h.copy()
        r[::2] += corr
        r[1:-1:2] += 0.5 * (corr[:-1] + corr[1:])
        r[-1] += 1.5 * corr[-1] - 0.5 * corr[-2]
        blocks.append(r)
        if abs(r[-1] / lam - c * math.exp(-gamma * (len(blocks) * r.size - 1) * h)) < TAIL_TOL:
            break
    u = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    u *= -1.0 / lam
    u += 1.0
    np.clip(u, 0.0, 1.0, out=u)
    return GridFunction(step=h, values=u)


@functools.cache
def _lagrange() -> tuple[np.ndarray, ...]:
    """Cubic Lagrange bases on the first, a middle and the last cell.

    Nodes are grid points in steps from the cell's left end: 0..3 on the
    first cell, -1..2 on a middle one, -2..1 on the last.  Each basis is the
    matrix C with L_j(v) = sum_k C[k, j] v^k in v = 1 - s, s the position in
    the cell: the inverse of the nodes' Vandermonde matrix in v.
    """
    return tuple(np.linalg.inv(np.vander(1.0 - (np.arange(4) - o), increasing=True))
                 for o in (0, 1, 2))


def _cell_weights(x: float) -> tuple[np.ndarray, ...]:
    """x int_0^1 e^{-x (1 - s)} L_j(s) ds for each basis of `_lagrange`: (first, middle, last).

    With v = 1 - s they are sum_k C[k, j] E_k, E_k = x int_0^1 e^{-x v} v^k dv,
    the power series x sum_i (-x)^i / (i! (k + i + 1)) to 20 terms.  A law's
    step keeps x = lambda h <= 0.01 (its StepTooCoarse certificate bounds h by
    0.01/(lambda + max|beta|)), so the first omitted term, below x^20/20!, is
    far under rounding.  Each set of weights sums to E_0 = 1 - e^{-x}, the
    idle density's mass on the cell.
    """
    i = np.arange(20.0)
    terms = np.cumprod(np.concatenate([[1.0], -x / i[1:]]))  # (-x)^i / i!
    moments = x * (terms / (np.arange(4)[:, None] + i + 1.0)).sum(axis=1)
    return tuple(moments @ basis for basis in _lagrange())


def busy_cycle_cdf_series(law: ServiceLaw, b: GridFunction) -> GridFunction:
    """Z(t) = (idle-period exponential density) * B(t) on B's grid, a grid of `law`.

    The law's step h keeps x = lambda h <= 0.01 and its walk gives at least
    SERIES_BLOCK points.  With q = e^{-x}, Z_k = q Z_{k-1} + inc_k,
    where inc_k is the idle density's integral against B over cell k,
    [t_{k-1}, t_k].  As the density's own integral there is 1 - q,
    Z = `law.idle_cdf` - W with W_k = q W_{k-1} + w_k, w_k the integral
    against 1 - B; so B == 1 gives 1 - e^{-lambda t} exactly, and Z keeps
    below that ceiling wherever W >= 0.  w_k integrates the idle density
    exactly against the cubic Lagrange interpolant of 1 - B on the 4 points
    centred on the cell (one-sided on the first and the last cell), with the
    weights of `_cell_weights`, formed once per grid.  That is fourth order:
    against the trapezoid's, whose weights sum to (x/2) coth(x/2), Z no longer
    overshoots 1 by x^2/12.  W is a cumulative sum of e^{x j} w_j inside
    blocks of int(200/x) points, so no factor exceeds e^200, scaled back by
    e^{-x j} and carried across blocks.  Z is clipped to [0, 1], as B is.
    """
    x = law.params.lam * b.step
    q = math.exp(-x)
    v = 1.0 - b.values
    n = v.size
    first, mid, last = _cell_weights(x)
    w = np.zeros(n)
    w[1] = first @ v[:4]
    w[2:-1] = np.correlate(v, mid, "valid")
    w[-1] = last @ v[-4:]
    width = int(200.0 / x)
    grow = np.exp(x * np.arange(min(width, n)))
    carry = 0.0  # W just before the block
    for start in range(0, n, width):
        block = w[start:start + width]
        e = grow[:len(block)]
        block *= e
        np.cumsum(block, out=block)
        block += q * carry
        block /= e
        carry = block[-1]
    z = law.idle_cdf(b.times)
    z -= w
    np.clip(z, 0.0, 1.0, out=z)  # near t = 0 at rho = 40, Z is the rounding of B ~ 0: -3e-18
    return GridFunction(step=b.step, values=z)


def laplace_points(s) -> np.ndarray:
    """np.atleast_1d(s) as floats; raises NegativeS if any is below 0."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < 0):
        raise NegativeS(f"s must be >= 0, got {s.min()}")
    return s


def busy_period_laplace_from_service(law: ServiceLaw, s) -> np.ndarray:
    """Busy-period transform at every s of the array `s`, straight from the service CDF.

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
    intervals on a piece of length w, k = max(1, round(2500 w/t*),
    ceil(w R/(16 c))) with c = 3e-3, so the spacing is at most c/R, where
    R = lambda + max beta on the piece (at one of its ends) bounds the rate
    beta + lambda G at which 1 - G decays.  A constant (w r <= 36) keeps its
    40,000 intervals.  G is evaluated once on all the nodes,
    and the inner integral is one composite Simpson prefix at the even nodes,
    shared by every s.  Each s then forms only its integrand at the even
    nodes and integrates each piece by `_romberg`: a larger s sees nodes
    coarser against its 1/s, which plain Simpson would resolve only to about
    (s H)^4, H the even nodes' spacing.  The s points of `verify` span a
    factor 50.  At s = 0 the outer integral diverges and the normalization
    value 1 is returned.  It writes into one array of the nodes' size and one
    of half that, never into the one `law.cdf` returns.
    """
    s = laplace_points(s)
    out = np.ones_like(s)
    positive = np.flatnonzero(s > 0)
    if not positive.size:
        return out
    params, r, s_min = law.params, law.tail_rate, float(s[positive].min())
    t_star = 34.0 / s_min if r == 0.0 else min(34.0 / s_min, law.t_knot + 36.0 / r)
    knots = law.spec.knot_times
    edges = np.append(knots[knots < t_star], t_star)
    widths = np.diff(edges)
    beta = law.spec.value(edges)
    rate = params.lam + np.maximum(beta[:-1], beta[1:])  # R of each piece
    k = np.maximum(np.rint(2500.0 / t_star * widths), np.ceil(widths * rate / (16 * 3e-3)))
    counts = 16 * np.maximum(1, k).astype(int)
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
    for i in positive:
        x = float(s[i])
        np.multiply(even, -x, out=integrand)
        integrand -= inner
        np.exp(integrand, out=integrand)
        j = _romberg(integrand, half, 2.0 * steps)
        j += integrand[-1] / x  # exponential tail with the saturated inner integral
        if not math.isfinite(j) or j <= 0:
            raise QuadratureFailure("outer Laplace integral failed")
        out[i] = 1.0 + (x - 1.0 / j) / params.lam
    return out


def _romberg(y: np.ndarray, bounds: np.ndarray, h: np.ndarray) -> float:
    """Sum over pieces of Romberg's integral from the trapezoid sums at h_i, 2h_i, 4h_i, 8h_i.

    Piece i holds samples y[bounds[i]:bounds[i+1] + 1] at spacing h[i], the
    last piece ends at the last sample, and every bound must be divisible by
    8.  The stride-k samples of a piece are those of y[::k], so each level is
    one reduceat over all pieces.  Column 1 of the table holds the Simpson
    sums at h, 2h and 4h; two more Richardson steps remove their h^4 and h^6
    terms.
    """
    lo, hi = bounds[:-1], bounds[1:]
    ends = 0.5 * (y[hi] - y[lo])  # closes each half-open sum [lo, hi) with trapezoid ends
    table = [k * h * (np.add.reduceat(y[:-1:k], lo // k) + ends) for k in (1, 2, 4, 8)]
    for level in (4.0, 16.0, 64.0):
        table = [(level * fine - coarse) / (level - 1.0) for fine, coarse in zip(table, table[1:])]
    return float(table[0].sum())


def busy_period_laplace_general(law: ServiceLaw, s) -> np.ndarray:
    """Busy-period transform from the kernel at every s of the array `s`: rational in L phi(s).

    With (1 - G(0)) L f = (1 - e^{-rho}) L phi / lambda and x = (1 - e^{-rho}) L phi
    this is (1 - (s + lambda) x / lambda) / D, where
    D = 1 - x = e^{-rho} - (1 - e^{-rho})(L phi - 1) keeps e^{-rho} beside 1.
    L phi - 1 is `ServiceLaw.kernel_moments` at g = -s, one s at a time.  At
    s = 0, and at r = 0 where phi == 0 and D = e^{-rho} + (1 - e^{-rho})
    rounds to 1, it is the normalization value 1.
    """
    s = laplace_points(s)
    q0, lam = law.params.exp_neg_rho, law.params.lam
    excess = np.array([law.kernel_moments(-x)[0] for x in s])  # L phi(s) - 1
    x = (1.0 - q0) * (1.0 + excess)
    out = (1.0 - (s + lam) * x / lam) / (q0 - (1.0 - q0) * excess)
    out[s == 0] = 1.0
    return out


def busy_cycle_laplace(params: QueueParams, s, busy) -> np.ndarray:
    """Idle and busy periods are independent: Zbar(s) = lambda/(lambda+s) * Bbar(s), on arrays."""
    return params.lam / (params.lam + np.asarray(s, dtype=float)) * busy
