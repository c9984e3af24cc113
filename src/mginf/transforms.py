"""Laplace transforms and the grid solution of the busy-period convolution equation.

The busy-period transform has two equivalent routes: a nested-quadrature
evaluation straight from the service CDF, and the kernel-based rational form.
The time-domain CDF solves a Volterra convolution equation in the kernel; its
trapezoidal discretisation on a uniform grid is a lower-triangular Toeplitz
system (plus a rank-one term), solved exactly with an FFT power-series
reciprocal.  The busy-cycle CDF is one extra convolution with the exponential
idle-period density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NegativeS, QuadratureFailure, StepMismatch, StepTooCoarse
from .kernel import KernelContext
from .params import BetaSpec, QueueParams


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at t = 0, h, 2h, ..., n*h."""

    step: float
    values: np.ndarray
    kind: str = "density"  # "density" or "cdf"

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step

    def at(self, t: float) -> float:
        """Linear interpolation between grid samples."""
        return float(np.interp(t, self.times, self.values))


class LaplacePoint(NamedTuple):
    s: float
    value: float


@dataclass(frozen=True)
class GridSpec:
    step: float
    t_max: float


def default_grid(params: QueueParams, spec: BetaSpec) -> GridSpec:
    """h small vs the arrival, service and beta rates; t_max 12 busy-period means.

    The beta term keeps h * (lambda + max|beta|) within the grid solve's 0.01 limit.
    """
    h = min(0.005 / params.lam, params.alpha / 200.0, 0.01 / (params.lam + spec.max_abs))
    t_max = 12.0 * math.expm1(params.rho) / params.lam
    return GridSpec(step=h, t_max=t_max)


def _product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the linear convolution a * b.

    The FFT length is the power of two at or above the full product length,
    so the circular convolution equals the linear one.
    """
    a, b = a[:n], b[:n]
    size = 1 << (len(a) + len(b) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """The power series 1/a to len(a) terms, by Newton steps g <- g (2 - a g).

    Each step doubles the number of correct terms m: 1 - a g vanishes below
    z^m, so only its terms m..2m-1 are formed and g gains g times them.
    """
    n = len(a)
    g = np.array([1.0 / a[0]])
    while len(g) < n:
        m = min(2 * len(g), n)
        defect = -_product(a, g, m)[len(g):]
        g = np.concatenate([g, _product(g, defect, m - len(g))])
    return g


def grid_convolve(a: GridFunction, b: GridFunction) -> GridFunction:
    """Trapezoidal discrete convolution with half-weight endpoints."""
    if abs(a.step - b.step) > 1e-15 * max(a.step, b.step):
        raise StepMismatch(f"steps differ: {a.step} vs {b.step}")
    n = min(len(a.values), len(b.values))
    av, bv = a.values[:n], b.values[:n]
    full = _product(av, bv, n)
    trap = a.step * (full - 0.5 * av[0] * bv - 0.5 * av * bv[0])
    return GridFunction(step=a.step, values=trap, kind="density")


def _series_parts(ctx: KernelContext, grid: GridSpec):
    """Grid samples of the kernel f, the bracket factor r, and the weight w."""
    params = ctx.params
    h = grid.step
    rate = params.lam + ctx.vbeta.spec.max_abs
    if h * rate > 0.01 * (1 + 1e-9):
        raise StepTooCoarse(f"step {h} too coarse for rates up to {rate}")
    n = int(round(grid.t_max / h)) + 1
    ts = np.arange(n) * h
    f = ctx.kernel(ts)
    one_m_q0 = 1.0 - params.exp_neg_rho
    bracket = 1.0 - one_m_q0 * (ctx.inv_total * f / params.lam + ctx.prefix_mass(ts))
    weight = one_m_q0 * ctx.inv_total
    return f, bracket, weight


def busy_period_cdf_series(ctx: KernelContext, grid: GridSpec) -> GridFunction:
    """B(t) on the grid: the exact solution of the trapezoidal Volterra system.

    B = r + w K B, with bracket factor r = 1 - (1 - e^{-rho})(phi/lambda + Phi),
    weight w = (1 - e^{-rho})/I and
    K x = grid_convolve(x, f) = c * x - h x_0 f / 2, where c = h f except
    c_0 = h f_0 / 2.  Row 0 gives B_0 = r_0, so
    B = (r - w h r_0 f / 2) * (delta - w c)^{-1}: one power-series
    reciprocal and one product.  This is the sum of the Neumann series
    sum_k (w K)^k r with no term dropped.
    """
    f, r, w = _series_parts(ctx, grid)
    h = grid.step
    a = -w * h * f  # delta - w c
    a[0] = 1.0 - 0.5 * w * h * f[0]
    b = _product(r - 0.5 * w * h * r[0] * f, _reciprocal(a), len(r))
    return GridFunction(step=h, values=b, kind="cdf")


def busy_cycle_cdf_series(params: QueueParams, b: GridFunction) -> GridFunction:
    """Z(t) = (idle-period exponential density) * B(t) on the grid of B."""
    lam = params.lam
    idle = GridFunction(b.step, lam * np.exp(-lam * b.times))
    z = grid_convolve(idle, GridFunction(b.step, b.values))
    return GridFunction(step=b.step, values=z.values, kind="cdf")


def busy_period_laplace_from_service(
    params: QueueParams,
    service_cdf: Callable[[np.ndarray], np.ndarray],
    s: float,
) -> LaplacePoint:
    """Busy-period transform straight from the service CDF by nested quadrature.

    Evaluates 1 + (s - 1/J)/lambda with
    J = int_0^inf exp(-s*t - lambda int_0^t [1 - G(v)] dv) dt; the inner
    integral saturates at rho, so the integrand tail is e^{-rho} e^{-s t} and
    is added in closed form.  At s = 0 the outer integral diverges and the
    normalization value 1 is returned.
    """
    if s < 0:
        raise NegativeS(f"s must be >= 0, got {s}")
    if s == 0:
        return LaplacePoint(0.0, 1.0)
    t_star = 34.0 / s + 40.0 * params.alpha
    m = 20000
    h = t_star / (2 * m)
    ts = np.arange(2 * m + 1) * h
    y = params.lam * (1.0 - np.asarray(service_cdf(ts), dtype=float))
    if not np.all(np.isfinite(y)):
        raise QuadratureFailure("service CDF returned non-finite values")
    # composite Simpson prefix of the inner integral at the even nodes
    cells = h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])
    inner = np.concatenate([[0.0], np.cumsum(cells)])
    t_even = ts[::2]
    integrand = np.exp(-s * t_even - inner)
    # Simpson again over the even nodes
    h2 = 2.0 * h
    j = h2 / 3.0 * (
        integrand[0] + integrand[-1]
        + 4.0 * integrand[1:-1:2].sum() + 2.0 * integrand[2:-1:2].sum()
    )
    j += integrand[-1] / s  # exponential tail with the saturated inner integral
    if not math.isfinite(j) or j <= 0:
        raise QuadratureFailure("outer Laplace integral failed")
    return LaplacePoint(s, 1.0 + (s - 1.0 / j) / params.lam)


def kernel_laplace(ctx: KernelContext, s: float) -> float:
    """L phi(s) = int_0^inf e^{-s t} phi(t) dt for s > 0, numeric on [0, t_knot] + exact tail."""
    if s <= 0:
        raise NegativeS(f"s must be > 0, got {s}")
    tail = ctx.tail_rate * ctx.tail_mass * math.exp(-s * ctx.t_knot) / (s + ctx.tail_rate)
    if ctx.t_knot == 0:
        return float(tail)
    ts = ctx.grid_t
    h = ts[1] - ts[0]
    vals = np.exp(-s * ts) * ctx.grid_f
    mid = ts[:-1] + 0.5 * h
    vals_mid = np.exp(-s * mid) * ctx.kernel(mid)
    numeric = (h / 6.0 * (vals[:-1] + 4.0 * vals_mid + vals[1:])).sum()
    return float(ctx.inv_total * numeric + tail)


def busy_period_laplace_general(ctx: KernelContext, s: float) -> LaplacePoint:
    """Busy-period transform from the kernel: rational in L phi(s).

    With (1 - G(0)) L f = (1 - e^{-rho}) L phi / lambda this is
    (1 - (s + lambda)(1 - e^{-rho}) L phi / lambda) / (1 - (1 - e^{-rho}) L phi);
    at s = 0 it is the normalization value 1.
    """
    if s < 0:
        raise NegativeS(f"s must be >= 0, got {s}")
    if s == 0:
        return LaplacePoint(0.0, 1.0)
    lam = ctx.params.lam
    x = (1.0 - ctx.params.exp_neg_rho) * kernel_laplace(ctx, s)
    return LaplacePoint(s, (1.0 - (s + lam) * x / lam) / (1.0 - x))


def busy_cycle_laplace(params: QueueParams, bp: LaplacePoint) -> LaplacePoint:
    """Idle and busy periods are independent: Zbar(s) = lambda/(lambda+s) * Bbar(s)."""
    return LaplacePoint(bp.s, params.lam / (params.lam + bp.s) * bp.value)
