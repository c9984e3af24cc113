"""General beta(t) evaluation of the Riccati-family service CDF and its inverse.

Everything is driven by the kernel f(t) = exp(-lambda*t - int_0^t beta(u)du).
Beyond the last beta knot the kernel is exactly exponential, so the total
integral I = int_0^inf f and all prefix integrals split into a numeric part on
[0, t_knot] plus an analytic tail, and the service CDF inverts in closed form
there; for constant beta (t_knot = 0) the whole computation is analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BetaOutOfRange, DivergentKernelIntegral, NegativeTime, ProbabilityOutOfRange
from .params import QueueParams, ValidatedBeta


@dataclass(frozen=True)
class KernelContext:
    """Precomputed kernel state: grid prefix integral on [0, t_knot] + exact tail."""

    params: QueueParams
    vbeta: ValidatedBeta
    t_knot: float            # last beta knot; kernel is exponential beyond it
    tail_rate: float         # lambda + beta(inf)
    grid_t: np.ndarray       # uniform grid on [0, t_knot] (empty for constant beta)
    grid_f: np.ndarray
    grid_prefix: np.ndarray  # int_0^{grid_t} f
    grid_g: np.ndarray       # G(grid_t), nondecreasing: build_kernel checks G' >= 0
    total_integral: float    # I = int_0^inf f

    def kernel(self, t) -> np.ndarray:
        """f(t), evaluated exactly from the cumulative beta integral."""
        tt = np.asarray(t, dtype=float)
        return np.exp(-self.params.lam * tt - self.vbeta.spec.cumulative(tt))

    def prefix_integral(self, t) -> float | np.ndarray:
        """int_0^t f(w) dw."""
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0):
            raise NegativeTime("t must be >= 0")
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt)
        out = np.empty_like(tt)
        inside = tt < self.t_knot
        if np.any(inside):
            out[inside] = self._prefix_numeric(tt[inside])
        if np.any(~inside):
            te = tt[~inside]
            f_end = self.kernel(self.t_knot)
            decay = -np.expm1(-self.tail_rate * (te - self.t_knot))
            out[~inside] = self._prefix_end + f_end * decay / self.tail_rate
        return float(out[0]) if scalar else out

    @property
    def _prefix_end(self) -> float:
        return float(self.grid_prefix[-1]) if self.grid_prefix.size else 0.0

    def _prefix_numeric(self, t: np.ndarray) -> np.ndarray:
        h = self.grid_t[1] - self.grid_t[0]
        idx = np.clip((t // h).astype(int), 0, len(self.grid_t) - 1)
        t0 = self.grid_t[idx]
        # Simpson over the residual [t0, t]; f evaluated exactly at 3 points
        dt = t - t0
        fm = self.kernel(t0 + 0.5 * dt)
        ft = self.kernel(t)
        return self.grid_prefix[idx] + dt / 6.0 * (self.grid_f[idx] + 4.0 * fm + ft)


def build_kernel(params: QueueParams, vbeta: ValidatedBeta) -> KernelContext:
    """Integrate the kernel once: grid prefix on [0, t_knot], exact exponential tail."""
    spec = vbeta.spec
    tail_rate = params.lam + spec.tail_rate()
    t_knot = spec.last_knot
    if tail_rate <= 0:
        raise DivergentKernelIntegral(
            "kernel tail rate lambda + beta(inf) must be > 0 "
            f"(got {tail_rate}); the degenerate service case is handled in closed form"
        )
    if t_knot > 0:
        n = max(int(math.ceil(t_knot / (1e-3 * params.alpha))), 100)
        grid_t = np.linspace(0.0, t_knot, n + 1)
        h = grid_t[1] - grid_t[0]
        cum = spec.cumulative(grid_t)
        grid_f = np.exp(-params.lam * grid_t - cum)
        mid = grid_t[:-1] + 0.5 * h
        f_mid = np.exp(-params.lam * mid - spec.cumulative(mid))
        cells = h / 6.0 * (grid_f[:-1] + 4.0 * f_mid + grid_f[1:])
        grid_prefix = np.concatenate([[0.0], np.cumsum(cells)])
        f_end = grid_f[-1]
    else:
        grid_t = np.array([])
        grid_f = np.array([])
        grid_prefix = np.array([])
        f_end = 1.0
    total = float((grid_prefix[-1] if t_knot > 0 else 0.0) + f_end / tail_rate)
    grid_g = _service_cdf(params, total, grid_f, grid_prefix)
    ctx = KernelContext(
        params=params,
        vbeta=vbeta,
        t_knot=t_knot,
        tail_rate=tail_rate,
        grid_t=grid_t,
        grid_f=grid_f,
        grid_prefix=grid_prefix,
        grid_g=grid_g,
        total_integral=total,
    )
    # G' = (1 - G)(beta + lambda G), so G is a CDF only while beta + lambda G >= 0.
    # Past the last knot beta is constant and G only rises, so [0, t_knot] suffices.
    slope = spec.value(grid_t) + params.lam * grid_g
    bad = np.nonzero(slope < 0)[0]
    if bad.size:
        i = bad[0]
        raise BetaOutOfRange(
            f"beta(t) + lambda G(t) is {slope[i]:.6g} < 0 at t={grid_t[i]:.6g}: "
            "the service CDF G would decrease there"
        )
    return ctx


def riccati_service_atom(ctx: KernelContext) -> float:
    """G(0) = (lambda*I + e^{-rho} - 1)/(lambda*I)."""
    lam_i = ctx.params.lam * ctx.total_integral
    return (lam_i + ctx.params.exp_neg_rho - 1.0) / lam_i


def riccati_service_cdf(ctx: KernelContext, t) -> float | np.ndarray:
    """G(t) = 1 - (1/lambda)(1-e^{-rho}) f(t) / (I - (1-e^{-rho}) int_0^t f)."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise NegativeTime("t must be >= 0")
    scalar = tt.ndim == 0
    g = _service_cdf(ctx.params, ctx.total_integral, ctx.kernel(tt), ctx.prefix_integral(tt))
    return float(g) if scalar else g


def _service_cdf(params: QueueParams, total: float, f, prefix):
    """G from kernel values f and their prefix integrals."""
    one_m_q0 = 1.0 - params.exp_neg_rho
    return 1.0 - one_m_q0 * f / (params.lam * (total - one_m_q0 * prefix))


def riccati_service_quantile(ctx: KernelContext, u) -> float | np.ndarray:
    """Inverse of riccati_service_cdf, vectorised over u in [0, 1); exactly 0 for u <= G(0).

    Past the last knot f is exponential and G inverts in closed form (at
    t_knot = 0 this is closed_form.service_quantile).  Below G(t_knot) the
    certified grid values of G bracket u, linear interpolation starts, and two
    Newton steps with G' = (1 - G)(beta + lambda G), clipped to the bracket,
    finish.
    """
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu < 1.0)):
        raise ProbabilityOutOfRange(f"u must be in [0, 1), got {u}")
    lam, q0, r = ctx.params.lam, ctx.params.exp_neg_rho, ctx.tail_rate
    t = np.zeros_like(uu)
    g0, g_knot = riccati_service_cdf(ctx, np.array([0.0, ctx.t_knot]))
    live = uu > g0
    body = live & (uu < g_knot)  # empty for constant beta, where t_knot = 0
    tail = live & ~body
    v = (1.0 - uu[tail]) * lam
    f_end = ctx.kernel(ctx.t_knot)
    t[tail] = ctx.t_knot + np.log(
        (1.0 - q0) * f_end * (r - v) / (v * q0 * ctx.total_integral * r)) / r
    if np.any(body):
        ub = uu[body]
        i = np.searchsorted(ctx.grid_g, ub)
        lo = ctx.grid_t[np.maximum(i - 1, 0)]
        hi = ctx.grid_t[np.minimum(i, ctx.grid_t.size - 1)]
        tb = np.interp(ub, ctx.grid_g, ctx.grid_t)
        for _ in range(2):
            g = riccati_service_cdf(ctx, tb)
            dens = (1.0 - g) * (ctx.vbeta.spec.value(tb) + lam * g)
            step = np.divide(g - ub, dens, out=np.zeros_like(tb), where=dens > 0)
            tb = np.clip(tb - step, lo, hi)
        t[body] = tb
    t = np.maximum(t, 0.0)
    return float(t) if uu.ndim == 0 else t
