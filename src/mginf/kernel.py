"""General beta(t) evaluation of the Riccati-family service CDF and its inverse.

Everything is driven by the kernel f(t) = exp(-lambda*t - int_0^t beta(u)du),
normalised by its integral I = int_0^inf f: with phi = f/I and the prefix
mass Phi = int_0^t f / I,

    G = 1 - (1 - e^{-rho}) phi / (lambda (1 - (1 - e^{-rho}) Phi)).

Beyond the last beta knot the kernel is exactly exponential with rate
r = lambda + beta(inf), so Phi splits into a numeric part on [0, t_knot] plus
an analytic tail, and G inverts in closed form there; for constant beta
(t_knot = 0) the whole computation is analytic.  Every admissible beta is one
context: at the degenerate endpoint r = 0 the integral diverges, 1/I is
exactly 0, so phi == Phi == 0 and G == 1, the limit of the formula above.
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
    tail_rate: float         # r = lambda + beta(inf) >= 0
    grid_t: np.ndarray       # uniform grid on [0, t_knot] (empty for constant beta)
    grid_f: np.ndarray
    grid_prefix: np.ndarray  # int_0^{grid_t} f
    grid_g: np.ndarray       # G(grid_t), nondecreasing: build_kernel checks G' >= 0
    inv_total: float         # 1/I; exactly 0 when r = 0
    mass_knot: float         # Phi(t_knot)
    tail_mass: float         # m: Phi(t) = 1 - m e^{-r (t - t_knot)} past t_knot (when r > 0)
    atom: float              # G(0)
    g_knot: float            # G(t_knot)

    def kernel(self, t) -> np.ndarray:
        """f(t), evaluated exactly from the cumulative beta integral."""
        tt = np.asarray(t, dtype=float)
        return np.exp(-self.params.lam * tt - self.vbeta.spec.cumulative(tt))

    def prefix_mass(self, t) -> float | np.ndarray:
        """Phi(t) = int_0^t f / I; the tail part m (1 - e^{-r (t - t_knot)}) is finite at r = 0."""
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0):
            raise NegativeTime("t must be >= 0")
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt)
        out = np.empty_like(tt)
        inside = tt < self.t_knot
        if np.any(inside):
            out[inside] = self.inv_total * self._prefix_numeric(tt[inside])
        if np.any(~inside):
            decay = -np.expm1(-self.tail_rate * (tt[~inside] - self.t_knot))
            out[~inside] = self.mass_knot + self.tail_mass * decay
        return float(out[0]) if scalar else out

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
    """Integrate the kernel once and cache 1/I, the tail constant m, G(0) and G(t_knot).

    With body = int_0^{t_knot} f and f_end = f(t_knot), r I = r body + f_end,
    so 1/I = r/(r body + f_end) and m = f_end/(r body + f_end) are finite for
    every r >= 0.  Only r < 0, where f grows, is rejected.
    """
    spec = vbeta.spec
    tail_rate = params.lam + spec.tail_rate()
    t_knot = spec.last_knot
    if tail_rate < 0:
        raise DivergentKernelIntegral(
            f"kernel tail rate lambda + beta(inf) must be >= 0 (got {tail_rate})"
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
        body, f_end = float(grid_prefix[-1]), float(grid_f[-1])
    else:
        grid_t = np.array([])
        grid_f = np.array([])
        grid_prefix = np.array([])
        body, f_end = 0.0, 1.0
    r_total = tail_rate * body + f_end  # r I
    inv_total = tail_rate / r_total
    mass_knot = inv_total * body
    grid_g = _service_cdf(params, inv_total * grid_f, inv_total * grid_prefix)
    ctx = KernelContext(
        params=params,
        vbeta=vbeta,
        t_knot=t_knot,
        tail_rate=tail_rate,
        grid_t=grid_t,
        grid_f=grid_f,
        grid_prefix=grid_prefix,
        grid_g=grid_g,
        inv_total=inv_total,
        mass_knot=mass_knot,
        tail_mass=f_end / r_total,
        atom=float(_service_cdf(params, inv_total, 0.0)),  # f(0) = 1, Phi(0) = 0
        g_knot=float(_service_cdf(params, inv_total * f_end, mass_knot)),
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


def riccati_service_cdf(ctx: KernelContext, t) -> float | np.ndarray:
    """G(t) = 1 - (1 - e^{-rho}) phi(t) / (lambda (1 - (1 - e^{-rho}) Phi(t)))."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise NegativeTime("t must be >= 0")
    scalar = tt.ndim == 0
    g = _service_cdf(ctx.params, ctx.inv_total * ctx.kernel(tt), ctx.prefix_mass(tt))
    return float(g) if scalar else g


def _service_cdf(params: QueueParams, phi, mass):
    """G from normalised kernel values phi and their prefix masses Phi."""
    one_m_q0 = 1.0 - params.exp_neg_rho
    return 1.0 - one_m_q0 * phi / (params.lam * (1.0 - one_m_q0 * mass))


def riccati_service_quantile(ctx: KernelContext, u) -> float | np.ndarray:
    """Inverse of riccati_service_cdf, vectorised over u in [0, 1); exactly 0 for u <= G(0).

    Past the last knot 1 - Phi = m e^{-r (t - t_knot)} and phi = r m e^{-r (t - t_knot)},
    so G inverts in closed form (at t_knot = 0, where m = 1, this is
    closed_form.service_quantile bit for bit).  Below G(t_knot) the certified
    grid values of G bracket u, linear interpolation starts, and two Newton
    steps with G' = (1 - G)(beta + lambda G), clipped to the bracket, finish.
    """
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu < 1.0)):
        raise ProbabilityOutOfRange(f"u must be in [0, 1), got {u}")
    lam, q0, r = ctx.params.lam, ctx.params.exp_neg_rho, ctx.tail_rate
    t = np.zeros_like(uu)
    live = uu > ctx.atom  # empty at the degenerate endpoint, where G(0) = 1
    body = live & (uu < ctx.g_knot)  # empty for constant beta, where t_knot = 0
    tail = live & ~body
    v = (1.0 - uu[tail]) * lam
    t[tail] = ctx.t_knot + np.log((1.0 - q0) * ctx.tail_mass * (r - v) / (v * q0)) / r
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
