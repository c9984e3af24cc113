"""One service law per (lambda, rho, beta): its kernel, and the laws B and Z it drives.

Everything is driven by the kernel f(t) = exp(-lambda*t - int_0^t beta(u)du),
normalised by its integral I = int_0^inf f: with phi = f/I and the prefix
mass Phi = int_0^t f / I,

    G = 1 - (1 - e^{-rho}) phi / (lambda p00),  p00 = e^{-rho} + (1 - e^{-rho})(1 - Phi).

Beyond the last beta knot the kernel is exactly exponential with rate
r = lambda + beta(inf), so f, p00 and G are closed form there, with no beta
integral, and G inverts in closed form; only [0, t_knot] is numeric, and for
constant beta (t_knot = 0) its grid is the one node 0.  Every admissible beta,
constant, tabulated or the degenerate endpoint beta = -lambda, is one law: at r = 0 the
integral diverges, 1/I is exactly 0, so phi == Phi == 0 and G == 1, the limit
of the formula above.  B and Z take one path too: the series grids at the
law's step up to T, where they meet the exponential tail 1 - B ~ C e^{-gamma t},
and that tail, closed form, past T, exact from T = 0 when t_knot = 0.  (gamma, C)
solve the renewal equation's characteristic equation in the kernel's Laplace
transform, whose Simpson sums on the kernel grid also give the kernel-form
busy-period transform; the grids are solved once per law, on first use.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import closed_form as cf
from . import transforms
from .errors import (BetaOutOfRange, GridTooLarge, NonFiniteParameter, ProbabilityOutOfRange,
                     StepTooCoarse)
from .params import BetaSpec, QueueParams, validate_beta
from .transforms import MAX_GRID_POINTS, GridFunction, default_step


# Rounding slack of the certificate beta + lambda G >= 0, in ulps of lambda: at
# rho = 36 a flat table equal to an admissible constant reaches -3 ulps.
CERT_ULPS = 8


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Weights of a fourth-order sum over n >= 3 samples at spacing h; one sample weighs 0.

    Composite Simpson, with Simpson's 3/8 rule on the last three cells when
    the cells are odd in number (a 4096-point block always is).
    """
    cells = n - 1
    m = cells - 3 * (cells % 2)  # the cells under Simpson's rule, an even number
    w = np.zeros(n)
    if m:
        w[:m + 1:2], w[1:m:2] = 2.0 * h / 3.0, 4.0 * h / 3.0
        w[0] = w[m] = h / 3.0
    if m < cells:
        w[m:] += 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


class ServiceLaw:
    """Service CDF G, its quantile and atom, p00, beta(t), and the laws B and Z.

    `cdf`, `p00`, `indicator`, `busy_cdf`, `cycle_cdf` and `idle_cdf` are
    vectorised over t; `quantile`, the inverse of `cdf` (exactly 0 inside the
    atom), is vectorised over u in [0, 1).  At the degenerate endpoint the law
    gives G == 1, atom 1, quantile 0 and p00 == 1.  `indicator` is beta(t)
    itself.  `busy_cdf` and `cycle_cdf` are closed form in `busy_tail` past
    T and interpolate the series grids before it, T = 0 for constant beta.
    With `idle_cdf` they are the reference curves of the Monte Carlo checks.

    The constructor integrates the kernel once on [0, t_knot], with a step
    `grid_h` of at most 1e-3/(lambda + max|beta|), the kernel's own rate: it
    forms log f once on the grid's `nodes` and cell midpoints, for a constant
    the one node 0 with step 0, and f from it.  It caches 1/I,
    f(t_knot), the tail constant m, G(0) and G(t_knot): past t_knot, G, f and
    p00 are closed form in them, not only the quantile.
    With body = int_0^{t_knot} f and f_end = f(t_knot), r I = r body + f_end,
    so 1/I = r/(r body + f_end) and m = f_end/(r body + f_end) are finite for
    every r >= 0.  Before any of this the constructor certifies spec for
    params with `validate_beta`, so every law is admissible for the params it
    holds, and r >= 0: the certificate rejects beta(inf) < -lambda exactly,
    and lambda + beta(inf) then rounds to >= 0.  `step` is that of
    the series grids (by default `default_step`); a step too coarse for the
    kernel's rate raises StepTooCoarse, and without a closed form the first
    block of the series grid is sized here too, so one beyond MAX_GRID_POINTS
    raises GridTooLarge, both before any caller simulates or writes output.
    """

    def __init__(self, params: QueueParams, spec: BetaSpec, step: float | None = None):
        validate_beta(params, spec)
        self.params, self.spec = params, spec
        self.step = default_step(params, spec) if step is None else step
        self.indicator = spec.value
        self.tail_rate = tail_rate = params.lam + spec.tail_rate()  # r
        self.t_knot = t_knot = spec.last_knot  # the kernel is exponential beyond it
        rate = params.lam + spec.max_abs
        if self.step * rate > 0.01 * (1 + 1e-9):
            raise StepTooCoarse(f"step {self.step} too coarse for rates up to {rate}")
        # n Simpson cells on [0, t_knot], none for constant beta, whose grid is the node 0;
        # log f = -lambda t - int_0^t beta is formed once on the nodes, then the cell midpoints
        cells = 1e3 * t_knot * rate
        if cells > MAX_GRID_POINTS - 1:
            raise GridTooLarge(f"kernel grid on [0, {t_knot:g}] needs {cells:.3g} cells, "
                               f"more than {MAX_GRID_POINTS} points")
        n = max(math.ceil(cells), 100) if cells else 0
        self.grid_h = h = t_knot / max(n, 1)
        self.grid_t = ts = np.linspace(0.0, t_knot, n + 1)
        self.nodes = np.concatenate([ts, ts[:-1] + 0.5 * h])
        self.log_f = self._log_kernel(self.nodes)
        self.node_f = np.exp(self.log_f)
        self.grid_f, self.grid_fm = self.node_f[:n + 1], self.node_f[n + 1:]
        # int_0^{grid_t} f and int_{grid_t}^{t_knot} f from the same Simpson cells
        cells = h / 6.0 * (self.grid_f[:-1] + 4.0 * self.grid_fm + self.grid_f[1:])
        self.grid_prefix = np.concatenate([[0.0], np.cumsum(cells)])
        self.grid_suffix = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
        # the body mass from the reverse sum, small cells first: the forward sum of a
        # flat table to t = 40 ends 4e-14 short, which puts G(0) at -4e-14
        body, f_end = float(self.grid_suffix[0]), float(self.grid_f[-1])
        transforms.series_block(t_knot, self.step)  # a series grid's first block too large raises
        self.f_knot = f_end
        r_total = tail_rate * body + f_end  # r I
        self.inv_total = inv_total = tail_rate / r_total  # 1/I; exactly 0 when r = 0
        self.tail_mass = f_end / r_total  # Phi(t) = 1 - m e^{-r (t - t_knot)} past t_knot
        every = np.arange(self.grid_t.size)
        self.grid_g = self._service_cdf(self.grid_f.copy(),
                                        self._body_p00(every, np.zeros(every.size)))
        self.atom = float(self._service_cdf(np.ones(1), np.ones(1))[0])  # f(0) = 1, p00(0) = 1
        self.g_knot = self.cdf(t_knot)  # with the tail form of p00, as everywhere from t_knot on
        # G' = (1 - G)(beta + lambda G), so G is a CDF only while beta + lambda G >= 0.
        # Past the last knot beta is constant and G only rises, so [0, t_knot] suffices.
        # G is formed to a few ulps of 1 and |beta| <= lambda, so the floor allows
        # CERT_ULPS ulps of lambda for rounding.
        slope = spec.value(self.grid_t) + params.lam * self.grid_g
        self.grid_dg = (1.0 - self.grid_g) * slope  # G' on the grid, for the quantile
        floor = -CERT_ULPS * np.spacing(params.lam)
        bad = np.nonzero(slope < floor)[0]
        if bad.size:
            i = bad[0]
            raise BetaOutOfRange(
                f"beta(t) + lambda G(t) is {slope[i]:.6g} < {floor:.3g} at t={self.grid_t[i]:.6g}: "
                "the service CDF G would decrease there"
            )

    def _log_kernel(self, t: np.ndarray) -> np.ndarray:
        """log f(t) = -lambda t - int_0^t beta, exact for every t >= 0, in a fresh array."""
        log_f = self.spec.cumulative(t)
        return np.subtract(-self.params.lam * t, log_f, out=log_f)

    def _kernel(self, t):
        """f and p00 = 1 - (1 - e^{-rho}) Phi on np.atleast_1d(t) >= 0.

        The two results are the only float arrays of len(t) formed: e^x is
        taken in place in the one that becomes f.  Past t_knot both are closed form in
        x = -r (t - t_knot), with no call to `cumulative`: f = f(t_knot) e^x and
        p00 = e^{-rho} + (1 - e^{-rho}) m e^x, two positive terms where
        1 - (1 - e^{-rho}) Phi would cancel down to its own rounding error as
        e^{-rho} shrinks (G is off by 1.9e-4 at rho = 30 that way).  Points
        before t_knot are overwritten from `_body`.
        """
        t = np.atleast_1d(cf.check_time(t))
        f = np.subtract(t, self.t_knot)
        np.maximum(f, 0.0, out=f)
        f *= -self.tail_rate  # x, 0 before t_knot
        np.exp(f, out=f)
        p00 = np.multiply(f, (1.0 - self.params.exp_neg_rho) * self.tail_mass)
        p00 += self.params.exp_neg_rho
        f *= self.f_knot
        body = t < self.t_knot
        if body.any():
            f[body], p00[body] = self._body(t[body])
        return f, p00

    def _body(self, tb: np.ndarray):
        """f and p00 at tb <= t_knot, in fresh arrays.

        f is the exact integrand; the mass up to tb is the certified grid sum
        up to t0, the grid point at or below tb, plus Simpson over [t0, tb].
        """
        fb = np.exp(self._log_kernel(tb))
        idx = np.clip((tb // self.grid_h).astype(int), 0, len(self.grid_t) - 1)
        mid = self.grid_t[idx]  # t0, then the midpoint t0 + dt/2
        dt = tb - mid
        mid += 0.5 * dt
        cell = np.exp(self._log_kernel(mid))  # f there, then dt/6 (f(t0) + 4 f(mid) + f(tb))
        cell *= 4.0
        cell += self.grid_f[idx]
        cell += fb
        cell *= dt / 6.0
        return fb, self._body_p00(idx, cell)

    def _body_p00(self, idx: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """p00 at t = grid_t[idx] + dt <= t_knot, given cell = int_{grid_t[idx]}^t f.

        p00 = 1 - (1 - e^{-rho}) Phi, Phi = (prefix + cell)/I, where that is at
        least 1/2, so the difference cannot cancel.  Below 1/2 it would (to 0
        for a flat table to t = 40 at rho = 40), so there
        p00 = e^{-rho} + (1 - e^{-rho})(1 - Phi), two positive terms, with
        1 - Phi = (suffix - cell)/I + m from the reverse sums of the same cells.
        """
        q0 = self.params.exp_neg_rho
        p00 = 1.0 - (1.0 - q0) * (self.inv_total * (self.grid_prefix[idx] + cell))
        far = np.flatnonzero(p00 < 0.5)
        if far.size:
            rest = self.inv_total * (self.grid_suffix[idx[far]] - cell[far]) + self.tail_mass
            p00[far] = q0 + (1.0 - q0) * rest
        return p00

    def _service_cdf(self, f: np.ndarray, p00: np.ndarray) -> np.ndarray:
        """G = 1 - (1 - e^{-rho}) phi / (lambda p00), phi = f/I, formed in f; p00 is overwritten.

        p00 must not round to 0; NaN passes through.
        """
        if np.fmin.reduce(p00, initial=np.inf) <= 0.0:
            raise NonFiniteParameter(f"p00 = 1 - (1 - e^-rho) Phi(t) rounds to 0 at rho = "
                                     f"{self.params.rho:g}: G cannot be evaluated this far out")
        f *= self.inv_total
        f *= 1.0 - self.params.exp_neg_rho
        p00 *= self.params.lam
        f /= p00
        return np.subtract(1.0, f, out=f)

    def kernel(self, t) -> float | np.ndarray:
        """f(t) = exp(-lambda t - int_0^t beta(u) du); f(t_knot) e^{-r (t - t_knot)} past t_knot."""
        return cf.float_if_scalar(t, self._kernel(t)[0])

    def cdf(self, t) -> float | np.ndarray:
        """G(t) = 1 - (1 - e^{-rho}) phi(t) / (lambda p00(t))."""
        return cf.float_if_scalar(t, self._service_cdf(*self._kernel(t)))

    def quantile(self, u) -> float | np.ndarray:
        """Inverse of `cdf`, vectorised over u in [0, 1); exactly 0 for u <= G(0).

        Past the last knot 1 - Phi = m e^{-r (t - t_knot)} and phi = r m e^{-r (t - t_knot)},
        so G inverts in closed form.  That one expression runs over every u, with
        no gather or scatter.  Its logarithm's argument is clamped to at least 1:
        log 1 = 0 clamps t at t_knot, and no lane, not even one inside the atom,
        takes the logarithm's slow path for arguments <= 0.  u <= G(0) is set to
        0 after it.  At t_knot = 0, where m = 1, it is closed_form.service_quantile
        bit for bit.  Below G(t_knot) the certified grid values of G enclose u:
        the cubic Hermite interpolant of G on the enclosing cell, with
        G' = (1 - G)(beta + lambda G) at its ends, is inverted by two Newton
        steps from the chord, and one Newton step on the exact G, clipped to the
        cell, finishes.
        """
        uu = np.asarray(u, dtype=float)
        if uu.size and not (uu.min() >= 0.0 and uu.max() < 1.0):  # NaN fails both
            raise ProbabilityOutOfRange(f"u must be in [0, 1), got {u}")
        lam, q0, r = self.params.lam, self.params.exp_neg_rho, self.tail_rate
        u1 = np.atleast_1d(uu)
        with np.errstate(all="ignore"):  # everywhere at r = 0
            v = np.subtract(1.0, u1)
            v *= lam
            t = np.subtract(r, v)
            t *= (1.0 - q0) * self.tail_mass
            v *= q0
            t /= v
            np.maximum(t, 1.0, out=t)
            np.log(t, out=t)
            t /= r
            if self.t_knot > 0:
                t += self.t_knot
            t = np.where(u1 > self.atom, t, 0.0)  # branch-free: faster than a masked copyto
        if self.t_knot > 0:  # tables: u below G(t_knot) inverts on the kernel grid
            body = (u1 > self.atom) & (u1 < self.g_knot)
            if np.any(body):
                t[body] = self._body_quantile(u1[body])
        return cf.float_if_scalar(u, t)

    def _body_quantile(self, ub: np.ndarray) -> np.ndarray:
        """G^{-1}(ub) for G(0) < ub < G(t_knot): invert a Hermite cubic, then a Newton step on G."""
        i = np.clip(np.searchsorted(self.grid_g, ub) - 1, 0, self.grid_t.size - 2)
        lo, hi = self.grid_t[i], self.grid_t[i + 1]  # the cell enclosing ub
        h = self.grid_h
        g0 = self.grid_g[i]
        dg = self.grid_g[i + 1] - g0
        d0, d1 = h * self.grid_dg[i], h * self.grid_dg[i + 1]
        # G(lo + s h) - g0 = s (d0 + s (c2 + s c3)) on s in [0, 1]
        c2, c3 = 3.0 * dg - 2.0 * d0 - d1, d0 + d1 - 2.0 * dg
        y = ub - g0
        s = np.divide(y, dg, out=np.zeros_like(y), where=dg > 0)  # the chord
        for _ in range(2):
            slope = d0 + s * (2.0 * c2 + 3.0 * c3 * s)
            miss = s * (d0 + s * (c2 + s * c3)) - y
            s = np.clip(s - np.divide(miss, slope, out=np.zeros_like(s), where=slope > 0), 0.0, 1.0)
        tb = lo + s * h
        g = self._service_cdf(*self._body(tb))  # tb <= t_knot: the body branch of `cdf`
        dens = (1.0 - g) * (self.indicator(tb) + self.params.lam * g)
        step = np.divide(g - ub, dens, out=np.zeros_like(tb), where=dens > 0)
        return np.clip(tb - step, lo, hi)

    def p00(self, t):
        """p00(t) = 1 - (1 - e^{-rho}) Phi(t), Phi the kernel's prefix mass; see `_kernel`."""
        return cf.float_if_scalar(t, self._kernel(t)[1])

    def idle_cdf(self, t):
        """1 - e^{-lambda t}: the idle period is Exponential(lambda) for every beta."""
        return cf.float_if_scalar(t, -np.expm1(-self.params.lam * cf.check_time(t)))

    @cached_property
    def _simpson(self):
        """Simpson weights of the kernel grid's `nodes`, times 1, t and f.

        h/6 at the two ends, h/3 at interior nodes, 2h/3 at midpoints, and 0
        at a constant's one node.  Also the sums of w f and of w t f.
        """
        n, h = self.grid_t.size, self.grid_h
        weights = np.full(self.nodes.size, h / 3.0)
        weights[[0, n - 1]] = h / 6.0
        weights[n:] = 2.0 * h / 3.0
        tweights = weights * self.nodes
        wf, twf = weights * self.node_f, tweights * self.node_f
        return weights, tweights, wf, twf, wf.sum(), twf.sum()

    def kernel_moments(self, g: float, x: float | None = None) -> tuple[float, float]:
        """L(g) - 1 and L'(g), L(g) = int_0^inf e^{g t} phi(t) dt, for g < r.

        Simpson sums over the kernel grid's cells, plus closed forms past
        t_knot, where f e^{g t} = f_knot e^{g t_knot} e^{-(r - g) u} at
        t_knot + u.  While g t_knot < 1 the body is f (e^{g t} - 1) by expm1,
        with no cancellation, which covers every g <= 0; past it f e^{g t} is
        formed in logs, since f may underflow where e^{g t} would overflow.
        x is r - g, unless `busy_tail` passes its own.  At r = 0: (-1, 0).
        """
        if self.inv_total == 0.0:
            return -1.0, 0.0
        r, tk, fk = self.tail_rate, self.t_knot, self.f_knot
        weights, tweights, wf, twf, mass, tmass = self._simpson
        with np.errstate(all="ignore"):  # far right of gamma these overflow: busy_tail bisects
            if g * tk < 1.0:
                grow = np.expm1(g * self.nodes)
                body, tbody = (wf * grow).sum(), (twf * grow).sum() + tmass
                knot = fk * math.expm1(g * tk)
            else:
                grow = np.exp(self.log_f + g * self.nodes)
                body, tbody = (weights * grow).sum() - mass, (tweights * grow).sum()
                knot = np.exp(self.log_f[self.grid_t.size - 1] + g * tk) - fk
            x = r - g if x is None else x
            d0 = body + (r * knot + g * fk) / (r * x)
            d1 = tbody + (knot + fk) * (tk / x + 1.0 / x**2)
        return self.inv_total * d0, self.inv_total * d1

    @cached_property
    def busy_tail(self) -> tuple[float, float]:
        """(gamma, C) with 1 - B(t) ~ C e^{-gamma t} as t -> inf.

        1 - B = u/lambda, u = a + a * u, and a = (1 - e^{-rho}) phi has mass
        1 - e^{-rho} < 1, so by the key renewal theorem for defective equations
        (Feller II, XI.6; Asmussen, Applied Probability and Queues, V.7)
        gamma in [0, r) solves (1 - e^{-rho}) L(gamma) = 1 and
        C = 1/(lambda (1 - e^{-rho}) L'(gamma)), with L - 1 and L' from
        `kernel_moments`.  gamma is the root of
        F = (r - g)(e^{-rho} - (1 - e^{-rho})(L - 1)), which keeps e^{-rho}
        beside 1 and is nearly linear while the exponential tail dominates L,
        as (r - g) L stays bounded up to r.  From g = 0, inside a bracket of
        [0, r), a Newton step on the concave F lands right of the root; from
        the right, Newton steps on the convex log((1 - e^{-rho}) L) fall to it
        monotonically, also where e^{g t} over the body dominates L; a step
        that leaves the bracket bisects it.  g and x = r - g are stepped
        apart: near r (small rho) r - g keeps only the bits g leaves, which
        put C, as x^2, off by 6e-17/rho.  For constant beta F is linear: the
        first step gives gamma = (lambda + beta) e^{-rho}, C = 1 - G(0), the
        closed form to rounding.  At r = 0, 1/I = 0 and a = 0: (0, 0).

        A step that reaches r finds the root where g rounds to r and only x
        can hold it (the tail's share of L below rounding: f(t_knot) = 1.7e-98
        puts it 1e-97 below r = 4.33).  At g = r, L - 1 is the body sum A plus
        the tail term E/x, E = e^{r t_knot} f(t_knot)/I, so the root is
        x = (1 - e^{-rho}) E / (e^{-rho} - (1 - e^{-rho}) A), and C takes
        L' at that same x; gamma is r.  Where E underflows (f(t_knot) = e^{-751}
        does), x rounds to +0 with a positive denominator: gamma is r to double
        precision and C = x/(lambda (e^{-rho} - (1 - e^{-rho}) A)) rounds to 0.
        """
        if self.inv_total == 0.0:
            return 0.0, 0.0
        r = self.tail_rate
        q0 = self.params.exp_neg_rho
        w = 1.0 - q0
        g, x, lo, hi = 0.0, r, (0.0, r), (r, 0.0)  # the bracket's ends as (g, x)
        with np.errstate(all="ignore"):  # a non-finite step bisects
            for _ in range(100):
                d0, d1 = self.kernel_moments(g, x)
                num = q0 - w * d0  # F/(r - g)
                if num > 0.0:  # left of the root: Newton on F, concave, lands right of it
                    lo = g, x
                    slope = x * w * d1
                    step = x * num / (num + slope)
                    x *= slope / (num + slope)
                else:  # right of it: Newton on log((1 - e^{-rho}) L), convex, so monotone
                    hi = g, x
                    step = -(np.log1p(d0) + np.log1p(-q0)) * (1.0 + d0) / d1
                    x -= step
                g += step
                if g >= r:  # the root may lie below the resolution of r: solve x at g = r
                    tail = self.inv_total * math.exp(r * self.t_knot
                                                     + self.log_f[self.grid_t.size - 1])
                    den = q0 - w * self.kernel_moments(r, math.inf)[0]
                    x = w * tail / den
                    if x == 0.0 and den > 0.0:  # the tail term underflowed: so do x and C
                        return float(r), 0.0
                    if 0.0 < x and r - x == r:
                        g, d1 = r, self.kernel_moments(r, x)[1]
                        break
                elif abs(step) <= 1e-12 * g:  # converging quadratically: g is good to rounding
                    break  # (F may round to 0 there, and the last step leave [lo, hi] by rounding)
                if not lo[0] < g < hi[0]:
                    g, x = 0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])
        # L' from before the last step, which moved g by 1e-12 of itself at most, or at x
        return float(g), float(1.0 / (self.params.lam * w * d1))

    @cached_property
    def series(self) -> tuple[GridFunction, GridFunction]:
        """(B, Z) at the law's step, both fourth order (`transforms`), solved once."""
        # looked up on the module at call time, so a wrapper put there sees every solve
        b = transforms.busy_period_cdf_series(self)
        return b, transforms.busy_cycle_cdf_series(self, b)

    def busy_cdf(self, t):
        """B(t) = 1 - C e^{-gamma t} past T, (gamma, C) from `busy_tail`; see `_past_grid`."""
        gamma, c = self.busy_tail
        return self._past_grid(0, t, lambda u, end, _: 1.0 - c * np.exp(-gamma * (u + end)))

    def cycle_cdf(self, t):
        """Z(t) = 1 - `cf.cycle_survival` past T, weight lambda C e^{-gamma T} and idle 1 - Z(T)."""
        gamma, c = self.busy_tail
        lam = self.params.lam
        return self._past_grid(1, t, lambda u, end, z_end: 1.0 - cf.cycle_survival(
            lam, gamma, c * lam * math.exp(-gamma * end), 1.0 - z_end, u))

    def survival_transforms(self, s) -> tuple[np.ndarray, np.ndarray]:
        """L[1 - B](s) and L[1 - Z](s), int_0^inf e^{-s t} (1 - F(t)) dt, at each s >= 0.

        The series grids on [0, T], T the walked grid's end for every law
        (constants too), by `simpson_weights`; past T the closed tails
        C e^{-(s + gamma) T}/(s + gamma) for B and
        e^{-s T} (idle/(s + lambda) + weight/((s + lambda)(s + gamma))) for Z,
        with `cycle_cdf`'s weight lambda C e^{-gamma T} and idle 1 - Z(T); the
        C terms are 0 where C == 0.  At s = 0 these are the means of B and Z.
        """
        s = transforms.laplace_points(s)
        b, z = self.series
        ts = b.times
        w = simpson_weights(ts.size, b.step)
        wb, wz = w * (1.0 - b.values), w * (1.0 - z.values)
        lb, lz = np.empty_like(s), np.empty_like(s)
        for i, x in enumerate(s):  # one decay at a time: the grids may hold millions of points
            decay = np.exp(-x * ts)
            lb[i], lz[i] = wb @ decay, wz @ decay
        lam, (gamma, c), end = self.params.lam, self.busy_tail, ts[-1]
        decay = np.exp(-s * end)
        lz += decay * (1.0 - z.values[-1]) / (s + lam)
        if c > 0.0:
            tail = c * math.exp(-gamma * end) * decay / (s + gamma)  # B's tail
            lb += tail
            lz += lam * tail / (s + lam)
        return lb, lz

    def _past_grid(self, curve: int, t, tail):
        """series[curve] interpolated on [0, T], and tail(t - T, T, Z(T)) past T (and at NaN).

        T is the walked grid's end, where the grid meets its exponential tail;
        at t_knot = 0 the tail is exact from t = 0, T = 0, and nothing walks.
        The tail is evaluated only past T: before T its terms e^{|lambda - gamma| (T - t)}
        may overflow.
        """
        tt = np.atleast_1d(cf.check_time(t))
        if self.t_knot == 0:
            return cf.float_if_scalar(t, tail(tt, 0.0, 0.0))
        grid = self.series[curve]
        end = (grid.values.size - 1) * grid.step
        out = np.empty(tt.shape)
        body = tt <= end
        out[body] = np.interp(tt[body], grid.times, grid.values)
        out[~body] = tail(tt[~body] - end, end, self.series[1].values[-1])
        return cf.float_if_scalar(t, out)
