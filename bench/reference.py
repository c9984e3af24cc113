"""Reference curves the benchmark checks the program's outputs against.

Written from the model's defining formulas with numpy only, so nothing here
shares code with `mginf`:

- constant beta: the closed forms of the service CDF G, the busy-period CDF B
  and the busy-cycle CDF Z;
- tabulated (piecewise-linear) beta: G from the exponential kernel
  f(t) = exp(-lambda t - int_0^t beta), and B, Z from the renewal (Volterra)
  equation B = bracket + lambda (1 - G(0)) f * B solved by forward
  substitution at steps h and h/2, then Richardson-extrapolated.  The
  trapezoidal scheme is second order in h (errors fall 4x per halving), so the
  extrapolated curve is accurate far below the program's own grid error.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre rule for the kernel integral inside one table segment; the
# integrand exp(quadratic) is entire, so 40 nodes reach machine precision on
# segments a few time units long.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


def exp_cdf(lam: float):
    return lambda t: -np.expm1(-lam * np.asarray(t, dtype=float))


class ConstantReference:
    """Closed forms for constant beta (lambda + beta > 0)."""

    def __init__(self, lam: float, rho: float, beta: float):
        q0 = math.exp(-rho)
        self.lam, self.s, self.q0 = lam, lam + beta, q0
        self.atom = 1.0 - (1.0 - q0) * self.s / lam  # G(0) = B(0)
        self.mu = q0 * self.s                         # tail rate of B

    def G(self, t):
        e = np.exp(-self.s * np.asarray(t, dtype=float))
        lam, q0 = self.lam, self.q0
        return 1.0 - (1.0 - q0) * self.s * e / (lam * q0 + lam * (1.0 - q0) * e)

    def B(self, t):
        return 1.0 - (1.0 - self.atom) * np.exp(-self.mu * np.asarray(t, dtype=float))

    def Z(self, t):
        """Z = Exp(lambda) idle density convolved with B, integrated exactly."""
        t = np.asarray(t, dtype=float)
        lam, mu, c = self.lam, self.mu, 1.0 - self.atom
        return -np.expm1(-lam * t) - c * lam * (np.exp(-mu * t) - np.exp(-lam * t)) / (lam - mu)


class TableReference:
    """G, B and Z for a piecewise-linear beta table held constant past its end."""

    def __init__(self, lam: float, rho: float, knots, horizon: float, step: float = 0.0025):
        self.lam, self.q0 = lam, math.exp(-rho)
        self.kt = np.array([k[0] for k in knots], dtype=float)
        self.kb = np.array([k[1] for k in knots], dtype=float)
        seg_c = 0.5 * (self.kb[1:] + self.kb[:-1]) * np.diff(self.kt)
        self.kc = np.concatenate([[0.0], np.cumsum(seg_c)])  # int_0^knot beta
        self.tail = lam + self.kb[-1]
        # prefix integral of f at each knot, then the total integral I
        pre = [0.0]
        for i in range(len(self.kt) - 1):
            pre.append(pre[-1] + self._gl(self.kt[i], np.array([self.kt[i + 1]]))[0])
        self.kpre = np.array(pre)
        self.total = self.kpre[-1] + self.f(self.kt[-1]) / self.tail
        self.atom = (lam * self.total + self.q0 - 1.0) / (lam * self.total)
        self.horizon = horizon
        self.step = step
        b_h, z_h = self._solve(step)
        b_h2, z_h2 = self._solve(step / 2.0)
        self.grid = np.arange(len(b_h)) * step
        self.b_grid = (4.0 * b_h2[::2] - b_h) / 3.0
        self.z_grid = (4.0 * z_h2[::2] - z_h) / 3.0

    def cum_beta(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.kt, t, side="right") - 1, 0, len(self.kt) - 1)
        bt = np.interp(t, self.kt, self.kb)
        return self.kc[i] + 0.5 * (self.kb[i] + bt) * (t - self.kt[i])

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self.lam * t - self.cum_beta(t))

    def _gl(self, a: float, t: np.ndarray) -> np.ndarray:
        """int_a^t f for each t, by Gauss-Legendre on [a, t]."""
        half = 0.5 * (t - a)[:, None]
        nodes = a + half * (1.0 + _GL_X[None, :])
        return (half * _GL_W[None, :] * self.f(nodes)).sum(axis=1)

    def F(self, t):
        """int_0^t f: Gauss-Legendre from the segment start, exact exponential tail."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        last = self.kt[-1]
        past = t >= last
        fe = self.f(last)
        out[past] = self.kpre[-1] + fe * -np.expm1(-self.tail * (t[past] - last)) / self.tail
        inside = ~past
        if np.any(inside):
            ti = t[inside]
            seg = np.searchsorted(self.kt, ti, side="right") - 1
            vals = np.empty_like(ti)
            for k in np.unique(seg):
                m = seg == k
                vals[m] = self.kpre[k] + self._gl(self.kt[k], ti[m])
            out[inside] = vals
        return out

    def G(self, t):
        t = np.asarray(t, dtype=float)
        one_m_q0 = 1.0 - self.q0
        return 1.0 - one_m_q0 * self.f(t) / (self.lam * (self.total - one_m_q0 * self.F(t)))

    def _solve(self, h: float):
        """Trapezoidal Volterra solve for B, then Z = Exp(lambda) * B, on [0, horizon]."""
        n = int(math.ceil(self.horizon / h)) + 1
        ts = np.arange(n) * h
        f = self.f(ts)
        c = 1.0 - self.atom
        bracket = 1.0 - c * (f + self.lam * self.F(ts))
        w = self.lam * c * h
        diag = 1.0 - 0.5 * w * f[0]
        b = np.empty(n)
        rev = np.empty(n)  # rev[n-1-j] = b[j], so b[k-1], ..., b[1] is a forward slice
        b[0] = bracket[0]
        rev[n - 1] = b[0]
        for k in range(1, n):
            conv = np.dot(f[1:k], rev[n - k:n - 1]) + 0.5 * f[k] * b[0]
            b[k] = (bracket[k] + w * conv) / diag
            rev[n - 1 - k] = b[k]
        # trapezoidal convolution with lambda e^{-lambda t} via the running sum
        # S_k = sum_j r^j b[k-j] = b[k] + r S_{k-1}
        r = math.exp(-self.lam * h)
        s = np.empty(n)
        acc = 0.0
        for k in range(n):
            acc = b[k] + r * acc
            s[k] = acc
        z = self.lam * h * (s - 0.5 * b - 0.5 * r ** np.arange(n) * b[0])
        return b, z

    def B(self, t):
        return np.interp(t, self.grid, self.b_grid)

    def Z(self, t):
        return np.interp(t, self.grid, self.z_grid)
