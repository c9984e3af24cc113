"""Cross-validation checks tying the four computation routes together.

Each check takes a ServiceLaw and compares two independent routes to the
same quantity (kernel evaluation, Laplace transform, grid solution of the
convolution equation, Takacs's means, Monte Carlo) at a fixed tolerance.
Every law, constant, tabulated or the degenerate endpoint beta = -lambda,
runs the same checks on its own grids; the bound-ordering grid reaches past
every floor crossing, the Riccati grid spans the service law's own scale
1/(lambda + max|beta|).  Each gate is a module constant.
The series, tail, mean and Monte Carlo checks share the law's (B, Z) grids, so each
law's busy-period equation is solved once.  Used by the CLI `verify`
subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from .law import ServiceLaw, simpson_weights
from .params import beta_bounds
from .simulate import busy_idle_correlation, cycle_ks, run_cycles
from .transforms import (
    busy_cycle_laplace, busy_period_laplace_from_service, busy_period_laplace_general,
)

# Transform arguments in units of lambda: the checks evaluate at s = c * lambda,
# so they probe the same part of each law whatever the time scale.
TRANSFORM_S_POINTS = (0.1, 0.5, 1.0, 2.0, 5.0)

# False-alarm rate of each Monte Carlo KS check: the gate is the DKW critical
# value sqrt(ln(2/KS_ALPHA) / (2 n)), since P(KS > x) <= 2 exp(-2 n x^2).
KS_ALPHA = 1e-6

TRANSFORM_TOL = 1e-5  # |kernel form - other route| of the busy-period or busy-cycle transform
MEAN_REL_TOL = 1e-6  # relative error of each mean
RICCATI_TOL = 1e-3  # the Riccati residual, in units of lambda
RICCATI_POINTS = 100  # samples of that residual
BOUND_POINTS = 5000  # samples of the bound-ordering grid
BOUND_SLACK = 1e-9  # rounding slack by which a curve may cross a bound
# |(1 - B(T)) - C e^{-gamma T}| at the walked grid's end T, relative to the tail and absolute.
# Measured on 270 random constants and tables of up to three knots (lambda 1e-3 to 1e3, rho
# 1e-3 to 14, numpy 2.4): at most 1.5e-8 of a tail above 1e-7, the grid's own error, so 1e-7
# is a factor 6.5 above that and a factor 10 below an error of 1e-6 in C.  A steep knot a few
# steps from 0 and between grid points leaves the grid 2.7e-7 off, and this check FAILs it.
# B is stored as 1 - R/lambda, so a tail near ulp(1) = 2.2e-16 keeps only rounding (at most
# 1.3e-16 measured): the absolute term is 4.5 ulps of 1.
TAIL_REL_TOL, TAIL_ABS_TOL = 1e-7, 1e-15
QUANTILE_POINTS = 1024  # u in (atom, 1) at which G(q(u)) is read against u
QUANTILE_TAIL_POINTS = 256  # of them, 1 - 10^-1 ... 1 - 10^-12, log-spaced
ATOM_POINTS = 256  # u in [0, atom] at which q(u) must be 0
# max |G(q(u)) - u|.  Measured (numpy 2.4): at most 1.1e-15 on the 759 laws the tests build,
# 3.4e-14 on a steep table (knots (0,0),(0.0137,0.58),(0.0412,0)) and 2.8e-13 on 3000 random
# tables of up to three knots, the largest in the cell beside a knot between kernel-grid
# nodes; 1e-11 is 35 times that.  beta + 1e-4 inside q alone reads 6.0e-5 to 9.5e-5 at the
# benchmark's three points and 2.2e-8 on tests/test_kernel.py's TAIL_BELOW_R; beta + 0.01
# reads 6e-3 at the benchmark's points.
QUANTILE_TOL = 1e-11


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS / FAIL
    detail: str

    def __str__(self) -> str:
        """The report line: status padded to four characters, name, detail."""
        return f"{self.status:<4} {self.name}: {self.detail}"


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


def riccati_residual(law: ServiceLaw) -> float:
    """Max defect of the service-CDF ODE dG/dt = -lam*G^2 - (beta-lam)*G + beta, in units of lam.

    The horizon t_knot + 30/(lam + max|beta|) is the service law's own scale,
    where 1 - G is still far above rounding at any rho.  The difference step
    1e-5/(lam + max|beta|) is on that scale too: near the upper endpoint
    max|beta| is about lam/rho, and a step of 1e-5/lam read 1.2e-2 at
    rho = 1e-3 where this one reads 1.4e-8.  The residual does not change when
    (lam, beta, t) -> (c lam, c beta, t/c).
    """
    lam = law.params.lam
    rate = lam + law.spec.max_abs
    t_max = law.t_knot + 30.0 / rate
    ts = np.linspace(t_max / RICCATI_POINTS, t_max, RICCATI_POINTS)
    eps = 1e-5 / rate
    dg = (law.cdf(ts + eps) - law.cdf(ts - eps)) / (2 * eps)
    g = law.cdf(ts)
    b = law.indicator(ts)
    rhs = -lam * g**2 - (b - lam) * g + b
    return float(np.max(np.abs(dg - rhs))) / lam


def check_series_transform(law: ServiceLaw, s: np.ndarray,
                           kernel_form: np.ndarray) -> list[CheckResult]:
    """The series grids' transforms 1 - s L[1 - F](s) against the kernel form at each s.

    L[1 - B] and L[1 - Z] are `ServiceLaw.survival_transforms`; B's is compared
    with `kernel_form`, `busy_period_laplace_general` at s, Z's with
    `busy_cycle_laplace` of it.
    """
    lb, lz = law.survival_transforms(s)
    db = np.max(np.abs(1.0 - s * lb - kernel_form))
    dz = np.max(np.abs(1.0 - s * lz - busy_cycle_laplace(law.params, s, kernel_form)))
    return [_result("busy period: series vs transform", db < TRANSFORM_TOL, f"max |diff| {db:.2e}"),
            _result("busy cycle: series vs transform", dz < TRANSFORM_TOL, f"max |diff| {dz:.2e}")]


def check_transform_consistency(law: ServiceLaw, s: np.ndarray,
                                kernel_form: np.ndarray) -> list[CheckResult]:
    """The kernel form at each s against nested quadrature of G at the same points, in one pass."""
    worst = np.max(np.abs(kernel_form - busy_period_laplace_from_service(law, s)))
    return [_result("busy period transform: kernel form vs nested quadrature",
                    worst < TRANSFORM_TOL, f"max |diff| {worst:.2e}")]


def check_busy_tail(law: ServiceLaw) -> list[CheckResult]:
    """The walked grid's 1 - B(T) against the tail C e^{-gamma T} of `ServiceLaw.busy_tail`.

    T is the grid's end, where the walk met its tail; past T, B is that tail,
    for a constant from t = 0.  So (gamma, C) are read against a grid they
    did not build, which they meet to the grid's error.
    """
    b = law.series[0]
    gamma, c = law.busy_tail
    tail = c * math.exp(-gamma * (b.values.size - 1) * b.step)
    gap, gate = abs(1.0 - b.values[-1] - tail), TAIL_REL_TOL * tail + TAIL_ABS_TOL
    return [_result("busy period tail meets its grid", gap <= gate,
                    f"|diff| {gap:.2e} <= {gate:.2e}")]


def check_mean_identities(law: ServiceLaw) -> list[CheckResult]:
    """Means of the law's G, B, Z against rho'/lam, (e^rho' - 1)/lam, e^rho'/lam (Takacs, 1962).

    The means of B and Z are `ServiceLaw.survival_transforms` at s = 0.  The
    service mean is the same fourth-order sum of 1 - G over the kernel grid on
    [0, t_knot], plus (ln p00(t_knot) + rho')/lambda past the knot, since
    p00(t) = exp(-lambda int_0^t (1 - G)); at constant beta (t_knot = 0,
    p00(0) = 1) it is rho'/lambda exactly.  rho' = -ln lim p00(t) is rho
    when the kernel integral I is finite and 0 at the degenerate endpoint,
    where 1/I = 0 (p00(inf) itself is 0 * inf there).
    """
    lam = law.params.lam
    rho_eff = law.params.rho if law.inv_total > 0 else 0.0
    g_mean = (math.log(law.p00(law.t_knot)) + rho_eff) / lam
    g_mean += simpson_weights(law.grid_t.size, law.grid_h) @ (1.0 - law.grid_g)
    (b_mean,), (z_mean,) = law.survival_transforms(0.0)
    targets = {
        "service mean": (g_mean, rho_eff / lam),
        "busy period mean": (b_mean, math.expm1(rho_eff) / lam),
        "busy cycle mean": (z_mean, math.exp(rho_eff) / lam),
    }
    out = []
    for name, (mean, target) in targets.items():
        err = abs(mean - target)
        out.append(_result(f"{name} = analytic target", err <= MEAN_REL_TOL * target,
                           f"|{mean:.10g} - {target:.10g}| = {err:.2e}"))
    return out


def check_bound_ordering(law: ServiceLaw) -> list[CheckResult]:
    """B and Z against envelope_bounds on BOUND_POINTS log-spaced t out to every floor crossing.

    The grid runs from 1e-3/(lambda + hi), hi = lambda/(e^rho - 1), to
    max(12 e^rho/lambda, 40/r), r the least positive of gamma, hi and lambda:
    past 40/r, 1 - B, 1 - Z and both floors' survivals are below 41 e^{-40},
    so no crossing deeper than the slack lies beyond.  The floors are the laws
    at the upper endpoint, which every interior law of equal mean crosses; a
    floor FAILs where its crossing exceeds the slack.  So both PASS at the
    endpoints; from 1 % of the range inside either end both FAIL at every rho
    in [1e-3, 14].  A table reports the smaller floor gap on one line.  The
    ceiling check always passes.
    """
    lam, (_, hi) = law.params.lam, beta_bounds(law.params)
    r = min(x for x in (law.busy_tail[0], hi, lam) if x > 0.0)
    t_max = max(12.0 * math.exp(law.params.rho) / lam, 40.0 / r)
    ts = np.geomspace(1e-3 / (lam + hi), t_max, BOUND_POINTS)
    env = cf.envelope_bounds(law.params, ts)
    b, z = law.busy_cdf(ts), law.cycle_cdf(ts)
    gaps = {"busy period above exponential floor": np.min(b - env.bp_floor),
            "busy cycle above floor": np.min(z - env.cycle_floor)}
    if law.spec.constant is None:  # bench/run.py reads a table's floors under this one name
        gaps = {"envelope bounds on series curves": min(gaps.values())}
    gaps["busy cycle below exponential ceiling"] = np.min(env.cycle_ceiling - z)
    return [_result(name, bool(gap >= -BOUND_SLACK), f"min slack {gap:.2e}")
            for name, gap in gaps.items()]


def check_riccati_residual(law: ServiceLaw) -> list[CheckResult]:
    res = riccati_residual(law)
    return [_result("service CDF solves the Riccati ODE", res < RICCATI_TOL,
                    f"max residual {res:.2e}")]


def check_service_quantile(law: ServiceLaw) -> list[CheckResult]:
    """max |G(q(u)) - u| over u in (atom, 1), and q(u) == 0 for u in [0, atom].

    u is even in [0, atom] and in (atom, 1), and 1 - u is log-spaced over
    [1e-12, 1e-1], deep in the tail's closed form, where 1 - u keeps few digits.
    """
    atom = law.atom
    even = np.linspace(atom, 1.0, QUANTILE_POINTS - QUANTILE_TAIL_POINTS + 2)[1:-1]
    u = np.concatenate([np.linspace(0.0, atom, ATOM_POINTS), even,
                        1.0 - np.logspace(-1, -12, QUANTILE_TAIL_POINTS)])
    u = u[(u >= 0.0) & (u < 1.0)]
    t, on_atom = law.quantile(u), u <= atom
    moved = np.count_nonzero(t[on_atom])
    miss = float(np.max(np.abs(law.cdf(t[~on_atom]) - u[~on_atom]), initial=0.0))
    detail = f"max |G(q(u)) - u| {miss:.2e}" + (f", {moved} u <= atom give q > 0" if moved else "")
    return [_result("service quantile inverts its CDF", miss <= QUANTILE_TOL and not moved, detail)]


def check_monte_carlo(law: ServiceLaw, n_cycles: int, seed: int) -> list[CheckResult]:
    """KS of busy, cycle and idle samples at the DKW gate for KS_ALPHA, plus two 3-stderr gates."""
    samples = run_cycles(law.params, law.quantile, n_cycles, seed)
    ks_busy, ks_cycle, ks_idle = cycle_ks(samples, law)
    ks_tol = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n_cycles))
    atom = law.atom
    zero_frac = np.count_nonzero(samples.busy == 0.0) / n_cycles
    tol_atom = 3.0 * math.sqrt(max(atom * (1.0 - atom), 1e-12) / n_cycles)
    corr = busy_idle_correlation(samples)
    corr_tol = 3.0 / math.sqrt(n_cycles)
    return [
        _result("KS(busy period)", ks_busy < ks_tol, f"{ks_busy:.4f} < {ks_tol:.4f}"),
        _result("KS(busy cycle)", ks_cycle < ks_tol, f"{ks_cycle:.4f} < {ks_tol:.4f}"),
        _result("KS(idle period)", ks_idle < ks_tol, f"{ks_idle:.4f} < {ks_tol:.4f}"),
        _result("zero-busy fraction matches atom",
                abs(zero_frac - atom) <= tol_atom,
                f"|{zero_frac:.5f} - {atom:.5f}| <= {tol_atom:.5f}"),
        _result("busy/idle independence", abs(corr) < corr_tol,
                f"|r| = {abs(corr):.5f} < {corr_tol:.5f}"),
    ]


def verify_point(law: ServiceLaw, n_cycles: int, seed: int) -> list[CheckResult]:
    """Run the full cross-validation battery for one service law.

    Every law runs the same checks; the kernel-form transform is formed once,
    at s = c lambda for c in TRANSFORM_S_POINTS, for both transform checks.
    """
    s = law.params.lam * np.array(TRANSFORM_S_POINTS)
    kernel_form = busy_period_laplace_general(law, s)
    return (check_series_transform(law, s, kernel_form) + check_busy_tail(law)
            + check_mean_identities(law) + check_bound_ordering(law)
            + check_transform_consistency(law, s, kernel_form) + check_riccati_residual(law)
            + check_service_quantile(law) + check_monte_carlo(law, n_cycles, seed))
