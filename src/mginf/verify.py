"""Cross-validation checks tying the four computation routes together.

Each check takes a ServiceLaw and compares two independent routes to the
same quantity (closed form, kernel evaluation, Laplace transform, grid
solution of the convolution equation, Monte Carlo) at a fixed tolerance.
Every law, the degenerate endpoint beta = -lambda included, has a kernel,
so every check runs there too; the bound-ordering grid reaches past every
floor crossing, the Riccati grid spans the service law's own scale
1/(lambda + max|beta|).  Each gate is a module constant.
The series and Monte Carlo checks share the law's (B, Z) grids, so each
law's busy-period equation is solved once.  Used by the CLI `verify`
subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from .law import ServiceLaw
from .params import beta_bounds
from .simulate import empirical_cdf, ks_distance, run_cycles
from .transforms import (
    LaplacePoint, busy_period_laplace_from_service, busy_period_laplace_general,
)

# Transform arguments in units of lambda: the checks evaluate at s = c * lambda,
# so they probe the same part of each law whatever the time scale.
TRANSFORM_S_POINTS = (0.1, 0.5, 1.0, 2.0, 5.0)

# False-alarm rate of each Monte Carlo KS check: the gate is the DKW critical
# value sqrt(ln(2/KS_ALPHA) / (2 n)), since P(KS > x) <= 2 exp(-2 n x^2).
KS_ALPHA = 1e-6

SERIES_TOL = 1e-3  # sup |series - closed form| of B and of Z
TRANSFORM_TOL = 1e-5  # |kernel form - other route| of the busy-period transform
MEAN_REL_TOL = 1e-6  # relative error of each mean
RICCATI_TOL = 1e-3  # the Riccati residual, in units of lambda
RICCATI_POINTS = 100  # samples of that residual
BOUND_POINTS = 5000  # samples of the bound-ordering grid
BOUND_SLACK = 1e-9  # rounding slack by which a curve may cross a bound


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


def riccati_residual(law: ServiceLaw) -> float:
    """Max defect of the service-CDF ODE dG/dt = -lam*G^2 - (beta-lam)*G + beta, in units of lam.

    The horizon t_knot + 30/(lam + max|beta|) is the service law's own scale,
    where 1 - G is still far above rounding at any rho; with the difference
    step 1e-5/lam the residual does not change when
    (lam, beta, t) -> (c lam, c beta, t/c).
    """
    lam = law.params.lam
    t_max = law.t_knot + 30.0 / (lam + law.spec.max_abs)
    ts = np.linspace(t_max / RICCATI_POINTS, t_max, RICCATI_POINTS)
    eps = 1e-5 / lam
    dg = (law.cdf(ts + eps) - law.cdf(ts - eps)) / (2 * eps)
    g = law.cdf(ts)
    b = law.indicator(ts)
    rhs = -lam * g**2 - (b - lam) * g + b
    return float(np.max(np.abs(dg - rhs))) / lam


def check_series_vs_closed_form(law: ServiceLaw) -> list[CheckResult]:
    b_grid, z_grid = law.series
    ts, beta = b_grid.times, law.spec.constant
    db = float(np.max(np.abs(b_grid.values - cf.busy_period_cdf(law.params, beta, ts))))
    dz = float(np.max(np.abs(z_grid.values - cf.busy_cycle_cdf(law.params, beta, ts))))
    return [
        _result("busy period: series vs closed form", db < SERIES_TOL, f"sup distance {db:.2e}"),
        _result("busy cycle: series vs closed form", dz < SERIES_TOL, f"sup distance {dz:.2e}"),
    ]


def check_series_envelope(law: ServiceLaw) -> list[CheckResult]:
    """Series B and Z against envelope_bounds on the law's grid, past t = 0."""
    b_grid, z_grid = law.series
    ts = b_grid.times[1:]
    env = cf.envelope_bounds(law.params, ts)
    slack = 1e-9 + 2e-3  # series curves carry O(h^2) discretization error
    ok = (np.all(b_grid.values[1:] >= env.bp_floor - slack)
          and np.all(z_grid.values[1:] >= env.cycle_floor - slack)
          and np.all(z_grid.values[1:] <= env.cycle_ceiling + slack))
    return [_result("envelope bounds on series curves", bool(ok),
                    f"{b_grid.values.size}-point grid")]


def kernel_form_transform(law: ServiceLaw) -> list[LaplacePoint]:
    """The kernel-form busy-period transform at s = c * lambda, c in TRANSFORM_S_POINTS."""
    return [busy_period_laplace_general(law, c * law.params.lam) for c in TRANSFORM_S_POINTS]


def check_transform_consistency(law: ServiceLaw,
                                kernel_form: list[LaplacePoint]) -> list[CheckResult]:
    """`kernel_form_transform` against nested quadrature of G at the same points, in one pass."""
    direct = busy_period_laplace_from_service(law, [lp.s for lp in kernel_form])
    worst = max(abs(k.value - d.value) for k, d in zip(kernel_form, direct))
    return [_result("busy period transform: kernel form vs nested quadrature",
                    worst < TRANSFORM_TOL, f"max |diff| {worst:.2e}")]


def check_transform_mixture(law: ServiceLaw, kernel_form: list[LaplacePoint]) -> list[CheckResult]:
    """`kernel_form_transform` against the closed form's atom plus exponential."""
    g0 = law.atom
    mu = law.params.exp_neg_rho * (law.params.lam + law.spec.constant)
    worst = max(abs(lp.value - (g0 + (1.0 - g0) * mu / (lp.s + mu))) for lp in kernel_form)
    return [_result("busy period transform: vs analytic exponential mixture",
                    worst < TRANSFORM_TOL, f"max |diff| {worst:.2e}")]


def check_mean_identities(law: ServiceLaw) -> list[CheckResult]:
    """Means of the law's G, B, Z against rho'/lam, (e^rho' - 1)/lam, e^rho'/lam (Takacs, 1962).

    Each mean is `closed_form.survival_mean` of the law's own curve, with its
    tail rate: r for G, gamma for B and min(lambda, gamma) for Z, or lambda
    where C == 0 and Z is the idle period alone.  rho' = -ln lim p00(t) is rho
    when the kernel integral I is finite and 0 at the degenerate endpoint,
    where 1/I = 0 (p00(inf) itself is 0 * inf there).
    """
    lam = law.params.lam
    rho_eff = law.params.rho if law.inv_total > 0 else 0.0
    gamma, c = law.busy_tail
    targets = {
        "service mean": (law.cdf, law.tail_rate, rho_eff / lam),
        "busy period mean": (law.busy_cdf, gamma, math.expm1(rho_eff) / lam),
        "busy cycle mean": (law.cycle_cdf, min(lam, gamma) if c > 0 else lam,
                            math.exp(rho_eff) / lam),
    }
    out = []
    for name, (cdf, rate, target) in targets.items():
        mean = cf.survival_mean(cdf, rate)
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
    in [1e-3, 14].  The ceiling check always passes.
    """
    lam, (_, hi) = law.params.lam, beta_bounds(law.params)
    r = min(x for x in (law.busy_tail[0], hi, lam) if x > 0.0)
    t_max = max(12.0 * math.exp(law.params.rho) / lam, 40.0 / r)
    ts = np.geomspace(1e-3 / (lam + hi), t_max, BOUND_POINTS)
    env = cf.envelope_bounds(law.params, ts)
    b, z = law.busy_cdf(ts), law.cycle_cdf(ts)
    gaps = {"busy period above exponential floor": np.min(b - env.bp_floor),
            "busy cycle above floor": np.min(z - env.cycle_floor),
            "busy cycle below exponential ceiling": np.min(env.cycle_ceiling - z)}
    return [_result(name, bool(gap >= -BOUND_SLACK), f"min slack {gap:.2e}")
            for name, gap in gaps.items()]


def check_riccati_residual(law: ServiceLaw) -> list[CheckResult]:
    res = riccati_residual(law)
    return [_result("service CDF solves the Riccati ODE", res < RICCATI_TOL,
                    f"max residual {res:.2e}")]


def check_monte_carlo(law: ServiceLaw, n_cycles: int, seed: int) -> list[CheckResult]:
    """KS of busy, cycle and idle samples at the DKW gate for KS_ALPHA, plus two 3-stderr gates."""
    samples = run_cycles(law.params, law.quantile, n_cycles, seed)
    ks_busy = ks_distance(empirical_cdf(samples.busy), law.busy_cdf)
    ks_cycle = ks_distance(empirical_cdf(samples.cycle), law.cycle_cdf)
    ks_idle = ks_distance(empirical_cdf(samples.idle), law.idle_cdf)
    ks_tol = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n_cycles))
    atom = law.atom
    zero_frac = float(np.mean(samples.busy == 0.0))
    tol_atom = 3.0 * math.sqrt(max(atom * (1.0 - atom), 1e-12) / n_cycles)
    if samples.busy.std() == 0.0 or samples.idle.std() == 0.0:
        corr = 0.0  # degenerate: busy identically zero
    else:
        corr = float(np.corrcoef(samples.busy, samples.idle)[0, 1])
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

    The closed-form checks run when beta is constant, the degenerate endpoint
    included; for tabulated beta they are reported as SKIP and the series
    curves are checked against the envelopes instead.  The kernel-form
    transform is formed once, for both transform checks.
    """
    kernel_form = kernel_form_transform(law)
    if law.spec.constant is None:
        no_closed_form = "no closed form for tabulated beta"
        head = ([CheckResult("series vs closed form", "SKIP", no_closed_form)]
                + check_series_envelope(law))
        mixture = [CheckResult("busy period transform: vs analytic exponential mixture",
                               "SKIP", no_closed_form)]
    else:
        head = (check_series_vs_closed_form(law) + check_mean_identities(law)
                + check_bound_ordering(law))
        mixture = check_transform_mixture(law, kernel_form)
    return (head + check_transform_consistency(law, kernel_form) + mixture
            + check_riccati_residual(law) + check_monte_carlo(law, n_cycles, seed))
