"""Cross-validation checks tying the four computation routes together.

Each check takes a ServiceLaw and compares two independent routes to the
same quantity (closed form, kernel evaluation, Laplace transform, grid
solution of the convolution equation, Monte Carlo) at a fixed tolerance.
Every law has a kernel context, the degenerate endpoint beta = -lambda
included, so every check runs there too; time grids are in units of the
law's own mean busy cycle e^rho/lambda.
The series and Monte Carlo checks share the law's (B, Z) grids, so each
law's busy-period equation is solved once.  Used by the CLI `verify`
subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from .kernel import KernelContext, riccati_service_cdf
from .law import ServiceLaw
from .simulate import empirical_cdf, ks_distance, run_cycles
from .transforms import busy_period_laplace_from_service, busy_period_laplace_general

# Transform arguments in units of lambda: the checks evaluate at s = c * lambda,
# so they probe the same part of each law whatever the time scale.
TRANSFORM_S_POINTS = (0.1, 0.5, 1.0, 2.0, 5.0)


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


def _cycle_mean(params) -> float:
    """e^rho/lambda, the mean busy cycle: the time unit of the checks' grids."""
    return math.exp(params.rho) / params.lam


def riccati_residual(ctx: KernelContext, n_points: int = 100, t_max: float | None = None) -> float:
    """Max defect of the service-CDF ODE dG/dt = -lam*G^2 - (beta-lam)*G + beta, in units of lam.

    The default horizon t_knot + 5 e^rho/lam and the difference step 1e-5/lam
    are on the law's own time scale, so the residual does not change when
    (lam, beta, t) -> (c lam, c beta, t/c).
    """
    lam = ctx.params.lam
    if t_max is None:
        t_max = ctx.t_knot + 5.0 * _cycle_mean(ctx.params)
    ts = np.linspace(t_max / n_points, t_max, n_points)
    eps = 1e-5 / lam
    dg = (riccati_service_cdf(ctx, ts + eps) - riccati_service_cdf(ctx, ts - eps)) / (2 * eps)
    g = riccati_service_cdf(ctx, ts)
    b = ctx.vbeta.spec.value(ts)
    rhs = -lam * g**2 - (b - lam) * g + b
    return float(np.max(np.abs(dg - rhs))) / lam


def check_series_vs_closed_form(law: ServiceLaw, tol_sup: float = 1e-3) -> list[CheckResult]:
    b_grid, z_grid = law.series
    ts = b_grid.times
    db = float(np.max(np.abs(b_grid.values - cf.busy_period_cdf(law.params, law.beta, ts))))
    dz = float(np.max(np.abs(z_grid.values - cf.busy_cycle_cdf(law.params, law.beta, ts))))
    return [
        _result("busy period: series vs closed form", db < tol_sup, f"sup distance {db:.2e}"),
        _result("busy cycle: series vs closed form", dz < tol_sup, f"sup distance {dz:.2e}"),
    ]


def check_series_envelope(law: ServiceLaw) -> list[CheckResult]:
    """Series B and Z against envelope_bounds on the law's grid, past t = 0."""
    b_grid, z_grid = law.series
    ts = b_grid.times[1:]
    env = cf.envelope_bounds(law.params, ts)
    slack = 1e-9 + 2e-3  # series curves carry O(h) discretization error
    ok = (np.all(b_grid.values[1:] >= env.bp_floor - slack)
          and np.all(z_grid.values[1:] >= env.cycle_floor - slack)
          and np.all(z_grid.values[1:] <= env.cycle_ceiling + slack))
    return [_result("envelope bounds on series curves", bool(ok),
                    f"{b_grid.values.size}-point grid")]


def _transform_points(law: ServiceLaw) -> list[float]:
    return [c * law.params.lam for c in TRANSFORM_S_POINTS]


def check_transform_consistency(law: ServiceLaw, tol: float = 1e-5) -> list[CheckResult]:
    """Kernel-form busy-period transform against nested quadrature of G."""
    worst = 0.0
    for s in _transform_points(law):
        general = busy_period_laplace_general(law.kernel, s).value
        direct = busy_period_laplace_from_service(law.params, law.cdf, s).value
        worst = max(worst, abs(general - direct))
    return [_result("busy period transform: kernel form vs nested quadrature",
                    worst < tol, f"max |diff| {worst:.2e}")]


def check_transform_mixture(law: ServiceLaw, tol: float = 1e-5) -> list[CheckResult]:
    """Kernel-form busy-period transform against the closed form's atom plus exponential."""
    g0 = law.atom
    mu = law.params.exp_neg_rho * (law.params.lam + law.beta)
    worst = max(abs(busy_period_laplace_general(law.kernel, s).value
                    - (g0 + (1.0 - g0) * mu / (s + mu))) for s in _transform_points(law))
    return [_result("busy period transform: vs analytic exponential mixture",
                    worst < tol, f"max |diff| {worst:.2e}")]


def check_mean_identities(law: ServiceLaw, rel_tol: float = 1e-6) -> list[CheckResult]:
    """Quadrature means of G, B, Z against rho'/lam, (e^rho' - 1)/lam, e^rho'/lam (Takacs, 1962).

    rho' = -ln lim p00(t) is rho when the kernel integral I is finite and 0
    at the degenerate endpoint, where 1/I = 0 (p00(inf) itself is 0 * inf there).
    """
    params, beta = law.params, law.beta
    rho_eff = params.rho if law.kernel.inv_total > 0 else 0.0
    targets = {
        "service mean": (cf.service_curve(params, beta), rho_eff / params.lam),
        "busy period mean": (cf.busy_period_curve(params, beta), math.expm1(rho_eff) / params.lam),
        "busy cycle mean": (cf.busy_cycle_curve(params, beta), math.exp(rho_eff) / params.lam),
    }
    out = []
    for name, (curve, target) in targets.items():
        err = abs(curve.mean - target)
        out.append(_result(f"{name} = analytic target", err <= rel_tol * target,
                           f"|{curve.mean:.10g} - {target:.10g}| = {err:.2e}"))
    return out


def check_bound_ordering(law: ServiceLaw, n_points: int = 5000,
                         slack: float = 1e-9) -> list[CheckResult]:
    """B and Z against envelope_bounds on t_k = 12 (e^rho/lambda) k/n_points, k = 1..n_points.

    The two floor checks FAIL for every interior beta by design: the floors
    are the laws at the upper endpoint, which interior laws of equal mean
    must cross.  They PASS at both endpoints; the ceiling check always passes.
    """
    ts = 12.0 * _cycle_mean(law.params) * np.arange(1, n_points + 1) / n_points
    env = cf.envelope_bounds(law.params, ts)
    b = law.busy_cdf(ts)
    z = law.cycle_cdf(ts)
    ok_b = float(np.min(b - env.bp_floor))
    ok_lo = float(np.min(z - env.cycle_floor))
    ok_hi = float(np.min(env.cycle_ceiling - z))
    return [
        _result("busy period above exponential floor", ok_b >= -slack, f"min slack {ok_b:.2e}"),
        _result("busy cycle above floor", ok_lo >= -slack, f"min slack {ok_lo:.2e}"),
        _result("busy cycle below exponential ceiling", ok_hi >= -slack, f"min slack {ok_hi:.2e}"),
    ]


def check_riccati_residual(law: ServiceLaw, tol: float = 1e-3) -> list[CheckResult]:
    res = riccati_residual(law.kernel)
    return [_result("service CDF solves the Riccati ODE", res < tol, f"max residual {res:.2e}")]


def check_monte_carlo(law: ServiceLaw, n_cycles: int, seed: int,
                      ks_tol: float = 0.01) -> list[CheckResult]:
    samples = run_cycles(law.params, law.quantile, n_cycles, seed)
    ks_busy = ks_distance(empirical_cdf(samples.busy), law.busy_cdf)
    ks_cycle = ks_distance(empirical_cdf(samples.cycle), law.cycle_cdf)
    ks_idle = ks_distance(empirical_cdf(samples.idle), law.idle_cdf)
    atom = law.atom
    zero_frac = float(np.mean(samples.busy == 0.0))
    tol_atom = 3.0 * math.sqrt(max(atom * (1.0 - atom), 1e-12) / n_cycles)
    if samples.busy.std() == 0.0 or samples.idle.std() == 0.0:
        corr = 0.0  # degenerate: busy identically zero
    else:
        corr = float(np.corrcoef(samples.busy, samples.idle)[0, 1])
    corr_tol = 3.0 / math.sqrt(n_cycles)
    return [
        _result("KS(busy period)", ks_busy < ks_tol, f"{ks_busy:.4f} < {ks_tol}"),
        _result("KS(busy cycle)", ks_cycle < ks_tol, f"{ks_cycle:.4f} < {ks_tol}"),
        _result("KS(idle period)", ks_idle < ks_tol, f"{ks_idle:.4f} < {ks_tol}"),
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
    curves are checked against the envelopes instead.
    """
    if law.beta is None:
        no_closed_form = "no closed form for tabulated beta"
        head = ([CheckResult("series vs closed form", "SKIP", no_closed_form)]
                + check_series_envelope(law))
        mixture = [CheckResult("busy period transform: vs analytic exponential mixture",
                               "SKIP", no_closed_form)]
    else:
        head = (check_series_vs_closed_form(law) + check_mean_identities(law)
                + check_bound_ordering(law))
        mixture = check_transform_mixture(law)
    return (head + check_transform_consistency(law) + mixture
            + check_riccati_residual(law) + check_monte_carlo(law, n_cycles, seed))
