"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The test matrix is (lam, rho) in {(1, 1), (1, ln 2), (2, 0.5)} crossed with
beta in {-lam, 0, hi/2, hi} where hi = lam/(e^rho - 1); criteria 1 and 4
also run it at the heavy-traffic points (1, 3) and (1, 5), at the same gates.
Criterion 7 asserts the orderings that hold: Z below the idle-period ceiling
1 - e^{-lam t} for every beta, B above its exact infimum over constant beta,
and Z above that infimum convolved with the Exp(lam) idle period.  It also
asserts that check_bound_ordering passes its paper floors (B and Z at
beta = hi) only at the two endpoints and fails them for interior beta, as it
must: every
non-degenerate beta gives the same mean busy period and cycle, and a CDF that
lies below another everywhere with the same mean is that CDF.  `mginf verify`
therefore still prints FAIL for the two floor checks and exits 1 at interior
beta.  Criterion 4 runs over the non-degenerate entries because the mean
identities collapse to 0, 0, 1/lam at beta = -lam; the degenerate means are
asserted separately.
"""

import math

import numpy as np
from scipy.integrate import quad_vec

from mginf import closed_form as cf
from mginf.cli import main
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, beta_bounds, validate_queue_params
from mginf.transforms import (
    busy_period_laplace_from_service,
    busy_period_laplace_general,
)
from mginf.verify import (
    check_bound_ordering,
    check_monte_carlo,
    riccati_residual,
)

PARAM_POINTS = [
    validate_queue_params(1.0, 1.0),
    validate_queue_params(1.0, math.log(2)),
    validate_queue_params(2.0, 0.5),
]

HEAVY_POINTS = [
    validate_queue_params(1.0, 3.0),
    validate_queue_params(1.0, 5.0),
]

RAMP = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))


def matrix(points=PARAM_POINTS):
    for p in points:
        lo, hi = beta_bounds(p)
        for beta in (lo, 0.0, 0.5 * hi, hi):
            yield p, beta


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def law_at(p, beta):
    return ServiceLaw(p, BetaSpec(constant=beta))


def test_criterion_1_series_equals_closed_form():
    worst = 0.0
    for p, beta in matrix(PARAM_POINTS + HEAVY_POINTS):
        b, z = law_at(p, beta).series
        ts = b.times
        worst = max(
            worst,
            float(np.max(np.abs(b.values - cf.busy_period_cdf(p, beta, ts)))),
            float(np.max(np.abs(z.values - cf.busy_cycle_cdf(p, beta, ts)))),
        )
    report(1, worst < 1e-3, f"sup |series - closed form| = {worst:.2e} < 1e-3")


def test_criterion_2_endpoint_identities():
    worst = 0.0
    for p in PARAM_POINTS:
        lo, hi = beta_bounds(p)
        ts = np.linspace(0.0, 20.0 / p.lam, 500)
        worst = max(
            worst,
            float(np.max(np.abs(cf.busy_period_cdf(p, lo, ts) - 1.0))),
            float(np.max(np.abs(cf.busy_cycle_cdf(p, lo, ts) - (-np.expm1(-p.lam * ts))))),
            float(np.max(np.abs(cf.busy_period_cdf(p, hi, ts)
                                - (-np.expm1(-p.lam * ts / math.expm1(p.rho)))))),
        )
    report(2, worst < 1e-12, f"max endpoint defect = {worst:.2e} < 1e-12")


def test_criterion_3_confluent_limit():
    ts = np.linspace(0.0, 10.0, 2001)
    target = 1.0 - (1.0 + ts) * np.exp(-ts)
    zs = {}
    for sign in (-1.0, 1.0):
        p = validate_queue_params(1.0, math.log(2) + sign * 1e-6)
        zs[sign] = cf.busy_cycle_cdf(p, 1.0, ts)
    err = max(float(np.max(np.abs(zs[s] - target))) for s in zs)
    jump = float(np.max(np.abs(zs[1.0] - zs[-1.0])))
    report(3, err < 1e-4 and jump < 1e-4,
           f"max |Z - (1-(1+t)e^-t)| = {err:.2e}, rho-continuity gap = {jump:.2e}")


def law_means(law):
    """survival_mean of the law's G, B and Z, at the tail rates check_mean_identities uses."""
    lam = law.params.lam
    gamma, c = law.busy_tail
    return (cf.survival_mean(law.cdf, law.tail_rate), cf.survival_mean(law.busy_cdf, gamma),
            cf.survival_mean(law.cycle_cdf, min(lam, gamma) if c > 0 else lam))


def test_criterion_4_mean_identities():
    worst = 0.0
    for p, beta in matrix(PARAM_POINTS + HEAVY_POINTS):
        if p.lam + beta <= 0:
            continue
        targets = (p.rho / p.lam, math.expm1(p.rho) / p.lam, math.exp(p.rho) / p.lam)
        means = law_means(law_at(p, beta))
        worst = max(worst, *(abs(m - t) / t for m, t in zip(means, targets)))
    # degenerate endpoint checked against its own collapsed means
    for p in PARAM_POINTS + HEAVY_POINTS:
        z = law_means(law_at(p, -p.lam))[2]
        worst = max(worst, abs(z - 1.0 / p.lam) * p.lam)
    report(4, worst < 1e-6,
           f"max relative mean error = {worst:.2e} < 1e-6 (beta > -lam matrix)")


def test_criterion_5_transform_consistency():
    worst = 0.0
    for p, beta in matrix():
        if p.lam + beta <= 0:
            continue
        law = law_at(p, beta)
        g0 = cf.service_atom(p, beta)
        mu = p.exp_neg_rho * (p.lam + beta)
        points = (0.1, 0.5, 1.0, 2.0, 5.0)
        for s, lp in zip(points, busy_period_laplace_from_service(law, points)):
            general = busy_period_laplace_general(law, s).value
            direct = lp.value
            mixture = g0 + (1.0 - g0) * mu / (s + mu)
            worst = max(worst, abs(general - direct), abs(general - mixture),
                        abs(direct - mixture))
    report(5, worst < 1e-5, f"max transform disagreement = {worst:.2e} < 1e-5")


def test_criterion_6_riccati_residual():
    worst = 0.0
    for p in PARAM_POINTS:
        _, hi = beta_bounds(p)
        worst = max(worst, riccati_residual(law_at(p, 0.5 * hi)))
    p11 = PARAM_POINTS[0]
    worst = max(worst, riccati_residual(
        ServiceLaw(p11, RAMP)
    ))
    report(6, worst < 1e-3, f"max ODE residual = {worst:.2e} < 1e-3")


FLOOR_CHECKS = ("busy period above exponential floor", "busy cycle above floor")
CEILING_CHECK = "busy cycle below exponential ceiling"


def tight_floors(p, ts):
    """Infimum of B over constant beta, and that infimum convolved with Exp(lam).

    With m = (e^rho - 1)/lam the mean busy period and a = t/m, 1 - B = u e^{-a u}
    for u = (lam + beta)(1 - e^{-rho})/lam in [0, 1]; maximising over u gives
    1 - e^{-a} for a <= 1 and 1 - 1/(e a) beyond.  Z = B * Exp(lam), and
    convolving with a density keeps pointwise order, so the second floor bounds Z.
    Up to m it equals Z at beta = hi; past m the part of the convolution beyond
    m is integrated by adaptive quadrature.
    """
    _, hi = beta_bounds(p)
    lam, m = p.lam, 1.0 / hi
    a = ts / m
    bp = np.where(a <= 1.0, -np.expm1(-a), 1.0 - 1.0 / (math.e * np.maximum(a, 1.0)))
    w = np.maximum(ts - m, 0.0)
    # int_m^t lam e^{-lam(t - tau)} / tau dtau with tau = m + w x
    tail, err = quad_vec(lambda x: lam * w * np.exp(-lam * w * (1.0 - x)) / (m + w * x),
                         0.0, 1.0, epsabs=1e-14, epsrel=1e-13, norm="max")
    assert err < 1e-12
    past = (np.exp(-lam * w) * cf.busy_cycle_cdf(p, hi, m) - np.expm1(-lam * w)
            - m / math.e * tail)
    cycle = np.where(ts <= m, cf.busy_cycle_cdf(p, hi, np.minimum(ts, m)), past)
    return bp, cycle


def test_criterion_7_bound_ordering():
    worst = {"B - tight floor": math.inf, "Z - tight floor": math.inf,
             "ceiling - Z": math.inf}
    bad = []
    for p in PARAM_POINTS + HEAVY_POINTS:
        # 50 mean busy cycles e^rho/lambda
        ts = 0.01 * math.exp(p.rho) / p.lam * np.arange(1, 5001)
        lo, hi = beta_bounds(p)
        bp_tight, cycle_tight = tight_floors(p, ts)
        env = cf.envelope_bounds(p, ts)
        for beta in (lo, 0.0, 0.5 * hi, hi):
            at = f"lam={p.lam}, rho={p.rho:.4f}, beta={beta:.4f}"
            b = cf.busy_period_cdf(p, beta, ts)
            z = cf.busy_cycle_cdf(p, beta, ts)
            for key, gap in (("B - tight floor", b - bp_tight),
                             ("Z - tight floor", z - cycle_tight),
                             ("ceiling - Z", env.cycle_ceiling - z)):
                worst[key] = min(worst[key], float(np.min(gap)))
            status = {r.name: r.status for r in check_bound_ordering(law_at(p, beta))}
            if beta in (lo, hi):
                expected = dict.fromkeys((*FLOOR_CHECKS, CEILING_CHECK), "PASS")
            else:
                # equal means: a floor below B everywhere would be B itself
                expected = {**dict.fromkeys(FLOOR_CHECKS, "FAIL"), CEILING_CHECK: "PASS"}
                # the crossing's depth shrinks like e^-rho (4.8e-2, 6.7e-3 and 9.1e-4 at
                # beta = 0 and rho = 1, 3, 5): demand 1e-3 e^{1 - rho}, 1e-3 at rho = 1
                paper_gap = float(np.min(b - env.bp_floor))
                if paper_gap >= -1e-3 * math.exp(1.0 - p.rho):
                    bad.append(f"paper floor gap only {paper_gap:.2e} at {at}")
            if status != expected:
                bad.append(f"check_bound_ordering {status} at {at}")
    ok = not bad and min(worst.values()) >= -1e-9
    report(7, ok, ", ".join(f"min({k}) = {v:.2e}" for k, v in worst.items())
           + " (each must be >= -1e-9); paper floors hold at the endpoints, fail inside"
           + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_8_monte_carlo():
    points = [
        (PARAM_POINTS[0], 0.0, 1),
        (PARAM_POINTS[1], 1.0, 2),
    ]
    bad = []
    for p, beta, seed in points:
        for r in check_monte_carlo(law_at(p, beta), 100_000, seed):
            if r.status == "FAIL":
                bad.append(f"(beta={beta}) {r.name}: {r.detail}")
    report(8, not bad,
           "KS/atom/correlation checks at n=1e5" + ("; failed: " + "; ".join(bad) if bad else ""))


def test_criterion_9_monotony_law():
    p = PARAM_POINTS[0]
    ts = np.linspace(0.0, 8.0, 1601)
    curves = {
        beta: cf.busy_start_empty_probability(p, beta, ts) for beta in (0.3, 0.0, -0.3)
    }
    inc = bool(np.all(np.diff(curves[0.3]) > 0))
    dec = bool(np.all(np.diff(curves[-0.3]) < 0))
    flat = float(np.max(np.abs(curves[0.0] - curves[0.0][0])))
    ok = inc and dec and flat < 1e-10
    report(9, ok,
           f"p1'0 increasing at beta=0.3: {inc}, decreasing at beta=-0.3: {dec}, "
           f"flat to {flat:.1e} at beta=0")


def test_criterion_10_determinism(tmp_path, capsys):
    sim = ["simulate", "--lambda", "1", "--rho", "1", "--beta", "0",
           "--cycles", "2000", "--seed", "11"]
    files = []
    summaries = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(sim + ["--out", str(out)])
        assert code == 0
        summaries.append(capsys.readouterr().out)
        files.append(out.read_bytes())
    ver = ["verify", "--lambda", "1", "--rho", str(math.log(2)), "--beta", "1",
           "--cycles", "2000", "--seed", "11"]
    reports = []
    for _ in range(2):
        main(ver)
        reports.append(capsys.readouterr().out)
    ok = files[0] == files[1] and summaries[0] == summaries[1] and reports[0] == reports[1]
    with capsys.disabled():
        report(10, ok, "repeated simulate and verify runs are byte-identical")


def test_busy_cycle_series_is_a_probability():
    # Z(0) = 0 exactly (the idle period is positive almost surely), and Z >= 0 on every grid
    laws = [law_at(p, beta) for p, beta in matrix(PARAM_POINTS + HEAVY_POINTS)]
    laws += [ServiceLaw(p, RAMP) for p in PARAM_POINTS]
    for law in laws:
        z = law.series[1].values
        assert z[0] == 0.0
        assert np.min(z) >= 0.0
