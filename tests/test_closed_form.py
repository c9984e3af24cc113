import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from mginf import closed_form as cf
from mginf.errors import (
    BetaOutOfRange,
    DegenerateDistribution,
    NegativeTime,
    ProbabilityOutOfRange,
)
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, validate_queue_params

P11 = validate_queue_params(1.0, 1.0)
PLN2 = validate_queue_params(1.0, math.log(2))
P21 = validate_queue_params(2.0, 0.5)

LN2_HI = 1.0  # lambda/(e^rho - 1) at rho = ln 2


# ---- service CDF -----------------------------------------------------------

def test_service_cdf_frozen_value():
    # oracle: 30-digit evaluation of the constant-beta formula
    assert cf.service_cdf(P11, 0.0, 1.0) == pytest.approx(0.6126998367802821, abs=1e-12)


def test_service_cdf_tanh_identity():
    # at (lam=1, rho=ln2, beta=1) the formula reduces to 1 - 2/(e^{2t}+1)
    for t in (0.2, 1.0, 3.0):
        assert cf.service_cdf(PLN2, 1.0, t) == pytest.approx(
            1.0 - 2.0 / (math.exp(2 * t) + 1.0), abs=1e-14
        )
    assert cf.service_cdf(PLN2, 1.0, 1.0) == pytest.approx(math.tanh(1.0), abs=1e-14)


def test_service_cdf_degenerate():
    assert cf.service_cdf(P11, -1.0, 5.0) == 1.0
    assert cf.service_cdf(P11, -1.0, 0.0) == 1.0


def test_service_cdf_rejects_bad_inputs():
    with pytest.raises(BetaOutOfRange):
        cf.service_cdf(P11, 0.9, 1.0)
    with pytest.raises(NegativeTime):
        cf.service_cdf(P11, 0.0, -0.5)


def test_service_cdf_no_overflow_large_t():
    v = cf.service_cdf(P11, 0.5, 1e6)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_service_atom_values():
    assert cf.service_atom(P11, 0.0) == pytest.approx(math.exp(-1), rel=1e-14)
    assert cf.service_atom(PLN2, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert cf.service_atom(P11, -1.0) == 1.0


# ---- quantile --------------------------------------------------------------

def test_service_quantile_atom_region():
    assert cf.service_quantile(P11, 0.0, 0.3) == 0.0


def test_service_quantile_frozen_value():
    assert cf.service_quantile(P11, 0.0, 0.5) == pytest.approx(0.541324854612918, abs=1e-12)


def test_service_quantile_roundtrip_against_t1():
    u = cf.service_cdf(PLN2, 1.0, 1.0)
    assert cf.service_quantile(PLN2, 1.0, u) == pytest.approx(1.0, abs=1e-10)


def test_service_quantile_degenerate_returns_zero():
    assert cf.service_quantile(P11, -1.0, 0.99) == 0.0


def test_service_quantile_rejects_bad_u():
    with pytest.raises(ProbabilityOutOfRange):
        cf.service_quantile(P11, 0.0, 1.0)
    with pytest.raises(ProbabilityOutOfRange):
        cf.service_quantile(P11, 0.0, -0.1)


@given(st.floats(min_value=0.0, max_value=0.999),
       st.sampled_from([0.0, 0.3, -0.5, 0.5819767068693265]))
def test_quantile_roundtrip_property(u, beta):
    t = cf.service_quantile(P11, beta, u)
    atom = cf.service_atom(P11, beta)
    if u <= atom:
        assert t == 0.0
    else:
        assert cf.service_cdf(P11, beta, t) == pytest.approx(u, rel=1e-12)


# ---- busy period -----------------------------------------------------------

def test_busy_period_frozen_value():
    assert cf.busy_period_cdf(P11, 0.0, 1.0) == pytest.approx(0.5624457524882361, abs=1e-12)


def test_busy_period_purely_exponential_endpoint():
    for t in (0.0, 0.5, 2.0, 10.0):
        assert cf.busy_period_cdf(PLN2, LN2_HI, t) == pytest.approx(
            -math.expm1(-t), abs=1e-14
        )


def test_busy_period_degenerate():
    assert cf.busy_period_cdf(P11, -1.0, 0.0) == 1.0


def test_atom_transfer():
    for p, beta in [(P11, 0.0), (P11, 0.3), (PLN2, 1.0), (P21, 1.0)]:
        assert cf.busy_period_cdf(p, beta, 0.0) == pytest.approx(
            cf.service_atom(p, beta), abs=1e-14
        )


# ---- busy cycle ------------------------------------------------------------

def test_busy_cycle_frozen_value():
    assert cf.busy_cycle_cdf(P11, 0.0, 1.0) == pytest.approx(0.3077993724446536, abs=1e-12)


def test_busy_cycle_confluent_limit():
    # (rho = ln2, beta = lambda): limit formula 1 - (1 + t)e^{-t}
    assert cf.busy_cycle_cdf(PLN2, 1.0, 1.0) == pytest.approx(1 - 2 / math.e, abs=1e-12)


def test_busy_cycle_degenerate_is_idle_exponential():
    for t in (0.0, 1.0, 4.0):
        assert cf.busy_cycle_cdf(P11, -1.0, t) == pytest.approx(-math.expm1(-t), abs=1e-14)


def test_busy_cycle_zero_at_origin():
    for p, beta in [(P11, 0.0), (PLN2, 1.0), (P21, -2.0), (P21, 3.083)]:
        assert cf.busy_cycle_cdf(p, beta, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_busy_cycle_continuous_through_confluence():
    # denominator vanishes along beta = lam*(e^rho - 1); the stable form must
    # agree with direct two-exponential evaluation just off the curve
    p = validate_queue_params(1.0, 0.5)
    b_star = math.expm1(0.5)
    for eps in (1e-5, -1e-5):
        beta = b_star + eps
        q0, s = p.exp_neg_rho, p.lam + beta
        d = p.lam - q0 * s
        direct = 1 - (1 - q0) * s / d * math.exp(-q0 * s * 2.0) + beta / d * math.exp(-p.lam * 2.0)
        assert cf.busy_cycle_cdf(p, beta, 2.0) == pytest.approx(direct, abs=1e-9)
    at_star = cf.busy_cycle_cdf(p, b_star, 2.0)
    near = cf.busy_cycle_cdf(p, b_star + 1e-9, 2.0)
    assert at_star == pytest.approx(near, abs=1e-8)


def reference_busy_cdfs(p, beta, t):
    """B and Z by the closed-form expressions, each written out whole: the in-place reference.

    1 - Z = e^{-lambda t} + x e^{-min(lambda, gamma) t} (-expm1(-|d| t))/|d|, with
    x = (1 - e^{-rho})(lambda + beta), gamma = e^{-rho}(lambda + beta) and
    d = lambda - gamma; the last factor is t at d == 0.
    """
    tt = np.asarray(t, dtype=float)
    lam, q0 = p.lam, p.exp_neg_rho
    s = lam + beta
    b = 1.0 - (s / lam) * (1.0 - q0) * np.exp(-q0 * s * tt)
    gamma = q0 * s
    gap = abs(lam - gamma)
    mix = tt * 1.0 if gap == 0.0 else -np.expm1(-gap * tt) / gap
    z = 1.0 - (mix * np.exp(-min(lam, gamma) * tt) * ((1.0 - q0) * s) + np.exp(-lam * tt))
    return b, z


P05 = validate_queue_params(1.0, 0.5)


@pytest.mark.parametrize("p,beta,regime", [
    (P11, 0.0, "d > 0"), (P11, -1.0, "d > 0"), (P11, 0.3, "d > 0"), (P21, -1.0, "d > 0"),
    (PLN2, LN2_HI, "confluent"), (PLN2, 0.0, "d > 0"),
    (P05, math.expm1(0.5), "confluent"), (P05, math.expm1(0.5) + 1e-5, "d < 0"),
    (P21, 3.083, "d < 0"), (P05, 1.0 / P05.exp_neg_rho - 1.0, "confluent"),
])
def test_busy_cdfs_are_bit_identical_to_their_expressions(p, beta, regime):
    # the cases cover both signs of d = lambda - gamma and d within 1e-9 lambda of 0
    d = p.lam - p.exp_neg_rho * (p.lam + beta)
    assert regime == ("confluent" if abs(d) <= 1e-9 * p.lam else "d > 0" if d > 0 else "d < 0")
    ts = np.concatenate([[0.0, 5e-324, 1e-9], np.linspace(0.0, 60.0, 2001), [1e3, 1e300]])
    want_b, want_z = reference_busy_cdfs(p, beta, ts)
    assert np.array_equal(cf.busy_period_cdf(p, beta, ts), want_b)
    assert np.array_equal(cf.busy_cycle_cdf(p, beta, ts), want_z)
    for i in (0, 2, 500, -1):  # floats and 0-d arrays give floats
        for t in (float(ts[i]), np.array(ts[i])):
            b, z = cf.busy_period_cdf(p, beta, t), cf.busy_cycle_cdf(p, beta, t)
            assert type(b) is float and type(z) is float
            assert (b, z) == (want_b[i], want_z[i])
    got = cf.busy_cycle_cdf(p, beta, [np.nan, 1.0])  # NaN passes, negative t does not
    assert math.isnan(got[0]) and got[1] == cf.busy_cycle_cdf(p, beta, 1.0)
    for fn in (cf.busy_period_cdf, cf.busy_cycle_cdf):
        with pytest.raises(NegativeTime):
            fn(p, beta, [np.nan, -1.0])


def decimal_busy_cycle_cdf(p, beta, t):
    """Z(t) to 50 digits: 1 - e^{-lambda t} - x (e^{-gamma t} - e^{-lambda t})/d.

    x = (1 - e^{-rho})(lambda + beta), gamma = e^{-rho}(lambda + beta), d = lambda - gamma,
    and t e^{-lambda t} for the last quotient at d == 0; e^{-rho} is the float the
    closed form reads, taken exactly.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lam, q0, b, t = (Decimal(float(v)) for v in (p.lam, p.exp_neg_rho, beta, t))
        s = lam + b
        gamma, d = q0 * s, lam - q0 * s
        idle = (-lam * t).exp()
        mix = t * idle if d == 0 else ((-gamma * t).exp() - idle) / d
        return float(1 - idle - (1 - q0) * s * mix)


@pytest.mark.parametrize("rho", [math.log(2), 0.5], ids=["ln2", "0.5"])
@pytest.mark.parametrize("gap", [0.0] + [g * sign for sign in (1.0, -1.0)
                                         for g in (1e-7, 1e-9, 5e-10, 1e-10, 1e-12)])
def test_busy_cycle_cdf_near_confluence_matches_a_50_digit_reference(rho, gap):
    # d = lambda - gamma = gap * lambda; at rho = ln 2 the confluent beta is the upper
    # endpoint, and gamma > lambda (gap < 0) lies within the evaluators' slack
    p = validate_queue_params(1.0, rho)
    beta = p.lam * (1.0 - gap) / p.exp_neg_rho - p.lam
    if gap == 0.0:
        assert p.exp_neg_rho * (p.lam + beta) == p.lam  # exactly confluent
    ts = np.linspace(0.0, 40.0, 401)
    want = np.array([decimal_busy_cycle_cdf(p, beta, t) for t in ts])
    assert np.max(np.abs(cf.busy_cycle_cdf(p, beta, ts) - want)) <= 1e-15


# ---- transient probabilities -----------------------------------------------

def test_empty_probability_at_zero_and_infinity():
    assert cf.empty_probability(P11, 0.0, 0.0) == 1.0
    assert cf.empty_probability(P11, 0.0, 1e4) == pytest.approx(math.exp(-1), rel=1e-12)


def test_empty_probability_frozen_value():
    assert cf.empty_probability(P11, 0.0, 1.0) == pytest.approx(0.600423599106272, abs=1e-12)


@pytest.mark.parametrize("p,beta", [(P11, 0.0), (P11, 0.4), (PLN2, 1.0), (P21, -1.0)])
def test_empty_probability_matches_quadrature(p, beta):
    # independent oracle: direct quadrature of the survival of G
    for t in (0.5, 1.0, 3.0):
        integral, _ = quad(lambda v: 1.0 - cf.service_cdf(p, beta, v), 0.0, t,
                           epsabs=1e-13, epsrel=1e-12, limit=200)
        assert cf.empty_probability(p, beta, t) == pytest.approx(
            math.exp(-p.lam * integral), abs=1e-10
        )


def test_busy_start_empty_probability():
    assert cf.busy_start_empty_probability(P11, 0.0, 1.0) == pytest.approx(
        math.exp(-1), abs=1e-12
    )
    assert cf.busy_start_empty_probability(PLN2, 1.0, 0.0) == 0.0
    t = 0.5
    assert cf.busy_start_empty_probability(P11, -1.0, t) == pytest.approx(
        cf.empty_probability(P11, -1.0, t), abs=1e-14
    )


def test_busy_start_empty_monotonicity_signs():
    ts = np.linspace(0.0, 6.0, 400)
    up = cf.busy_start_empty_probability(P11, 0.3, ts)
    flat = cf.busy_start_empty_probability(P11, 0.0, ts)
    down = cf.busy_start_empty_probability(P11, -0.3, ts)
    assert np.all(np.diff(up) > 0)
    assert np.max(np.abs(np.diff(flat))) < 1e-10
    assert np.all(np.diff(down) < 0)


# ---- monotony indicator ----------------------------------------------------

@pytest.mark.parametrize("p,beta,t", [
    (P11, 0.0, 2.0), (P11, 0.5, 1.0), (PLN2, 1.0, 0.0), (P21, -1.5, 0.7),
])
def test_monotony_indicator_equals_beta(p, beta, t):
    assert cf.monotony_indicator(p, beta, t) == pytest.approx(beta, abs=1e-10)


@pytest.mark.parametrize("p,beta,t", [(P11, 0.0, 2.0), (P11, 0.5, 1.0), (PLN2, 1.0, 0.5)])
def test_monotony_indicator_finite_difference_oracle(p, beta, t):
    eps = 1e-6
    g_fd = (cf.service_cdf(p, beta, t + eps) - cf.service_cdf(p, beta, max(t - eps, 0))) / (
        (t + eps) - max(t - eps, 0)
    )
    g = cf.service_cdf(p, beta, t)
    indicator_fd = g_fd / (1.0 - g) - p.lam * g
    assert cf.monotony_indicator(p, beta, t) == pytest.approx(indicator_fd, abs=1e-4)


def test_monotony_indicator_degenerate_raises():
    with pytest.raises(DegenerateDistribution):
        cf.monotony_indicator(P11, -1.0, 1.0)


# ---- envelopes -------------------------------------------------------------

def test_envelope_frozen_values():
    env = cf.envelope_bounds(P11, 1.0)
    assert env.bp_floor == pytest.approx(0.4412072952372531, abs=1e-12)
    assert env.cycle_ceiling == pytest.approx(0.6321205588285577, abs=1e-12)
    assert env.cycle_floor == pytest.approx(0.1754157131212507, abs=1e-12)


def test_envelope_confluent_floor():
    env = cf.envelope_bounds(PLN2, 1.0)
    assert env.cycle_floor == pytest.approx(1 - 2 / math.e, abs=1e-12)


def test_envelope_zero_at_origin():
    for p in (P11, PLN2, P21):
        env = cf.envelope_bounds(p, 0.0)
        assert env == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_cycle_ceiling_holds_everywhere():
    ts = 0.01 * np.arange(1, 5001)
    for p in (P11, PLN2, P21):
        hi = p.lam / math.expm1(p.rho)
        for beta in (-p.lam, 0.0, hi / 2, hi):
            env = cf.envelope_bounds(p, ts)
            z = cf.busy_cycle_cdf(p, beta, ts)
            assert np.min(env.cycle_ceiling - z) >= -1e-9


# ---- means -----------------------------------------------------------------

def constant_means(p, beta):
    """Means of G, B and Z at constant beta: quad of the closed form's 1 - G, and the law's
    L[1 - B] and L[1 - Z] at s = 0 (its series grids plus their closed tails)."""
    g = quad(lambda t: 1.0 - cf.service_cdf(p, beta, t), 0.0, math.inf,
             epsabs=0.0, epsrel=1e-12, limit=200)[0]
    (b,), (z,) = ServiceLaw(p, BetaSpec(constant=beta)).survival_transforms(0.0)
    return g, b, z


@pytest.mark.parametrize("p", [P11, PLN2, P21])
@pytest.mark.parametrize("which", ["lo_half", "zero", "mid", "hi"])
def test_mean_identities(p, which):
    hi = p.lam / math.expm1(p.rho)
    beta = {"lo_half": -p.lam / 2, "zero": 0.0, "mid": hi / 2, "hi": hi}[which]
    g, b, z = constant_means(p, beta)
    assert g == pytest.approx(p.rho / p.lam, rel=1e-6)
    assert b == pytest.approx(math.expm1(p.rho) / p.lam, rel=1e-6)
    assert z == pytest.approx(math.exp(p.rho) / p.lam, rel=1e-6)


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("rho", [0.1, math.log(2), 1.0, 3.0, 5.0, 8.0])
def test_survival_mean_matches_targets_across_scales(lam, rho):
    p = validate_queue_params(lam, rho)
    targets = (rho / lam, math.expm1(rho) / lam, math.exp(rho) / lam)
    for beta in np.linspace(-lam, lam / math.expm1(rho), 9)[1:-1]:
        for mean, target in zip(constant_means(p, beta), targets):
            assert mean == pytest.approx(target, rel=1e-9)


def test_degenerate_means():
    g, b, z = constant_means(P11, -1.0)
    assert g == 0.0 and b == 0.0
    assert z == pytest.approx(1.0, rel=1e-8)


# ---- CDF shape properties ---------------------------------------------------

@pytest.mark.parametrize("rho", [5.0, 10.0])
def test_busy_cycle_finite_far_into_the_tail(rho):
    # d = lambda - e^{-rho}(lambda+beta) > 0 here, and d t reaches 1e4 >> 709.78
    p = validate_queue_params(1.0, rho)
    ts = np.linspace(0.0, 1e4, 2001)
    for beta in (0.0, -0.5, p.lam / math.expm1(rho)):
        z = cf.busy_cycle_cdf(p, beta, ts)
        assert np.all(np.isfinite(z))
        assert np.all(np.diff(z) >= -1e-15)
        mu, x = p.exp_neg_rho * (1 + beta), (1 - p.exp_neg_rho) * (1 + beta)
        assert z[-1] == pytest.approx(1 - x / (1 - mu) * math.exp(-mu * 1e4), abs=1e-12)


@pytest.mark.parametrize("p,beta", [(P11, 0.0), (P11, -0.7), (PLN2, 1.0), (P21, 2.0)])
def test_cdfs_monotone_and_bounded(p, beta):
    ts = np.linspace(0.0, 40.0, 2000)
    for fn in (cf.service_cdf, cf.busy_period_cdf, cf.busy_cycle_cdf):
        vals = fn(p, beta, ts)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
        assert vals[-1] > 0.99
