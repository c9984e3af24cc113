import math

import numpy as np
import pytest

from mginf import closed_form as cf
from mginf.errors import DivergentKernelIntegral
from mginf.kernel import (
    build_kernel,
    riccati_service_cdf,
    riccati_service_quantile,
)
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, validate_beta, validate_queue_params
from mginf.verify import riccati_residual

P11 = validate_queue_params(1.0, 1.0)
PLN2 = validate_queue_params(1.0, math.log(2))

RAMP = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))


def vbeta(p, spec, t_max=50.0):
    return validate_beta(p, spec, t_max)


def test_cumulative_beta_constant():
    vb = vbeta(P11, BetaSpec(constant=0.25))
    assert vb.spec.cumulative(4.0) == pytest.approx(1.0, rel=1e-14)
    vb2 = vbeta(P11, BetaSpec(constant=-1.0))
    assert vb2.spec.cumulative(3.0) == pytest.approx(-3.0, rel=1e-14)


def test_cumulative_beta_triangle():
    vb = vbeta(PLN2, BetaSpec(knots=((0.0, 0.0), (2.0, 2.0))), t_max=2.0)
    assert vb.spec.cumulative(2.0) == pytest.approx(2.0, rel=1e-14)


def test_cumulative_beta_additive():
    vb = vbeta(P11, RAMP)
    full = vb.spec.cumulative(3.7)
    part = vb.spec.cumulative(1.2)
    rest = 0.2 * (3.7 - 1.2)  # beta is 0.2 beyond its last knot at t = 1
    assert full == pytest.approx(part + rest, rel=1e-14)


def test_kernel_integral_constant_zero():
    ctx = build_kernel(P11, vbeta(P11, BetaSpec(constant=0.0)))
    assert 1.0 / ctx.inv_total == pytest.approx(1.0, rel=1e-14)


def test_kernel_integral_constant_one():
    ctx = build_kernel(PLN2, vbeta(PLN2, BetaSpec(constant=1.0)))
    assert 1.0 / ctx.inv_total == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("spec", [BetaSpec(constant=-1.0),
                                  BetaSpec(knots=((0.0, 0.0), (1.0, -1.0)))])
def test_kernel_at_degenerate_endpoint_is_the_unit_atom(spec):
    # lambda + beta(inf) = 0: the kernel integral diverges, 1/I = 0, and G == 1
    law = ServiceLaw(P11, vbeta(P11, spec))
    assert law.kernel.inv_total == 0.0
    assert law.atom == 1.0
    ts = np.linspace(0.0, 50.0, 1001)
    assert np.all(law.cdf(ts) == 1.0)
    assert np.all(law.quantile(np.linspace(0.0, 0.999999, 101)) == 0.0)
    assert np.all(law.p00(ts) == 1.0)


def test_kernel_divergent_below_degenerate_endpoint():
    # admissible on [0, 1] but lambda + beta(inf) = -0.5 < 0: f grows without bound
    with pytest.raises(DivergentKernelIntegral):
        build_kernel(P11, vbeta(P11, BetaSpec(knots=((0.0, 0.0), (1.0, -1.5))), t_max=1.0))


def test_kernel_integral_ramp_against_quadrature():
    from scipy.integrate import quad
    vb = vbeta(P11, RAMP)
    ctx = build_kernel(P11, vb)
    body, _ = quad(lambda t: math.exp(-t - float(vb.spec.cumulative(t))), 0.0, 1.0,
                   epsabs=1e-14, epsrel=1e-13)
    tail = math.exp(-1.0 - 0.1) / 1.2  # exponential beyond the last knot
    assert 1.0 / ctx.inv_total == pytest.approx(body + tail, rel=1e-10)


def test_atom_identity():
    # lambda * (1 - G(0)) * I = 1 - e^{-rho}
    for p, spec in [(P11, BetaSpec(constant=0.0)), (P11, RAMP),
                    (PLN2, BetaSpec(constant=1.0)),
                    (P11, BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1))))]:
        ctx = build_kernel(p, vbeta(p, spec))
        lhs = p.lam * (1.0 - ctx.atom) / ctx.inv_total
        assert lhs == pytest.approx(1.0 - p.exp_neg_rho, rel=1e-8)


def test_atom_values():
    ctx = build_kernel(P11, vbeta(P11, BetaSpec(constant=0.0)))
    assert ctx.atom == pytest.approx(math.exp(-1), rel=1e-12)
    ctx2 = build_kernel(PLN2, vbeta(PLN2, BetaSpec(constant=1.0)))
    assert ctx2.atom == pytest.approx(0.0, abs=1e-12)
    hi = 1.0 / math.expm1(1.0)
    ctx3 = build_kernel(P11, vbeta(P11, BetaSpec(constant=hi)))
    assert ctx3.atom == pytest.approx(
        cf.service_atom(P11, hi), abs=1e-12
    )


def test_cdf_matches_atom_at_zero():
    ctx = build_kernel(P11, vbeta(P11, RAMP))
    assert riccati_service_cdf(ctx, 0.0) == pytest.approx(
        ctx.atom, abs=1e-10
    )


@pytest.mark.parametrize("p,beta", [
    (P11, 0.0), (P11, -0.5), (P11, 0.5819767068693265),
    (PLN2, 1.0), (PLN2, -0.3),
    (validate_queue_params(2.0, 0.5), 1.0),
])
def test_constant_beta_equivalence(p, beta):
    ctx = build_kernel(p, vbeta(p, BetaSpec(constant=beta)))
    ts = np.linspace(0.0, 20.0, 100)
    general = riccati_service_cdf(ctx, ts)
    closed = cf.service_cdf(p, beta, ts)
    assert np.max(np.abs(general - closed)) < 1e-8


def test_tabulated_mean_is_rho_over_lambda():
    for p, spec in [(P11, RAMP),
                    (P11, BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))),
                    (PLN2, BetaSpec(knots=((0.0, -0.5), (3.0, 0.5))))]:
        ctx = build_kernel(p, vbeta(p, spec))
        curve = cf.DistributionCurve(ctx.atom,
                                     lambda t: riccati_service_cdf(ctx, t), ctx.tail_rate)
        assert curve.mean == pytest.approx(p.rho / p.lam, rel=1e-5)


@pytest.mark.parametrize("spec", [BetaSpec(constant=0.2), RAMP,
                                  BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))])
def test_riccati_residual(spec):
    ctx = build_kernel(P11, vbeta(P11, spec))
    assert riccati_residual(ctx, n_points=100) < 1e-3


@pytest.mark.parametrize("c", [1e-2, 1e3, 1e5])
def test_riccati_residual_is_scale_free(c):
    # (lambda, beta, t) -> (c lambda, c beta, t/c) at fixed rho is the same law
    p = validate_queue_params(c, 1.0)
    ctx = build_kernel(p, vbeta(p, BetaSpec(constant=0.2 * c), t_max=50.0 / c))
    base = build_kernel(P11, vbeta(P11, BetaSpec(constant=0.2)))
    assert riccati_residual(ctx) == pytest.approx(riccati_residual(base), abs=1e-9)


def test_quantile_roundtrip_tabulated():
    for spec in (RAMP, BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))):
        ctx = build_kernel(P11, vbeta(P11, spec))
        atom = ctx.atom
        g_knot = riccati_service_cdf(ctx, ctx.t_knot)  # u below it inverts on the grid
        assert riccati_service_quantile(ctx, atom / 2) == 0.0
        for u in (atom + 0.01, 0.5, 0.9, 0.99, g_knot - 1e-3, g_knot, g_knot + 1e-3):
            t = riccati_service_quantile(ctx, u)
            assert riccati_service_cdf(ctx, t) == pytest.approx(u, abs=1e-10)


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0 / math.expm1(1.0), -1.0])
def test_quantile_at_constant_beta_is_the_closed_form(beta):
    ctx = build_kernel(P11, vbeta(P11, BetaSpec(constant=beta)))
    u = np.linspace(0.0, 0.999999, 2001)
    assert np.array_equal(riccati_service_quantile(ctx, u), cf.service_quantile(P11, beta, u))


def test_cdf_monotone_to_one():
    ctx = build_kernel(P11, vbeta(P11, RAMP))
    ts = np.linspace(0.0, 40.0, 1500)
    vals = riccati_service_cdf(ctx, ts)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
