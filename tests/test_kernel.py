import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mginf import closed_form as cf
from mginf.errors import (BetaOutOfRange, NegativeS, NegativeTime, NonFiniteParameter,
                          ProbabilityOutOfRange)
from mginf.law import ServiceLaw, simpson_weights
from mginf.params import BetaSpec, beta_bounds, validate_beta, validate_queue_params
from mginf.transforms import busy_period_laplace_general, series_block
from mginf.verify import (
    TRANSFORM_S_POINTS, check_bound_ordering, check_busy_tail, check_mean_identities,
    check_riccati_residual, check_series_transform, check_transform_consistency, riccati_residual,
)

P11 = validate_queue_params(1.0, 1.0)
PLN2 = validate_queue_params(1.0, math.log(2))

RAMP = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))


def test_cumulative_beta_constant():
    assert BetaSpec(constant=0.25).cumulative(4.0) == pytest.approx(1.0, rel=1e-14)
    assert BetaSpec(constant=-1.0).cumulative(3.0) == pytest.approx(-3.0, rel=1e-14)


def test_cumulative_beta_triangle():
    spec = BetaSpec(knots=((0.0, 0.0), (2.0, 2.0)))
    assert spec.cumulative(2.0) == pytest.approx(2.0, rel=1e-14)


def test_cumulative_beta_additive():
    full = RAMP.cumulative(3.7)
    part = RAMP.cumulative(1.2)
    rest = 0.2 * (3.7 - 1.2)  # beta is 0.2 beyond its last knot at t = 1
    assert full == pytest.approx(part + rest, rel=1e-14)


def test_kernel_integral_constant_zero():
    law = ServiceLaw(P11, BetaSpec(constant=0.0))
    assert 1.0 / law.inv_total == pytest.approx(1.0, rel=1e-14)


def test_kernel_integral_constant_one():
    law = ServiceLaw(PLN2, BetaSpec(constant=1.0))
    assert 1.0 / law.inv_total == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("spec", [BetaSpec(constant=-1.0),
                                  BetaSpec(knots=((0.0, 0.0), (1.0, -1.0)))])
def test_kernel_at_degenerate_endpoint_is_the_unit_atom(spec):
    # lambda + beta(inf) = 0: the kernel integral diverges, 1/I = 0, and G == 1
    law = ServiceLaw(P11, spec)
    assert law.inv_total == 0.0
    assert law.atom == 1.0
    ts = np.linspace(0.0, 50.0, 1001)
    assert np.all(law.cdf(ts) == 1.0)
    assert np.all(law.quantile(np.linspace(0.0, 0.999999, 101)) == 0.0)
    assert np.all(law.p00(ts) == 1.0)


def test_kernel_divergent_below_degenerate_endpoint():
    # lambda + beta(inf) = -0.5 < 0: f grows without bound.  The running average
    # tends to beta(inf) = -1.5 < -lambda, so validation rejects the table, and
    # the law, which certifies its own spec, refuses it too.
    spec = BetaSpec(knots=((0.0, 0.0), (1.0, -1.5)))
    with pytest.raises(BetaOutOfRange, match="at t=inf is -1.5"):
        validate_beta(P11, spec)
    with pytest.raises(BetaOutOfRange, match="at t=inf is -1.5"):
        ServiceLaw(P11, spec)


def test_law_certifies_its_own_params_before_building_anything(monkeypatch):
    # beta = 5 is admissible at rho = 0.1 (hi = 9.51) and not at rho = 3 (hi = 0.0524).  A
    # certificate for other params used to be accepted: the law then had G(0) = -4.70.
    def no_build(*args):
        raise AssertionError("the law started building before certifying its beta")
    monkeypatch.setattr("mginf.law.default_step", no_build)
    monkeypatch.setattr("mginf.transforms.series_block", no_build)
    spec = BetaSpec(constant=5.0)
    validate_beta(validate_queue_params(1.0, 0.1), spec)
    with pytest.raises(BetaOutOfRange, match="running average"):
        ServiceLaw(validate_queue_params(1.0, 3.0), spec)


def test_kernel_integral_ramp_against_quadrature():
    from scipy.integrate import quad
    law = ServiceLaw(P11, RAMP)
    body, _ = quad(lambda t: math.exp(-t - float(RAMP.cumulative(t))), 0.0, 1.0,
                   epsabs=1e-14, epsrel=1e-13)
    tail = math.exp(-1.0 - 0.1) / 1.2  # exponential beyond the last knot
    assert 1.0 / law.inv_total == pytest.approx(body + tail, rel=1e-10)


def test_atom_identity():
    # lambda * (1 - G(0)) * I = 1 - e^{-rho}
    for p, spec in [(P11, BetaSpec(constant=0.0)), (P11, RAMP),
                    (PLN2, BetaSpec(constant=1.0)),
                    (P11, BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1))))]:
        law = ServiceLaw(p, spec)
        lhs = p.lam * (1.0 - law.atom) / law.inv_total
        assert lhs == pytest.approx(1.0 - p.exp_neg_rho, rel=1e-8)


def test_atom_values():
    law = ServiceLaw(P11, BetaSpec(constant=0.0))
    assert law.atom == pytest.approx(math.exp(-1), rel=1e-12)
    law2 = ServiceLaw(PLN2, BetaSpec(constant=1.0))
    assert law2.atom == pytest.approx(0.0, abs=1e-12)
    hi = 1.0 / math.expm1(1.0)
    law3 = ServiceLaw(P11, BetaSpec(constant=hi))
    assert law3.atom == pytest.approx(
        cf.service_atom(P11, hi), abs=1e-12
    )


def test_cdf_matches_atom_at_zero():
    law = ServiceLaw(P11, RAMP)
    assert law.cdf(0.0) == pytest.approx(law.atom, abs=1e-10)


@pytest.mark.parametrize("p,beta", [
    (P11, 0.0), (P11, -0.5), (P11, 0.5819767068693265),
    (PLN2, 1.0), (PLN2, -0.3),
    (validate_queue_params(2.0, 0.5), 1.0), (P11, -1.0),
])
def test_constant_beta_equivalence(p, beta):
    law = ServiceLaw(p, BetaSpec(constant=beta))
    ts = np.linspace(0.0, 40.0, 4001)
    general = law.cdf(ts)
    closed = cf.service_cdf(p, beta, ts)
    assert np.max(np.abs(general - closed)) <= 1e-15
    assert law.cdf(1.5) == pytest.approx(float(cf.service_cdf(p, beta, 1.5)), abs=1e-15)


def test_tabulated_mean_is_rho_over_lambda():
    from scipy.integrate import quad

    for p, spec in [(P11, RAMP),
                    (P11, BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))),
                    (PLN2, BetaSpec(knots=((0.0, -0.5), (3.0, 0.5))))]:
        law = ServiceLaw(p, spec)
        pieces = np.append(law.spec.knot_times, np.inf)  # G'' jumps at each knot
        mean = sum(quad(lambda t: 1.0 - law.cdf(t), a, b)[0] for a, b in zip(pieces, pieces[1:]))
        assert mean == pytest.approx(p.rho / p.lam, rel=1e-5)


@pytest.mark.parametrize("spec", [BetaSpec(constant=0.2), RAMP,
                                  BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))])
def test_riccati_residual(spec):
    law = ServiceLaw(P11, spec)
    assert riccati_residual(law) < 1e-3


def test_riccati_residual_sees_a_defect_in_heavy_traffic():
    # G lives on the 1/(lambda + max|beta|) scale: at rho = 8 a defect of size 1e-2 on
    # [0, 30] must show, where the busy-cycle scale e^rho/lambda put every sample at G == 1
    p = validate_queue_params(1.0, 8.0)
    law = ServiceLaw(p, BetaSpec(constant=0.0))
    assert riccati_residual(law) < 1e-10
    exact = law.cdf
    law.cdf = lambda t: exact(t) + 1e-2 * t * np.exp(-t)
    assert riccati_residual(law) > 1e-3


@pytest.mark.parametrize("c", [1e-2, 1e3, 1e5])
def test_riccati_residual_is_scale_free(c):
    # (lambda, beta, t) -> (c lambda, c beta, t/c) at fixed rho is the same law
    p = validate_queue_params(c, 1.0)
    law = ServiceLaw(p, BetaSpec(constant=0.2 * c))
    base = ServiceLaw(P11, BetaSpec(constant=0.2))
    assert riccati_residual(law) == pytest.approx(riccati_residual(base), abs=1e-9)


def test_quantile_roundtrip_tabulated():
    for spec in (RAMP, BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))):
        law = ServiceLaw(P11, spec)
        atom = law.atom
        g_knot = law.cdf(law.t_knot)  # u below it inverts on the grid
        assert law.quantile(atom / 2) == 0.0
        for u in (atom + 0.01, 0.5, 0.9, 0.99, g_knot - 1e-3, g_knot, g_knot + 1e-3):
            t = law.quantile(u)
            assert law.cdf(t) == pytest.approx(u, abs=1e-10)


# at beta < 0 the closed form's log argument is <= 0 for every u below the atom
@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0 / math.expm1(1.0), -0.5, -0.9, -1.0])
def test_quantile_at_constant_beta_is_the_closed_form(beta):
    law = ServiceLaw(P11, BetaSpec(constant=beta))
    u = np.linspace(0.0, 0.999999, 2001)
    assert np.array_equal(law.quantile(u), cf.service_quantile(P11, beta, u))


def test_cdf_monotone_to_one():
    law = ServiceLaw(P11, RAMP)
    ts = np.linspace(0.0, 40.0, 1500)
    vals = law.cdf(ts)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


def test_kernel_grid_step_follows_the_kernel_rate():
    # the kernel f decays at rate lambda + beta, whatever rho is: at rho = 1e-4
    # the grid on [0, 1] has 1200 cells, not 1/(1e-3 rho) = 10^7
    p = validate_queue_params(1.0, 1e-4)
    law = ServiceLaw(p, RAMP)
    assert law.grid_t.size <= 2000
    u = np.linspace(law.atom, law.g_knot, 101)[1:-1]
    assert np.max(np.abs(law.cdf(law.quantile(u)) - u)) <= 1e-15


THREE_KNOTS = BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))


@pytest.mark.parametrize("spec", [BetaSpec(constant=0.0), THREE_KNOTS])
def test_quantile_rejects_u_outside_the_unit_interval(spec):
    law = ServiceLaw(P11, spec)
    for bad in (math.nan, 1.0, -0.1):
        with pytest.raises(ProbabilityOutOfRange):
            law.quantile(bad)
        with pytest.raises(ProbabilityOutOfRange):
            law.quantile(np.array([0.5, bad, 0.25]))
    empty = law.quantile(np.zeros(0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("rho", [0.5, 1.0])
@pytest.mark.parametrize("spec", [RAMP, THREE_KNOTS])
def test_quantile_is_at_least_the_last_knot_from_its_cdf_value_on(rho, spec):
    # the tail expression at u = G(t_knot) may round below t_knot (THREE_KNOTS at rho = 0.5
    # did); its logarithm's argument is clamped to at least 1, so it never gives less
    law = ServiceLaw(validate_queue_params(1.0, rho), spec)
    u = law.g_knot + np.arange(2000) * np.spacing(law.g_knot)
    assert np.all(law.quantile(u) >= law.t_knot)


@pytest.mark.parametrize("rho", [0.5, 1.0])
@pytest.mark.parametrize("spec", [RAMP, THREE_KNOTS])
def test_body_quantile_round_trips_to_rounding(rho, spec):
    # the Hermite start leaves the one exact Newton step an error it squares away;
    # a cruder start (the tangent at the cell's left end) fails the bound on all four
    p = validate_queue_params(1.0, rho)
    law = ServiceLaw(p, spec)
    u = np.linspace(law.atom, law.g_knot, 20001)[1:-1]
    assert np.max(np.abs(law.cdf(law.quantile(u)) - u)) <= 1e-15


def integral_route(law, ts):
    """f = exp(-lambda t - int beta) and Phi = Phi(t_knot) + fine Simpson of f past t_knot."""
    f = np.exp(-law.params.lam * ts - law.spec.cumulative(ts))
    n = 2**16  # Simpson cells on [t_knot, t]: error (r h)^4/180, under 1e-16 here
    mass = []
    for t in ts:
        u = np.linspace(law.t_knot, t, 2 * n + 1)
        fu = np.exp(-law.params.lam * u - law.spec.cumulative(u))
        h = (t - law.t_knot) / (2 * n)
        simpson = h / 3.0 * (fu[0] + fu[-1] + 4.0 * fu[1:-1:2].sum() + 2.0 * fu[2:-1:2].sum())
        mass.append(law.inv_total * law.grid_prefix[-1] + law.inv_total * simpson)
    return f, np.array(mass)


@pytest.mark.parametrize("spec", [RAMP, THREE_KNOTS])
def test_tail_closed_form_matches_integral_route(spec):
    law = ServiceLaw(P11, spec)
    ts = law.t_knot + np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    f, mass = integral_route(law, ts)
    assert np.allclose(law.kernel(ts), f, rtol=2e-15, atol=0)
    assert np.allclose(law.p00(ts), 1.0 - (1.0 - P11.exp_neg_rho) * mass, rtol=2e-15, atol=0)
    g = 1.0 - (1.0 - P11.exp_neg_rho) * law.inv_total * f / (1.0 - (1.0 - P11.exp_neg_rho) * mass)
    assert np.allclose(law.cdf(ts), g, rtol=2e-15, atol=0)


@pytest.mark.parametrize("spec", [RAMP, THREE_KNOTS])
def test_kernel_mass_and_cdf_are_continuous_at_the_last_knot(spec):
    law = ServiceLaw(P11, spec)
    around = np.array([np.nextafter(law.t_knot, 0.0), law.t_knot, np.nextafter(law.t_knot, 9.0)])
    for fn in (law.kernel, law.cdf, law.p00):
        vals = fn(around)
        assert np.max(np.abs(np.diff(vals))) <= 2e-15 * np.max(np.abs(vals))
    assert law.cdf(law.t_knot) == law.g_knot


FLAT = BetaSpec(knots=((0.0, -0.5), (1.0, -0.5)))


@pytest.mark.parametrize("rho,beta,spec", [
    *((rho, 0.0, BetaSpec(constant=0.0)) for rho in (10.0, 20.0, 30.0, 36.0)),
    # a flat table, whose tail starts at t = 1
    *((rho, -0.5, FLAT) for rho in (10.0, 20.0, 30.0, 36.0)),
])
def test_cdf_and_p00_do_not_cancel_in_heavy_traffic(rho, beta, spec):
    # past the last knot p00 = e^-rho + (1 - e^-rho) m e^{-r (t - t_knot)}, two positive
    # terms; 1 - (1 - e^-rho) Phi put G off by 0.08 at rho = 36
    p = validate_queue_params(1.0, rho)
    law = ServiceLaw(p, spec)
    ts = np.linspace(0.0, 80.0, 8001)
    assert np.max(np.abs(law.cdf(ts) - cf.service_cdf(p, beta, ts))) <= 1e-13
    want = cf.empty_probability(p, beta, ts)
    assert np.max(np.abs(law.p00(ts) / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("spec", [BetaSpec(knots=((0.0, 0.0), (1.0, 0.0))), FLAT])
def test_flat_table_at_rho_36_is_certified_like_its_constant(spec):
    # beta + lambda G rounds to -3 ulps of lambda at t = 0 for beta = 0, within the slack
    p = validate_queue_params(1.0, 36.0)
    ServiceLaw(p, spec)


def test_table_below_the_certificate_floor_by_1e_9_is_rejected():
    # beta rises from -d to 0 on [0, 1], so to first order in d the kernel integral is
    # I = 1 + d/e and, at rho = 36, beta(0) + lambda G(0) = -d + 1 - 1/I = -(1 - 1/e) d
    d = 1.6e-9
    spec = BetaSpec(knots=((0.0, -d), (1.0, 0.0)))
    p = validate_queue_params(1.0, 36.0)
    assert -1.02e-9 < -(1.0 - math.exp(-1.0)) * d < -1e-9
    with pytest.raises(BetaOutOfRange, match="at t=0:"):
        ServiceLaw(p, spec)


@pytest.mark.parametrize("rho", [20.0, 30.0])
def test_table_p00_does_not_cancel_before_the_last_knot(rho):
    # the flat table to t = 40 is beta = 0 with its whole body before the knot, where
    # 1 - (1 - e^-rho) Phi cancelled down to 1e-16 e^rho relative (1e-3 at rho = 30);
    # e^-rho + (1 - e^-rho)(1 - Phi), 1 - Phi from the reverse sums, does not
    p = validate_queue_params(1.0, rho)
    law = ServiceLaw(p, BetaSpec(knots=((0.0, 0.0), (40.0, 0.0))))
    ts = np.linspace(0.0, 40.0, 4001)
    assert np.max(np.abs(law.p00(ts) / cf.empty_probability(p, 0.0, ts) - 1.0)) <= 1e-12
    assert np.max(np.abs(law.cdf(ts) - cf.service_cdf(p, 0.0, ts))) <= 1e-12


@pytest.mark.parametrize("rho", [0.1, 1.0, 3.0, 8.0])
@pytest.mark.parametrize("beta", [-0.5, 0.0])
def test_busy_tail_of_a_flat_table_is_its_constant(rho, beta):
    # 1 - B = (1 - G(0)) e^{-(lambda + beta) e^{-rho} t} exactly for constant beta; the flat
    # table gets (gamma, C) from Newton steps on Simpson sums over its kernel grid
    p = validate_queue_params(1.0, rho)
    want = ((p.lam + beta) * p.exp_neg_rho, 1.0 - cf.service_cdf(p, beta, 0.0))
    for spec in (BetaSpec(constant=beta), BetaSpec(knots=((0.0, beta), (1.0, beta)))):
        got = ServiceLaw(p, spec).busy_tail
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), spec


@pytest.mark.parametrize("spec", [RAMP, THREE_KNOTS], ids=["ramp", "three knots"])
def test_kernel_moments_against_quadrature(spec):
    # L(g) - 1 and L'(g), L(g) = int e^{g t} phi, by adaptive quadrature of the law's own
    # kernel between its knots and over 80 e-foldings past the last one: the transform
    # route at g = -s and the tail root's sums at g = gamma/2
    from scipy.integrate import quad
    law = ServiceLaw(P11, spec)
    knots = [t for t, _ in spec.knots]
    for g in (-0.1, -1.0, -5.0, 0.5 * law.busy_tail[0]):
        edges = knots + [knots[-1] + 80.0 / (law.tail_rate - g)]

        def moment(k):
            fn = lambda t: t**k * math.exp(g * t) * law.kernel(t) * law.inv_total
            return sum(quad(fn, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                       for a, b in zip(edges[:-1], edges[1:]))

        d0, d1 = law.kernel_moments(g)
        assert d0 == pytest.approx(moment(0) - 1.0, abs=1e-10), g
        assert d1 == pytest.approx(moment(1), abs=1e-10), g


def test_kernel_moments_at_the_degenerate_endpoint():
    # phi == 0, so L == 0, and the transform route gives the busy period's B(s) = 1 exactly
    for spec in (BetaSpec(constant=-1.0), BetaSpec(knots=((0.0, 0.0), (1.0, -1.0)))):
        law = ServiceLaw(P11, spec)
        for s in (0.1, 1.0, 5.0):
            assert law.kernel_moments(-s) == (-1.0, 0.0)
        assert list(busy_period_laplace_general(law, [0.1, 1.0, 5.0])) == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("spec", [BetaSpec(constant=-1.0),
                                  BetaSpec(knots=((0.0, 0.0), (1.0, -1.0)))])
def test_busy_tail_at_the_degenerate_endpoint_has_no_weight(spec):
    # lambda + beta(inf) = 0: B == 1, so C = 0
    gamma, c = ServiceLaw(P11, spec).busy_tail
    assert c == 0.0 and gamma == 0.0


def reference_kernel(law, t):
    """f, p00 and G on np.atleast_1d(t), each formula written out whole as one expression.

    The reference for the in-place evaluator: the same operations in the same
    order, from the law's cached constants and kernel grid.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lam, q0 = law.params.lam, law.params.exp_neg_rho
    x = -law.tail_rate * np.maximum(t - law.t_knot, 0.0)
    ex = np.exp(x)
    f = law.f_knot * ex
    p00 = q0 + (1.0 - q0) * law.tail_mass * ex
    body = t < law.t_knot
    if body.any():
        tb = t[body]
        f[body] = fb = np.exp(-lam * tb - law.spec.cumulative(tb))
        idx = np.clip((tb // law.grid_t[1]).astype(int), 0, len(law.grid_t) - 1)
        t0 = law.grid_t[idx]
        dt = tb - t0
        tm = t0 + 0.5 * dt
        fm = np.exp(-lam * tm - law.spec.cumulative(tm))
        cell = dt / 6.0 * (law.grid_f[idx] + 4.0 * fm + fb)
        near = 1.0 - (1.0 - q0) * (law.inv_total * (law.grid_prefix[idx] + cell))
        far = q0 + (1.0 - q0) * (law.inv_total * (law.grid_suffix[idx] - cell) + law.tail_mass)
        p00[body] = np.where(near < 0.5, far, near)
    g = 1.0 - (1.0 - q0) * (law.inv_total * f) / (lam * p00)
    return {"kernel": f, "p00": p00, "cdf": g}


EVALUATOR_SPECS = {
    "beta=-lambda": BetaSpec(constant=beta_bounds(P11)[0]),
    "beta=0": BetaSpec(constant=0.0),
    "beta=0.3": BetaSpec(constant=0.3),
    "beta=upper": BetaSpec(constant=beta_bounds(P11)[1]),
    "ramp": RAMP,
    "three knots": THREE_KNOTS,
}


@pytest.mark.parametrize("name", sorted(EVALUATOR_SPECS))
def test_evaluator_is_bit_identical_to_its_formulas(name):
    law = ServiceLaw(P11, EVALUATOR_SPECS[name])
    knot = law.t_knot
    ts = np.concatenate([np.linspace(0.0, knot + 3.0, 401), [np.nextafter(knot, 0.0), knot,
                         np.nextafter(knot, 9.0), knot + 1e-9, knot + 40.0, 1e3]])
    want = reference_kernel(law, ts)
    for fn, values in want.items():
        got = getattr(law, fn)(ts)
        assert got.shape == ts.shape and np.array_equal(got, values), fn
        for i in (0, 100, 401, 403, -1):  # float and 0-d inputs give floats
            for t in (float(ts[i]), np.array(ts[i])):
                v = getattr(law, fn)(t)
                assert type(v) is float and v == values[i], (fn, t)


@pytest.mark.parametrize("spec", [BetaSpec(constant=0.0), RAMP])
def test_evaluator_rejects_negative_time_and_passes_nan(spec):
    law = ServiceLaw(P11, spec)
    for fn in (law.kernel, law.p00, law.cdf, law.busy_cdf, law.cycle_cdf):
        for t in (-1e-300, [0.5, -1.0], [np.nan, -1.0], np.array([[0.5], [-2.0]])):
            with pytest.raises(NegativeTime):
                fn(t)
        assert math.isnan(fn(np.nan))
        got = fn([np.nan, 0.5, -0.0])
        assert math.isnan(got[0]) and np.array_equal(got[1:], [fn(0.5), fn(0.0)])


def test_service_cdf_rejects_p00_at_or_below_zero_but_not_nan():
    law = ServiceLaw(P11, RAMP)
    for p00 in ([0.5, 0.0], [np.nan, -0.0], [1.0, -1e-300]):
        with pytest.raises(NonFiniteParameter, match="p00"):
            law._service_cdf(np.ones(2), np.array(p00))
    g = law._service_cdf(np.ones(2), np.array([np.nan, 1.0]))
    assert math.isnan(g[0]) and g[1] == law.atom


@pytest.mark.parametrize("spec", [RAMP, THREE_KNOTS])
def test_body_branch_is_the_cdf_before_the_last_knot(spec):
    # the table quantile's Newton step reads G from the body branch alone
    law = ServiceLaw(P11, spec)
    tb = np.linspace(0.0, np.nextafter(law.t_knot, 0.0), 4001)
    assert np.array_equal(law._service_cdf(*law._body(tb)), law.cdf(tb))


@pytest.mark.parametrize("spec", [BetaSpec(constant=0.0), RAMP])
def test_cdf_and_p00_hold_at_most_three_arrays_of_their_points(spec):
    # e^x is formed in the array that becomes f, and G in it too; p00 is the second
    # array.  Points before the last knot (1/30 of these on the ramp) carry the
    # body's own temporaries.
    law = ServiceLaw(P11, spec)
    n = 100_000
    ts = np.linspace(0.0, 30.0, n)
    for fn in (law.cdf, law.p00):
        fn(ts)
        tracemalloc.start()
        try:
            fn(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n


# ---- property sweeps over the admissible range ------------------------------

LAMBDAS = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)  # log-uniform on [1e-3, 1e3]
RHOS = st.floats(1e-3, 14.0)
SWEEP = settings(max_examples=100, deadline=2000)  # milliseconds per example

# A constant law's (gamma, C) come from Newton steps and L'(gamma), a few roundings
# more than the closed forms take: over 34,000 draws of this domain its B and Z
# differed from them by at most 8.9e-16 (4 ulps of 1), and by over 4.4e-16 in 1-2 %.
CLOSED_FORM_TOL = 1.1e-15


def constant_law(lam, rho, u):
    """The law at beta = (1 - u) lo + u hi, [lo, hi] the admissible range, ends exactly."""
    p = validate_queue_params(lam, rho)
    lo, hi = beta_bounds(p)
    return ServiceLaw(p, BetaSpec(constant=(1.0 - u) * lo + u * hi))


@given(lam=LAMBDAS, rho=RHOS, u=st.floats(0.0, 1.0))
@example(lam=1.0, rho=math.log(2), u=0.0)
@example(lam=1.0, rho=math.log(2), u=0.5)
@example(lam=1.0, rho=math.log(2), u=1.0)
# gamma near r: C from the difference r - gamma was off by 6e-14 relative here
@example(lam=1.0, rho=1e-3, u=1.0)
@example(lam=1e3, rho=14.0, u=0.0)
@SWEEP
def test_constant_busy_and_cycle_laws_are_their_closed_forms(lam, rho, u):
    law = constant_law(lam, rho, u)
    p, beta = law.params, law.spec.constant
    ts = np.linspace(0.0, 30.0 * math.exp(rho) / lam, 2000)  # 30 mean busy cycles
    assert np.max(np.abs(law.busy_cdf(ts) - cf.busy_period_cdf(p, beta, ts))) <= CLOSED_FORM_TOL
    assert np.max(np.abs(law.cycle_cdf(ts) - cf.busy_cycle_cdf(p, beta, ts))) <= CLOSED_FORM_TOL
    # the series grids, read through their transforms, against the kernel form, the means and
    # the tail
    s = lam * np.array(TRANSFORM_S_POINTS)
    checks = check_series_transform(law, s, busy_period_laplace_general(law, s))
    for check in checks + check_mean_identities(law) + check_busy_tail(law):
        assert check.status == "PASS", check


@pytest.mark.parametrize("n", [3, 4, 5, 8, 4096])
def test_simpson_weights_integrate_cubics_exactly(n):
    # even cell counts are Simpson alone, odd ones end in the 3/8 rule (n = 4: that rule alone)
    t = np.linspace(0.0, 2.0, n)
    assert simpson_weights(n, t[1]) @ (t**3 - t + 1.0) == pytest.approx(4.0, rel=1e-13)


def test_survival_transforms_reject_negative_s():
    with pytest.raises(NegativeS):
        ServiceLaw(P11, RAMP).survival_transforms([1.0, -1e-300])


# f(t_knot) = 1.7e-98: the tail root (1 - e^{-rho}) L(gamma) = 1 lies about 1e-97 below r = 4.33
TAIL_BELOW_R = (validate_queue_params(23.678261386205403, 0.005483567916047305),
                BetaSpec(knots=((0.0, 929.8632), (0.0684, 2944.7731), (0.1296, -19.3484))))


def test_a_tail_root_below_the_resolution_of_r_passes_every_deterministic_check():
    law = ServiceLaw(*TAIL_BELOW_R)
    s = law.params.lam * np.array(TRANSFORM_S_POINTS)
    kernel_form = busy_period_laplace_general(law, s)
    # all but the Monte Carlo lines and the envelope line, whose paper floors are false here;
    # the ceiling holds
    checks = (check_series_transform(law, s, kernel_form) + check_busy_tail(law)
              + check_mean_identities(law) + check_bound_ordering(law)[1:]
              + check_transform_consistency(law, s, kernel_form) + check_riccati_residual(law))
    assert [c for c in checks if c.status != "PASS"] == []


def test_a_tail_root_below_the_resolution_of_r_is_held_by_x():
    law = ServiceLaw(*TAIL_BELOW_R)
    r, (gamma, c) = law.tail_rate, law.busy_tail
    q0, w = law.params.exp_neg_rho, -math.expm1(-law.params.rho)
    # gamma rounds to r: x = r - gamma is the tail root, solved from the tail term of L at g = r
    x = w * law.inv_total * law.kernel(law.t_knot) * math.exp(r * law.t_knot) / (
        q0 - w * law.kernel_moments(r, math.inf)[0])
    assert gamma == r and 1e-98 < x < 1e-96
    # F/(r - g) = e^{-rho} - (1 - e^{-rho})(L - 1) changes sign across the root
    left, right = (q0 - w * law.kernel_moments(r, k * x)[0] for k in (2.0, 0.5))
    assert left > 0.0 > right
    assert c == pytest.approx(1.0 / (law.params.lam * w * law.kernel_moments(r, x)[1]), rel=1e-15)
    assert 0.0 < c < 1e-98  # it was 7738 when the root's last step left [0, r)
    b = law.series[0]
    assert b.values.size == series_block(law.t_knot, law.step)[1]  # one block, not 9
    end = (b.values.size - 1) * b.step
    # 1 - B is continuous at T: the grid and the tail just past it agree to the grid's error
    assert abs(law.busy_cdf(end) - law.busy_cdf(math.nextafter(end, math.inf))) <= 1e-12
    assert abs(law.cycle_cdf(end) - law.cycle_cdf(math.nextafter(end, math.inf))) <= 1e-12


@given(lam=LAMBDAS, rho=RHOS, u=st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99))
@example(lam=1.0, rho=math.log(2), u=0.0)
@example(lam=1.0, rho=math.log(2), u=1.0)
@SWEEP
def test_paper_floors_pass_at_the_endpoints_and_fail_inside(lam, rho, u):
    # the floors are the laws at the upper end, which every interior law of the same mean
    # crosses; from 1 % of the range inside either end that crossing exceeds the slack
    busy, cycle, ceiling = check_bound_ordering(constant_law(lam, rho, u))
    want = "PASS" if u in (0.0, 1.0) else "FAIL"
    assert (busy.status, cycle.status, ceiling.status) == (want, want, "PASS")


@pytest.mark.parametrize("rho, u, want", [
    (3.0, 1e-6, ("FAIL", "FAIL")),  # crossed by 1e-6, far past 12 mean cycles
    (14.0, 1e-6, ("FAIL", "FAIL")),
    (1e-3, 0.999, ("FAIL", "PASS")),  # the cycle floor is crossed by 9.9e-10 < 1e-9
])
def test_a_floor_fails_only_where_its_crossing_exceeds_the_slack(rho, u, want):
    busy, cycle, _ = check_bound_ordering(constant_law(1.0, rho, u))
    assert (busy.status, cycle.status) == want


@given(lam=LAMBDAS, rho=RHOS, c=st.sampled_from([0.01, 4.0, 37.0]), constant=st.booleans(),
       rows=st.lists(st.tuples(st.floats(0.01, 3.0), st.floats(-0.25, 1.25)),
                     min_size=1, max_size=3))
@SWEEP
def test_laws_are_invariant_under_time_scaling(lam, rho, c, constant, rows):
    # (lambda, beta(t), t) -> (c lambda, c beta(t/c), t/c) leaves G, B and Z as they are.
    # Knot k sits at the sum of the first k gaps, in units of 1/(lambda + max(lambda, hi)),
    # with beta_k = (1 - u_k) lo + u_k hi; a constant is beta_0.  Measured: 7e-15 at most.
    p = validate_queue_params(lam, rho)
    lo, hi = beta_bounds(p)
    ts = np.concatenate([[0.0], np.cumsum([gap for gap, _ in rows[1:]])]) / (lam + max(lam, hi))
    assume(np.all(np.diff(ts) > 0))
    knots = [(float(t), (1.0 - u) * lo + u * hi) for t, (_, u) in zip(ts, rows)]

    def law(scale):
        q = validate_queue_params(scale * lam, rho)
        spec = (BetaSpec(constant=scale * knots[0][1]) if constant
                else BetaSpec(knots=tuple((t / scale, scale * b) for t, b in knots)))
        try:
            return ServiceLaw(q, spec)
        except BetaOutOfRange:
            assume(False)

    base, scaled = law(1.0), law(c)
    t = np.linspace(0.0, 30.0 * math.exp(rho) / lam, 2000)
    for fn in ("cdf", "busy_cdf", "cycle_cdf"):
        assert np.max(np.abs(getattr(base, fn)(t) - getattr(scaled, fn)(t / c))) <= 1e-13, fn
