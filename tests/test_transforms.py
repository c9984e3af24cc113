import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mginf import closed_form as cf
from mginf import transforms
from mginf.errors import BetaOutOfRange, NegativeS, StepTooCoarse
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, beta_bounds, validate_queue_params
from mginf.transforms import (
    GridFunction,
    SERIES_BLOCK,
    busy_cycle_cdf_series,
    busy_cycle_laplace,
    busy_period_cdf_series,
    busy_period_laplace_from_service,
    busy_period_laplace_general,
    default_step,
    _fft_size,
    _reciprocal,
)
from mginf.verify import check_transform_consistency, kernel_form_transform

P11 = validate_queue_params(1.0, 1.0)
RAMP = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))
PLN2 = validate_queue_params(1.0, math.log(2))


def law_for(p, beta):
    return ServiceLaw(p, BetaSpec(constant=beta))


# ---- grid convolution: the trapezoid rule the grid solves are tested against --

class StepMismatch(ValueError):
    pass


def _product(a, b, n):
    """First n terms of the linear convolution a * b, by one FFT of a 5-smooth length."""
    a, b = a[:n], b[:n]
    size = _fft_size(len(a) + len(b) - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def grid_convolve(a, b):
    """Trapezoidal discrete convolution with half-weight endpoints."""
    if abs(a.step - b.step) > 1e-15 * max(a.step, b.step):
        raise StepMismatch(f"steps differ: {a.step} vs {b.step}")
    n = min(len(a.values), len(b.values))
    av, bv = a.values[:n], b.values[:n]
    full = _product(av, bv, n)
    trap = a.step * (full - 0.5 * av[0] * bv - 0.5 * av * bv[0])
    return GridFunction(step=a.step, values=trap)


def test_convolve_boxes():
    h = 0.01
    box = GridFunction(h, np.ones(101))  # indicator of [0, 1]
    c = grid_convolve(box, box)
    # triangle apex at t = 1
    assert c.values[100] == pytest.approx(1.0, abs=1e-12)
    assert c.values[50] == pytest.approx(0.5, abs=1e-12)


def test_convolve_exponentials_is_gamma():
    h = 0.001
    ts = np.arange(0, 2001) * h
    e = GridFunction(h, np.exp(-ts))
    c = grid_convolve(e, e)
    # Gamma(2,1) density t e^{-t}; trapezoid is exact for this product
    assert c.values[1000] == pytest.approx(math.exp(-1), abs=1e-12)
    assert np.max(np.abs(c.values - ts[:2001] * np.exp(-ts))) < 1e-10


def test_convolve_commutes():
    h = 0.05
    rng = np.random.default_rng(3)
    a = GridFunction(h, rng.random(64))
    b = GridFunction(h, rng.random(64))
    ab = grid_convolve(a, b).values
    ba = grid_convolve(b, a).values
    assert np.max(np.abs(ab - ba)) < 1e-12 * max(1.0, np.max(np.abs(ab)))


def test_convolve_step_mismatch():
    with pytest.raises(StepMismatch):
        grid_convolve(GridFunction(0.1, np.ones(4)), GridFunction(0.2, np.ones(4)))


# ---- solve kernels: FFT lengths, products, reciprocal, busy-cycle recurrence --

def smooth_numbers(limit):
    """Every 2^a 3^b 5^c <= limit, sorted."""
    return sorted(2**a * 3**b * 5**c for a in range(limit.bit_length()) for b in range(12)
                  for c in range(9) if 2**a * 3**b * 5**c <= limit)


def test_fft_size_is_the_smallest_5_smooth_length():
    smooth = smooth_numbers(6000)
    for n in range(1, 5001):
        assert _fft_size(n) == smooth[np.searchsorted(smooth, n)], n


def reciprocal_lengths():
    """1..39, every 5-smooth length up to 1100 and its neighbours, and 1100."""
    return sorted(set(range(1, 40)) | {1100} | {m + d for m in smooth_numbers(1100)
                                                for d in (-1, 0, 1) if m + d >= 1})


def test_reciprocal_inverts_the_series():
    # a = a0 (1 - u) with |u|_1 = 0.9, as in the grid solve, so 1/a stays bounded
    rng = np.random.default_rng(7)
    for n in reciprocal_lengths():
        u = rng.uniform(-1.0, 1.0, n - 1)
        if n > 1:
            u *= 0.9 / np.abs(u).sum()
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * np.concatenate([[1.0], -u])
        g = _reciprocal(a)
        assert len(g) == n
        one = np.zeros(n)
        one[0] = 1.0
        assert np.max(np.abs(_product(a, g, n) - one)) <= 1e-13, n
        if n <= 300:
            toeplitz = np.tril(a[np.subtract.outer(np.arange(n), np.arange(n)) % n])
            dense = np.linalg.solve(toeplitz, one)
            assert np.max(np.abs(g - dense)) <= 1e-13 * max(1.0, np.max(np.abs(dense))), n


@given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e3, 1e3)),
       hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e3, 1e3)),
       st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_product_matches_np_convolve(a, b, frac):
    n = max(1, int(frac * (len(a) + len(b) - 1)))
    got = _product(a, b, n)
    want = np.convolve(a[:n], b[:n])[:n]
    assert len(got) == len(want)
    scale = math.sqrt(len(a) * len(b)) * np.max(np.abs(a)) * np.max(np.abs(b))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale + 1e-300  # 1e-300: underflow


def test_busy_cycle_recurrence_equals_grid_convolve():
    p3 = validate_queue_params(1.0, 3.0)
    ts = np.arange(14001) * 0.05
    cases = [
        (p3, law_for(p3, 0.0).series[0]),
        (P11, ServiceLaw(P11, RAMP).series[0]),
        # h lambda = 0.05: blocks of 4000 points, three and a half of them
        (p3, GridFunction(0.05, cf.busy_period_cdf(p3, 0.0, ts))),
        # h lambda = 250 > 200: blocks of one point
        (P11, GridFunction(250.0, np.linspace(0.4, 1.0, 7))),
    ]
    for p, b in cases:
        idle = GridFunction(b.step, p.lam * np.exp(-p.lam * b.times))
        want = grid_convolve(idle, b).values
        z = busy_cycle_cdf_series(p, b)
        assert np.max(np.abs(z.values - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), b.step


# ---- Laplace transforms ----------------------------------------------------

def from_service(law, s):
    """The nested-quadrature transform at the one point s."""
    lp, = busy_period_laplace_from_service(law, [s])
    return lp


def test_laplace_from_service_degenerate():
    lp = from_service(law_for(P11, -1.0), 2.0)  # G == 1
    assert lp.value == pytest.approx(1.0, abs=1e-9)


def test_laplace_from_service_frozen_value():
    lp = from_service(law_for(P11, 0.0), 1.0)
    # oracle: exponential-mixture transform G(0) + (1-G(0)) mu/(s+mu)
    assert lp.value == pytest.approx(0.5378828427399902, abs=1e-8)


def test_laplace_from_service_s0_normalization():
    assert from_service(law_for(P11, 0.0), 0.0) == (0.0, 1.0)
    law = law_for(P11, 0.0)
    points = busy_period_laplace_from_service(law, [1.0, 0.0, 0.1])
    assert [lp.s for lp in points] == [1.0, 0.0, 0.1]
    assert points[1].value == 1.0
    # s = 0 does not enter the horizon: the others are as without it
    assert [points[0], points[2]] == busy_period_laplace_from_service(law, [1.0, 0.1])


def reference_laplace_from_service(law, s_points):
    """The nested quadrature with every array formed whole: the in-place route's reference.

    The outer sums are `_romberg`'s, which test_romberg_is_exact_to_degree_seven checks.
    """
    r = law.tail_rate
    s_min = min(s for s in s_points if s > 0)
    t_star = 34.0 / s_min if r == 0.0 else min(34.0 / s_min, law.t_knot + 36.0 / r)
    knots = law.spec.knot_times
    edges = [float(t) for t in knots[knots < t_star]] + [t_star]
    pieces = []  # (start, intervals, step) between knots
    for a, b in zip(edges, edges[1:]):
        n = 16 * max(1, round(2500.0 / t_star * (b - a)))
        pieces.append((a, n, (b - a) / n))
    ts = np.concatenate([a + np.arange(n) * h for a, n, h in pieces] + [[t_star]])
    y = law.params.lam * (1.0 - law.cdf(ts))
    weights = np.concatenate([np.full(n // 2, h / 3.0) for _, n, h in pieces])
    cells = (y[:-2:2] + 4.0 * y[1::2] + y[2::2]) * weights
    inner = np.concatenate([[0.0], np.cumsum(cells)])
    bounds = np.cumsum([0] + [n // 2 for _, n, _ in pieces])
    outer_steps = np.array([2.0 * h for _, _, h in pieces])
    values = []
    for s in s_points:
        integrand = np.exp(-s * ts[::2] - inner)
        j = transforms._romberg(integrand, bounds, outer_steps) + integrand[-1] / s
        values.append(1.0 + (s - 1.0 / j) / law.params.lam)
    return values


def test_romberg_is_exact_to_degree_seven():
    # three Richardson steps over the trapezoid sums integrate a degree-7 polynomial exactly,
    # piece by piece, whatever each piece's spacing
    def poly(t):
        return 1.0 - 2.0 * t + 0.5 * t**3 - 0.25 * t**5 + 0.125 * t**7

    def exact(a, b):
        def prim(t):
            return t - t**2 + t**4 / 8.0 - t**6 / 24.0 + t**8 / 64.0
        return prim(b) - prim(a)

    edges, counts = np.array([0.0, 0.3, 0.35, 1.2]), np.array([16, 8, 40])
    ts = np.concatenate([np.linspace(a, b, n + 1)[:-1] for a, b, n in
                         zip(edges, edges[1:], counts)] + [edges[-1:]])
    bounds = np.concatenate([[0], np.cumsum(counts)])
    got = transforms._romberg(poly(ts), bounds, np.diff(edges) / counts)
    assert got == pytest.approx(exact(0.0, 1.2), abs=1e-14)
    # e^{-5t} at spacing 0.017, the outer nodes' spacing at s = 5 lambda for beta = -lambda:
    # Simpson is off by 5.8e-8, the h^8 term Romberg leaves is 1.8e-12
    x = np.linspace(0.0, 6.8, 401)
    romberg = transforms._romberg(np.exp(-5.0 * x), np.array([0, 400]), np.array([0.017]))
    assert abs(romberg - (1.0 - math.exp(-34.0)) / 5.0) < 5e-12


# 2000 knots of beta = 0.1 sin t on [0, 10]: pieces far narrower than t*/2500, each of 16 intervals
SINE_TABLE = BetaSpec(knots=tuple((float(t), 0.1 * math.sin(t))
                                  for t in np.linspace(0.0, 10.0, 2000)))


@pytest.mark.parametrize("law", [law_for(P11, 0.0), law_for(PLN2, 1.0),
                                 ServiceLaw(P11, RAMP),
                                 ServiceLaw(P11, SINE_TABLE)],
                         ids=["beta=0", "ln2 upper", "ramp", "2000 knots"])
def test_laplace_from_service_is_bit_identical_and_leaves_the_cdf_values_alone(law, monkeypatch):
    returned = []
    cdf = law.cdf

    def owned_cdf(t):  # hands out an array its caller keeps using
        g = cdf(t)
        returned.append((g, g.copy()))
        return g

    points = (0.1, 1.0, 5.0)
    want = reference_laplace_from_service(law, points)
    monkeypatch.setattr(law, "cdf", owned_cdf)
    assert [lp.value for lp in busy_period_laplace_from_service(law, points)] == want
    assert len(returned) == 1
    for g, before in returned:
        assert np.array_equal(g, before)


@pytest.mark.parametrize("law", [law_for(P11, 0.0), ServiceLaw(P11, RAMP)],
                         ids=["beta=0", "ramp"])
def test_laplace_from_service_holds_at_most_four_and_a_half_arrays_of_its_nodes(law):
    # the nodes, the service CDF's two arrays while it runs, then lambda (1 - G) and the
    # half-size prefix; every integrand reuses lambda (1 - G).  The ramp's points before
    # its knot carry the body's own temporaries
    nodes = 40001
    points = [c * law.params.lam for c in (0.1, 0.5, 1.0, 2.0, 5.0)]
    busy_period_laplace_from_service(law, points)
    tracemalloc.start()
    try:
        busy_period_laplace_from_service(law, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * nodes


def test_transform_check_reads_the_service_cdf_once(monkeypatch):
    law = ServiceLaw(P11, RAMP)
    kernel_form = kernel_form_transform(law)
    calls = []
    cdf = law.cdf

    def counted(t):
        calls.append(np.size(t))
        return cdf(t)

    monkeypatch.setattr(law, "cdf", counted)
    check, = check_transform_consistency(law, kernel_form)
    assert check.status == "PASS"
    assert len(calls) == 1 and abs(calls[0] - 40001) <= 16, calls


ACCURACY_POINTS = {
    "rho 1, beta 0": (1.0, 1.0, BetaSpec(constant=0.0)),
    "ramp, rho 1": (1.0, 1.0, RAMP),
    "rho 3, beta 0": (1.0, 3.0, BetaSpec(constant=0.0)),
    "rho 14, beta 0": (1.0, 14.0, BetaSpec(constant=0.0)),
    "rho 14, table": (1.0, 14.0, BetaSpec(knots=((0.0, 0.0), (1.0, -0.2)))),
    "beta -0.9": (1.0, 1.0, BetaSpec(constant=-0.9)),
    "beta -1": (1.0, 1.0, BetaSpec(constant=-1.0)),
    "lambda 100, rho 2, beta -50": (100.0, 2.0, BetaSpec(constant=-50.0)),
}


def transform_gap(law):
    """max |kernel form - nested quadrature| over verify's transform points."""
    kernel_form = kernel_form_transform(law)
    direct = busy_period_laplace_from_service(law, [lp.s for lp in kernel_form])
    return max(abs(k.value - d.value) for k, d in zip(kernel_form, direct))


@pytest.mark.parametrize("lam, rho, spec", ACCURACY_POINTS.values(), ids=ACCURACY_POINTS)
def test_nested_quadrature_matches_the_kernel_form_to_1e_10(lam, rho, spec):
    # Romberg on the outer sum; plain Simpson on the shared nodes left 1.5e-6 at beta = -0.9
    p = validate_queue_params(lam, rho)
    assert transform_gap(ServiceLaw(p, spec)) <= 1e-10


def assert_transform_check_holds(p, spec):
    """verify's transform check PASSes on an admissible law, and its routes agree to 1e-9."""
    try:
        law = ServiceLaw(p, spec)
    except BetaOutOfRange:
        assume(False)
    check, = check_transform_consistency(law, kernel_form_transform(law))
    assert check.status == "PASS", check.detail
    assert transform_gap(law) <= 1e-9


LAMBDAS = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)  # log-uniform on [1e-3, 1e3]
RHOS = st.floats(1e-3, 14.0)
SWEEP = settings(max_examples=100, deadline=2000)  # milliseconds per example


@given(lam=LAMBDAS, rho=RHOS, u=st.floats(0.0, 1.0))
@example(lam=1.0, rho=math.log(2), u=0.0)
@example(lam=1.0, rho=math.log(2), u=1.0)
@example(lam=1.0, rho=math.log(2), u=0.5)
@example(lam=1e-3, rho=14.0, u=0.0)
@example(lam=1e3, rho=14.0, u=1.0)
@example(lam=1e3, rho=1e-3, u=0.0)
@example(lam=1e-3, rho=1e-3, u=1.0)
@SWEEP
def test_transform_check_over_constant_beta(lam, rho, u):
    # beta = (1 - u) lo + u hi covers [lo, hi] = [-lambda, lambda/(e^rho - 1)], ends exactly
    p = validate_queue_params(lam, rho)
    lo, hi = beta_bounds(p)
    assert_transform_check_holds(p, BetaSpec(constant=(1.0 - u) * lo + u * hi))


@given(lam=LAMBDAS, rho=RHOS,
       rows=st.lists(st.tuples(st.floats(0.01, 3.0), st.floats(-0.25, 1.25)),
                     min_size=1, max_size=3))
# kinked tables where one uniform node set over [0, t*] left 1.34e-9 and 1.36e-9
@example(lam=1.0, rho=1.0, rows=[(1.0, 1.0), (0.03125, 0.25)])
@example(lam=1.0, rho=1.0, rows=[(1.0, 1.0), (0.5, 0.125)])
@SWEEP
def test_transform_check_over_tables(lam, rho, rows):
    # knot k at the sum of the first k gaps (the first knot at 0), beta_k = (1 - u_k) lo + u_k hi;
    # the gaps are in units of 1/(lambda + max(lambda, hi)), the kernel's fastest admissible rate
    p = validate_queue_params(lam, rho)
    lo, hi = beta_bounds(p)
    unit = 1.0 / (lam + max(lam, hi))
    ts = np.concatenate([[0.0], np.cumsum([gap for gap, _ in rows[1:]])]) * unit
    assume(np.all(np.diff(ts) > 0))
    knots = tuple((float(t), (1.0 - u) * lo + u * hi) for t, (_, u) in zip(ts, rows))
    assert_transform_check_holds(p, BetaSpec(knots=knots))


def test_laplace_general_frozen_values():
    assert busy_period_laplace_general(law_for(P11, 0.0), 1.0).value == pytest.approx(
        0.5378828427399902, abs=1e-12
    )
    assert busy_period_laplace_general(law_for(PLN2, 1.0), 1.0).value == pytest.approx(
        0.5, abs=1e-12
    )


def test_laplace_general_s0_normalization():
    assert busy_period_laplace_general(law_for(P11, 0.3), 0.0).value == pytest.approx(
        1.0, abs=1e-12
    )


def test_laplace_rejects_negative_s():
    with pytest.raises(NegativeS):
        busy_period_laplace_general(law_for(P11, 0.0), -1.0)
    with pytest.raises(NegativeS):
        busy_period_laplace_from_service(law_for(P11, 0.0), [1.0, -0.5])


def test_busy_cycle_laplace():
    from mginf.transforms import LaplacePoint
    assert busy_cycle_laplace(P11, LaplacePoint(1.0, 0.5378828427399902)).value == (
        pytest.approx(0.2689414213699951, abs=1e-12)
    )
    assert busy_cycle_laplace(P11, LaplacePoint(0.0, 1.0)).value == 1.0
    # for beta = 0 the busy cycle is exponential with rate e^{-1}: at s = mu
    # the transform is exactly 1/2
    mu = math.exp(-1)
    bp = busy_period_laplace_general(law_for(P11, 0.0), mu)
    assert busy_cycle_laplace(P11, bp).value == pytest.approx(0.5, abs=1e-10)


def test_transform_routes_agree():
    for p, beta in [(P11, 0.0), (PLN2, 1.0), (P11, -0.5)]:
        law = law_for(p, beta)
        points = (0.1, 0.5, 1.0, 2.0, 5.0)
        for s, direct in zip(points, busy_period_laplace_from_service(law, points)):
            assert busy_period_laplace_general(law, s).value == pytest.approx(direct.value,
                                                                              abs=1e-5)


@pytest.mark.parametrize("rho", [12.0, 14.0])
def test_nested_quadrature_keeps_to_the_kernel_form_in_heavy_traffic(rho):
    # the nodes span the service law's scale; spread over 40 rho/lambda as well,
    # they left differences of 1.5e-5 and 2.8e-5 at beta = 0, past the 1e-5 gate
    p = validate_queue_params(1.0, rho)
    for spec in (BetaSpec(constant=0.0), BetaSpec(knots=((0.0, 0.0), (1.0, -0.2)))):
        law = ServiceLaw(p, spec)
        check, = check_transform_consistency(law, kernel_form_transform(law))
        assert check.status == "PASS", check.detail


def test_series_transform_consistency():
    # Laplace transform of the series-built B agrees with the kernel-form transform
    law = law_for(P11, 0.0)
    b = busy_period_cdf_series(law)
    ts = b.times
    for s in (0.5, 1.0, 2.0):
        # Stieltjes transform via integration by parts: s * int e^{-st} B dt + tail
        numeric = s * np.trapezoid(np.exp(-s * ts) * b.values, ts) + math.exp(-s * ts[-1])
        assert numeric == pytest.approx(
            busy_period_laplace_general(law, s).value, abs=1e-3
        )


def test_mean_extraction_from_transforms():
    law = law_for(P11, 0.2)
    h = 1e-4
    bbar = lambda s: busy_period_laplace_general(law, s).value
    mean_b = -(bbar(2 * h) - bbar(h)) / h  # one-sided at s = 0+
    assert mean_b == pytest.approx(math.expm1(1.0), rel=1e-2)
    zbar = lambda s: busy_cycle_laplace(P11, busy_period_laplace_general(law, s)).value
    mean_z = -(zbar(2 * h) - zbar(h)) / h
    assert mean_z == pytest.approx(math.e, rel=1e-2)


# ---- grid solve of the busy-period equation ---------------------------------

@pytest.mark.parametrize("spec", [BetaSpec(constant=0.3),
                                  BetaSpec(knots=((0.0, 0.3), (0.5, -0.2), (1.0, 0.1)))])
def test_direct_solve_equals_neumann_sum(spec):
    # 1 - B = (1/lambda) sum_k (w K)^k a, a = w f, w = (1 - e^-rho)/I and
    # K x = grid_convolve(x, f), summed until the terms vanish, on the first 301 points
    law = ServiceLaw(P11, spec)
    b = busy_period_cdf_series(law)
    h = law.step
    assert h == 0.005
    f = GridFunction(h, law.kernel(b.times[:301]))
    w = (1.0 - P11.exp_neg_rho) * law.inv_total
    term = GridFunction(h, w * f.values)
    total = term.values.copy()
    for _ in range(200):
        term = GridFunction(h, w * grid_convolve(term, f).values)
        total += term.values
    assert np.max(np.abs(term.values)) < 1e-17
    assert np.max(np.abs(b.values[:301] - (1.0 - total / P11.lam))) <= 1e-12


def test_direct_solve_in_heavy_traffic():
    # rho = 5 needs ~2000 Neumann terms; the direct solve has no term budget
    p = validate_queue_params(1.0, 5.0)
    b = busy_period_cdf_series(law_for(p, 0.0))
    assert np.max(np.abs(b.values - cf.busy_period_cdf(p, 0.0, b.times))) < 1e-3


def test_series_matches_closed_form_busy_period():
    law = law_for(P11, 0.0)
    b = busy_period_cdf_series(law)
    assert np.max(np.abs(b.values - cf.busy_period_cdf(P11, 0.0, b.times))) < 1e-3


def test_series_purely_exponential_endpoint():
    law = law_for(PLN2, 1.0)
    b = busy_period_cdf_series(law)
    assert np.max(np.abs(b.values - (-np.expm1(-b.times)))) < 1e-3


def test_series_atom_at_zero():
    law = law_for(P11, 0.0)
    b = busy_period_cdf_series(law)
    assert b.values[0] == pytest.approx(math.exp(-1), abs=0.005)


def test_series_busy_cycle_matches_closed_form():
    law = law_for(P11, 0.0)
    z = busy_cycle_cdf_series(P11, busy_period_cdf_series(law))
    assert np.max(np.abs(z.values - cf.busy_cycle_cdf(P11, 0.0, z.times))) < 1e-3
    assert z.values[0] == pytest.approx(0.0, abs=1e-12)


def test_series_busy_cycle_confluent_point():
    law = law_for(PLN2, 1.0)
    z = busy_cycle_cdf_series(PLN2, busy_period_cdf_series(law))
    i = int(round(1.0 / 0.005))
    assert z.values[i] == pytest.approx(1 - 2 / math.e, abs=1e-3)


def test_degenerate_series_curves():
    # beta = -lambda goes through the grid solve like every other law: the
    # density a = (1 - e^{-rho})/I f is 0, so u = 0 and B = 1, and Z is the
    # trapezoidal convolution of 1 with the Exp(lambda) density
    spec = BetaSpec(constant=-1.0)
    sup = {}
    for h in (0.005, 0.0025, 0.00125):
        b, z = ServiceLaw(P11, spec, h).series
        if h == 0.005:  # longer FFTs round more: 1.3e-15 at h = 0.00125
            assert np.max(np.abs(b.values - 1.0)) <= 1e-15
        sup[h] = np.max(np.abs(z.values - (-np.expm1(-z.times))))
    assert sup[0.005] < 3e-6
    assert sup[0.005] / sup[0.0025] >= 3.9 and sup[0.0025] / sup[0.00125] >= 3.9


@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
def test_series_second_order_convergence(rho):
    # the trapezoidal solve is second order for constant beta, atom included
    p = validate_queue_params(1.0, rho)
    spec = BetaSpec(constant=0.0)
    sup = {}
    for h in (0.01, 0.005):
        b = busy_period_cdf_series(ServiceLaw(p, spec, h))
        sup[h] = np.max(np.abs(b.values - cf.busy_period_cdf(p, 0.0, b.times)))
    assert sup[0.01] / sup[0.005] >= 3.9


DIP = ((0.0, 0.0), (1.0, -0.2), (3.0, 0.0))


@pytest.mark.parametrize("make", [
    lambda: law_for(P11, 0.3),
    # heavy traffic and a dip table on their default grids: u >= 0 keeps B at or
    # below 1 here, where a B solved from the bracketed equation exceeded 1 by up to 3e-4
    lambda: law_for(validate_queue_params(1.0, 3.0), 0.0),
    lambda: law_for(validate_queue_params(1.0, 5.0), 0.0),
    lambda: table_law(3.0, DIP),
], ids=["beta_0.3", "rho_3", "rho_5", "dip_table_rho_3"])
def test_series_cdf_shape(make):
    law = make()
    b, z = law.series
    # Z is the trapezoid of the Exp(lambda) idle density against B; those weights sum
    # to (x/2) coth(x/2) = 1 + x^2/12 + ..., x = lambda h, and Z tends to that as B -> 1
    x = law.params.lam * b.step
    for g, top in ((b, 1.0), (z, 0.5 * x / math.tanh(0.5 * x))):
        assert np.all(np.diff(g.values) >= -1e-8)
        assert np.all(g.values >= -1e-8) and np.all(g.values <= top + 1e-12)
    # the law's curves, grid then tail, reach 1 within 12 mean busy periods
    far = 12.0 * math.expm1(law.params.rho) / law.params.lam
    assert law.busy_cdf(far) > 1 - 1e-4 and law.cycle_cdf(far) > 1 - 1e-4


# ---- the block solve past the last knot -------------------------------------

def walked(law, monkeypatch, tail_tol=1e-10):
    """B walked on to the first block end within tail_tol of its tail, and the block length M."""
    with monkeypatch.context() as m:
        m.setattr(transforms, "TAIL_TOL", tail_tol)
        b = busy_period_cdf_series(law).values
    return b, transforms.series_block(law.t_knot, law.step)[1]


def one_block(law, n, monkeypatch):
    """B on n points by the one-block solve (one reciprocal and one product)."""
    with monkeypatch.context() as m:
        m.setattr(transforms, "SERIES_BLOCK", n)
        m.setattr(transforms, "TAIL_TOL", math.inf)
        return busy_period_cdf_series(law).values


def table_law(rho, knots, step=None):
    p = validate_queue_params(1.0, rho)
    return ServiceLaw(p, BetaSpec(knots=knots), step)


# (law, TAIL_TOL of the walk, tolerance): J = 1, J = 10, J = 2000 and J = 6000 (the last
# a body longer than one SERIES_BLOCK); the walk stops once the tail is met that closely
BLOCK_CASES = {
    "rho 3": (lambda: law_for(validate_queue_params(1.0, 3.0), 0.0), 1e-10, 1e-13),
    "rho 5": (lambda: law_for(validate_queue_params(1.0, 5.0), 0.0), 1e-10, 1e-12),
    "rho 3, beta -0.5": (lambda: law_for(validate_queue_params(1.0, 3.0), -0.5), 1e-10, 1e-13),
    "short table": (lambda: table_law(2.0, ((0.0, 0.0), (0.05, 0.1))), 1e-10, 1e-13),
    "ramp, h = 5e-4": (lambda: ServiceLaw(P11, RAMP, 5e-4), 1e-10, 1e-13),
    "long body": (lambda: table_law(1.0, ((0.0, 0.0), (6.0, 0.1), (12.0, 0.2)), 2e-3), 1e-40,
                  1e-13),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_solve_equals_one_block_solve(case, monkeypatch):
    make, tail_tol, tol = BLOCK_CASES[case]
    law = make()
    b, m = walked(law, monkeypatch, tail_tol)
    assert len(b) >= 3 * m, case  # at least three blocks
    assert np.max(np.abs(b - one_block(law, len(b), monkeypatch))) <= tol, case


def test_block_solve_is_causal_across_the_last_knot(monkeypatch):
    # the walk's blocks reach far past t_knot = 30, yet B on [0, 5] solves the trapezoidal
    # equation u = a + K u on [0, 5] alone, here by a dense triangular solve
    from scipy.linalg import solve_triangular, toeplitz
    law = table_law(1.0, ((0.0, 0.0), (30.0, 0.2)))
    b, m = walked(law, monkeypatch, 1e-40)
    assert len(b) >= 3 * m
    h, n = law.step, 1001
    a = (1.0 - P11.exp_neg_rho) * law.inv_total * law.kernel(np.arange(n) * h)
    c = a.copy()
    c[0] *= 0.5
    k = h * toeplitz(c, np.zeros(n))  # K x = h (c * x) - h x_0 a/2
    k[:, 0] -= 0.5 * h * a
    u = solve_triangular(np.eye(n) - k, a, lower=True)
    assert np.max(np.abs(b[:n] - (1.0 - u / P11.lam))) <= 1e-13


def test_block_solve_at_the_degenerate_endpoint_is_exactly_one(monkeypatch):
    # lambda + beta(inf) = 0: 1/I = 0, so a = 0, T = delta and B = 1 - u/lambda = 1 in every
    # block.  Its tail, 1 - B = 0, is met after one block; a stand-in tail e^{-t} walks it on
    law = ServiceLaw(P11, BetaSpec(knots=((0.0, 0.0), (1.0, -1.0))))
    assert law.busy_tail == (0.0, 0.0)
    assert len(law.series[0].values) == SERIES_BLOCK
    monkeypatch.setitem(law.__dict__, "busy_tail", (1.0, 1.0))
    b, m = walked(law, monkeypatch, 1e-40)
    assert len(b) >= 3 * m
    assert np.max(np.abs(b - 1.0)) <= 1e-15


def test_block_solve_memory_per_grid_point(monkeypatch):
    p = validate_queue_params(1.0, 5.0)
    law = law_for(p, 0.0)
    tracemalloc.start()
    try:
        n = len(walked(law, monkeypatch)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n >= 300_000
    assert peak <= 60 * n  # 72 bytes a point with one reciprocal over the whole grid


@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0, 5.0, 8.0, 10.0, 40.0])
@pytest.mark.parametrize("beta", [-0.5, 0.0])
def test_constant_beta_walk_is_one_block(rho, beta):
    # the tail 1 - (1 - G(0)) e^{-gamma t} is exact from t = 0, so the first block meets it
    # within the grid's own error at every rho; the walk used to run to 12 mean busy periods
    # (7.15M points at rho = 8, more than MAX_GRID_POINTS at rho = 10)
    p = validate_queue_params(1.0, rho)
    law = law_for(p, beta)
    b, z = law.series
    assert len(b.values) == SERIES_BLOCK
    assert np.max(np.abs(b.values - cf.busy_period_cdf(p, beta, b.times))) < transforms.TAIL_TOL
    assert np.max(np.abs(z.values - cf.busy_cycle_cdf(p, beta, z.times))) < transforms.TAIL_TOL


TAIL_TABLES = {
    "ramp": ((0.0, 0.0), (1.0, 0.2)),
    "dip": ((0.0, 0.0), (1.0, -0.2), (3.0, 0.0)),
    "small ramp": ((0.0, 0.0), (1.0, 0.004)),
}


@pytest.mark.parametrize("rho", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("name", sorted(TAIL_TABLES))
def test_table_tail_continues_the_walked_grid(name, rho, monkeypatch):
    # past the junction, B and Z of the law (closed form in gamma, C and Z(T)) agree with a
    # grid walked on at the same step, 40 time units further at least
    p = validate_queue_params(1.0, rho)
    law = table_law(rho, TAIL_TABLES[name])
    end = law.series[0].times[-1]
    h = law.step
    b, _ = walked(law, monkeypatch, 1e-40)
    z = busy_cycle_cdf_series(p, GridFunction(h, b)).values
    ts = np.arange(len(b)) * h
    assert ts[-1] >= end + 40.0
    assert np.max(np.abs(law.busy_cdf(ts) - b)) < transforms.TAIL_TOL
    assert np.max(np.abs(law.cycle_cdf(ts) - z)) < transforms.TAIL_TOL


def test_ramp_step_at_small_rho_follows_the_kernel_rate():
    # h = 0.005 on the ramp at rho = 1e-3, where the mean service time is 1e-3: the solve
    # sees only the kernel's rate lambda + max|beta|.  Against an h/8 solve, B is off by
    # 2.8e-9 and Z by 3.1e-6, of which 2.1e-6 is the idle trapezoid's (lambda h)^2/12
    law = table_law(1e-3, TAIL_TABLES["ramp"])
    assert law.step == 0.005
    fine = table_law(1e-3, TAIL_TABLES["ramp"], 0.005 / 8)
    ts = np.linspace(0.0, 30.0, 6001)  # grid and tail
    assert np.max(np.abs(law.busy_cdf(ts) - fine.busy_cdf(ts))) < 3e-9
    assert np.max(np.abs(law.cycle_cdf(ts) - fine.cycle_cdf(ts))) < 4e-6


def test_series_step_too_coarse():
    with pytest.raises(StepTooCoarse):
        ServiceLaw(P11, BetaSpec(constant=0.0), 0.05)


def test_default_step():
    # the step follows lambda and the kernel's rate only
    assert default_step(P11, BetaSpec(constant=0.0)) == pytest.approx(0.005)
    assert default_step(validate_queue_params(1.0, 1e-3), RAMP) == pytest.approx(0.005)
    assert law_for(P11, 0.0).step == default_step(P11, BetaSpec(constant=0.0))


def test_import_leaves_scipy_signal_unloaded():
    code = "import sys, mginf; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_verify_run_never_loads_scipy():
    code = ("import sys, mginf, mginf.cli; "
            "mginf.cli.main(['verify', '--lambda', '1', '--rho', '1', '--beta', '0', "
            "'--cycles', '2000']); "
            "print('LOADED', sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1] == "LOADED []"


# ---- GridFunction plumbing -------------------------------------------------

@given(st.floats(min_value=0.01, max_value=5.0), st.integers(min_value=2, max_value=50))
@settings(max_examples=25, deadline=None)
def test_grid_function_times(h, n):
    g = GridFunction(h, np.zeros(n))
    assert len(g.times) == n
    assert g.times[-1] == pytest.approx((n - 1) * h)
