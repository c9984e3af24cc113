import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mginf import closed_form as cf
from mginf.errors import NegativeS, StepMismatch, StepTooCoarse
from mginf.kernel import build_kernel, riccati_service_cdf
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, validate_beta, validate_queue_params
from mginf.transforms import (
    GridFunction,
    GridSpec,
    busy_cycle_cdf_series,
    busy_cycle_laplace,
    busy_period_cdf_series,
    busy_period_laplace_from_service,
    busy_period_laplace_general,
    default_grid,
    grid_convolve,
)

P11 = validate_queue_params(1.0, 1.0)
PLN2 = validate_queue_params(1.0, math.log(2))


def ctx_for(p, beta):
    return build_kernel(p, validate_beta(p, BetaSpec(constant=beta), 100.0))


# ---- grid convolution ------------------------------------------------------

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


# ---- Laplace transforms ----------------------------------------------------

def test_laplace_from_service_degenerate():
    lp = busy_period_laplace_from_service(
        P11, lambda t: np.ones_like(np.asarray(t, dtype=float)), 2.0
    )
    assert lp.value == pytest.approx(1.0, abs=1e-9)


def test_laplace_from_service_frozen_value():
    lp = busy_period_laplace_from_service(
        P11, lambda t: cf.service_cdf(P11, 0.0, t), 1.0
    )
    # oracle: exponential-mixture transform G(0) + (1-G(0)) mu/(s+mu)
    assert lp.value == pytest.approx(0.5378828427399902, abs=1e-8)


def test_laplace_from_service_s0_normalization():
    lp = busy_period_laplace_from_service(P11, lambda t: cf.service_cdf(P11, 0.0, t), 0.0)
    assert lp.value == 1.0


def test_laplace_general_frozen_values():
    assert busy_period_laplace_general(ctx_for(P11, 0.0), 1.0).value == pytest.approx(
        0.5378828427399902, abs=1e-12
    )
    assert busy_period_laplace_general(ctx_for(PLN2, 1.0), 1.0).value == pytest.approx(
        0.5, abs=1e-12
    )


def test_laplace_general_s0_normalization():
    assert busy_period_laplace_general(ctx_for(P11, 0.3), 0.0).value == pytest.approx(
        1.0, abs=1e-12
    )


def test_laplace_rejects_negative_s():
    with pytest.raises(NegativeS):
        busy_period_laplace_general(ctx_for(P11, 0.0), -1.0)
    with pytest.raises(NegativeS):
        busy_period_laplace_from_service(P11, lambda t: cf.service_cdf(P11, 0.0, t), -0.5)


def test_busy_cycle_laplace():
    from mginf.transforms import LaplacePoint
    assert busy_cycle_laplace(P11, LaplacePoint(1.0, 0.5378828427399902)).value == (
        pytest.approx(0.2689414213699951, abs=1e-12)
    )
    assert busy_cycle_laplace(P11, LaplacePoint(0.0, 1.0)).value == 1.0
    # for beta = 0 the busy cycle is exponential with rate e^{-1}: at s = mu
    # the transform is exactly 1/2
    mu = math.exp(-1)
    bp = busy_period_laplace_general(ctx_for(P11, 0.0), mu)
    assert busy_cycle_laplace(P11, bp).value == pytest.approx(0.5, abs=1e-10)


def test_transform_routes_agree():
    for p, beta in [(P11, 0.0), (PLN2, 1.0), (P11, -0.5)]:
        ctx = ctx_for(p, beta)
        for s in (0.1, 0.5, 1.0, 2.0, 5.0):
            general = busy_period_laplace_general(ctx, s).value
            direct = busy_period_laplace_from_service(
                p, lambda t: riccati_service_cdf(ctx, t), s
            ).value
            assert general == pytest.approx(direct, abs=1e-5)


def test_series_transform_consistency():
    # Laplace transform of the series-built B agrees with the kernel-form transform
    ctx = ctx_for(P11, 0.0)
    grid = GridSpec(step=0.005, t_max=30.0)
    b = busy_period_cdf_series(ctx, grid)
    ts = b.times
    for s in (0.5, 1.0, 2.0):
        # Stieltjes transform via integration by parts: s * int e^{-st} B dt + tail
        numeric = s * np.trapezoid(np.exp(-s * ts) * b.values, ts) + math.exp(-s * ts[-1])
        assert numeric == pytest.approx(
            busy_period_laplace_general(ctx, s).value, abs=1e-3
        )


def test_mean_extraction_from_transforms():
    ctx = ctx_for(P11, 0.2)
    h = 1e-4
    bbar = lambda s: busy_period_laplace_general(ctx, s).value
    mean_b = -(bbar(2 * h) - bbar(h)) / h  # one-sided at s = 0+
    assert mean_b == pytest.approx(math.expm1(1.0), rel=1e-2)
    zbar = lambda s: busy_cycle_laplace(P11, busy_period_laplace_general(ctx, s)).value
    mean_z = -(zbar(2 * h) - zbar(h)) / h
    assert mean_z == pytest.approx(math.e, rel=1e-2)


# ---- grid solve of the busy-period equation ---------------------------------

@pytest.mark.parametrize("spec", [BetaSpec(constant=0.3),
                                  BetaSpec(knots=((0.0, 0.3), (0.5, -0.2), (1.0, 0.1)))])
def test_direct_solve_equals_neumann_sum(spec):
    # B = sum_k (w K)^k r, K x = grid_convolve(x, f), summed until the terms vanish
    ctx = build_kernel(P11, validate_beta(P11, spec, 100.0))
    grid = GridSpec(step=0.005, t_max=1.5)
    b = busy_period_cdf_series(ctx, grid)
    assert len(b.values) == 301
    f = GridFunction(grid.step, ctx.kernel(b.times))
    one_m_q0 = 1.0 - P11.exp_neg_rho
    phi = ctx.inv_total * f.values
    term = GridFunction(grid.step, 1.0 - one_m_q0 * (phi / P11.lam + ctx.prefix_mass(b.times)))
    total = term.values.copy()
    for _ in range(200):
        term = GridFunction(grid.step, one_m_q0 * ctx.inv_total * grid_convolve(term, f).values)
        total += term.values
    assert np.max(np.abs(term.values)) < 1e-17
    assert np.max(np.abs(b.values - total)) <= 1e-12


def test_direct_solve_in_heavy_traffic():
    # rho = 5 needs ~2000 Neumann terms; the direct solve has no term budget
    p = validate_queue_params(1.0, 5.0)
    spec = BetaSpec(constant=0.0)
    grid = default_grid(p, spec)
    b = busy_period_cdf_series(build_kernel(p, validate_beta(p, spec, grid.t_max)), grid)
    assert np.max(np.abs(b.values - cf.busy_period_cdf(p, 0.0, b.times))) < 1e-3


def test_series_matches_closed_form_busy_period():
    ctx = ctx_for(P11, 0.0)
    b = busy_period_cdf_series(ctx, GridSpec(step=0.005, t_max=30.0))
    assert np.max(np.abs(b.values - cf.busy_period_cdf(P11, 0.0, b.times))) < 1e-3


def test_series_purely_exponential_endpoint():
    ctx = ctx_for(PLN2, 1.0)
    b = busy_period_cdf_series(ctx, GridSpec(step=0.005, t_max=20.0))
    assert np.max(np.abs(b.values - (-np.expm1(-b.times)))) < 1e-3


def test_series_atom_at_zero():
    ctx = ctx_for(P11, 0.0)
    b = busy_period_cdf_series(ctx, GridSpec(step=0.005, t_max=10.0))
    assert b.values[0] == pytest.approx(math.exp(-1), abs=0.005)


def test_series_busy_cycle_matches_closed_form():
    ctx = ctx_for(P11, 0.0)
    z = busy_cycle_cdf_series(P11, busy_period_cdf_series(ctx, GridSpec(step=0.005, t_max=30.0)))
    assert np.max(np.abs(z.values - cf.busy_cycle_cdf(P11, 0.0, z.times))) < 1e-3
    assert z.values[0] == pytest.approx(0.0, abs=1e-12)


def test_series_busy_cycle_confluent_point():
    ctx = ctx_for(PLN2, 1.0)
    z = busy_cycle_cdf_series(PLN2, busy_period_cdf_series(ctx, GridSpec(step=0.005, t_max=20.0)))
    i = int(round(1.0 / 0.005))
    assert z.values[i] == pytest.approx(1 - 2 / math.e, abs=1e-3)


def test_degenerate_series_curves():
    # beta = -lambda goes through the grid solve like every other law: the
    # weight (1 - e^{-rho})/I is 0, so B is the bracket 1, and Z is the
    # trapezoidal convolution of 1 with the Exp(lambda) density
    vb = validate_beta(P11, BetaSpec(constant=-1.0), 10.0)
    sup = {}
    for h in (0.005, 0.0025, 0.00125):
        b, z = ServiceLaw(P11, vb, GridSpec(step=h, t_max=10.0)).series
        if h == 0.005:  # longer FFTs round more: 1.3e-15 at h = 0.00125
            assert np.max(np.abs(b.values - 1.0)) <= 1e-15
        sup[h] = np.max(np.abs(z.values - (-np.expm1(-z.times))))
    assert sup[0.005] < 3e-6
    assert sup[0.005] / sup[0.0025] >= 3.9 and sup[0.0025] / sup[0.00125] >= 3.9


def test_series_first_order_convergence():
    ctx = ctx_for(P11, 0.0)
    sup = {}
    for h in (0.01, 0.005):
        b = busy_period_cdf_series(ctx, GridSpec(step=h, t_max=20.0))
        sup[h] = np.max(np.abs(b.values - cf.busy_period_cdf(P11, 0.0, b.times)))
    assert sup[0.005] <= 0.5 * sup[0.01] * 1.05


@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
def test_series_second_order_convergence(rho):
    # the trapezoidal solve is second order for constant beta, atom included
    p = validate_queue_params(1.0, rho)
    ctx = ctx_for(p, 0.0)
    t_max = 12.0 * math.expm1(rho)
    sup = {}
    for h in (0.01, 0.005):
        b = busy_period_cdf_series(ctx, GridSpec(step=h, t_max=t_max))
        sup[h] = np.max(np.abs(b.values - cf.busy_period_cdf(p, 0.0, b.times)))
    assert sup[0.01] / sup[0.005] >= 3.9


def test_series_cdf_shape():
    ctx = ctx_for(P11, 0.3)
    b = busy_period_cdf_series(ctx, GridSpec(step=0.005, t_max=30.0))
    z = busy_cycle_cdf_series(P11, b)
    for g in (b, z):
        assert np.all(np.diff(g.values) >= -1e-8)
        assert np.all(g.values >= -1e-8) and np.all(g.values <= 1 + 1e-5)
        assert g.values[-1] > 1 - 1e-4


def test_series_step_too_coarse():
    ctx = ctx_for(P11, 0.0)
    with pytest.raises(StepTooCoarse):
        busy_period_cdf_series(ctx, GridSpec(step=0.05, t_max=5.0))


def test_default_grid():
    g = default_grid(P11, BetaSpec(constant=0.0))
    assert g.step == pytest.approx(0.005)
    assert g.t_max == pytest.approx(12 * math.expm1(1.0))


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

def test_grid_function_interpolation():
    g = GridFunction(0.5, np.array([0.0, 1.0, 2.0]))
    assert g.at(0.25) == pytest.approx(0.5)


@given(st.floats(min_value=0.01, max_value=5.0), st.integers(min_value=2, max_value=50))
@settings(max_examples=25, deadline=None)
def test_grid_function_times(h, n):
    g = GridFunction(h, np.zeros(n))
    assert len(g.times) == n
    assert g.times[-1] == pytest.approx((n - 1) * h)
