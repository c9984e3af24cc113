import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mginf.errors import (
    BetaOutOfRange,
    EmptyTable,
    InvalidTable,
    MginfError,
    NonFiniteParameter,
    NonPositiveParameter,
    NonPositiveTime,
)
from mginf.params import (
    BetaSpec,
    beta_bounds,
    load_beta_table,
    running_average_beta,
    validate_beta,
    validate_queue_params,
)


def test_validate_queue_params_basic():
    p = validate_queue_params(1.0, 1.0)
    assert p.alpha == 1.0
    assert p.exp_neg_rho == pytest.approx(0.36787944117144233, rel=1e-12)


def test_validate_queue_params_derived_alpha():
    p = validate_queue_params(2.0, math.log(2))
    assert p.alpha == pytest.approx(0.34657359027997264, rel=1e-12)
    assert p.exp_neg_rho == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("lam,rho", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_nonpositive_rejected(lam, rho):
    with pytest.raises(NonPositiveParameter):
        validate_queue_params(lam, rho)


@pytest.mark.parametrize("lam,rho", [(math.nan, 1.0), (1.0, math.inf)])
def test_nonfinite_rejected(lam, rho):
    with pytest.raises(NonFiniteParameter):
        validate_queue_params(lam, rho)


def test_beta_bounds_ln2():
    p = validate_queue_params(1.0, math.log(2))
    lo, hi = beta_bounds(p)
    assert lo == -1.0
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_beta_bounds_values():
    p = validate_queue_params(1.0, 1.0)
    assert beta_bounds(p)[1] == pytest.approx(0.5819767068693265, rel=1e-12)
    p2 = validate_queue_params(2.0, 1.0)
    assert beta_bounds(p2) == pytest.approx((-2.0, 1.163953413738653), rel=1e-12)


@given(st.floats(min_value=0.01, max_value=10), st.floats(min_value=0.01, max_value=5))
def test_beta_bounds_ordering(lam, rho):
    p = validate_queue_params(lam, rho)
    lo, hi = beta_bounds(p)
    assert lo == -lam < 0 < hi


def test_validate_constant_beta():
    p = validate_queue_params(1.0, 1.0)
    spec = BetaSpec(constant=0.0)
    assert validate_beta(p, spec) is None
    with pytest.raises(BetaOutOfRange):
        validate_beta(p, BetaSpec(constant=0.6))


def test_endpoints_admitted():
    p = validate_queue_params(1.0, math.log(2))
    validate_beta(p, BetaSpec(constant=-1.0))
    validate_beta(p, BetaSpec(constant=1.0))


@given(st.floats(min_value=-2.0, max_value=2.0))
def test_constant_admitted_iff_within_bounds(b):
    p = validate_queue_params(1.0, 1.0)
    lo, hi = beta_bounds(p)
    if lo <= b <= hi:
        validate_beta(p, BetaSpec(constant=b))
    else:
        with pytest.raises(BetaOutOfRange):
            validate_beta(p, BetaSpec(constant=b))


def test_validate_tabulated_running_average():
    p = validate_queue_params(1.0, 1.0)
    # ramp 0 -> 0.2 stays well within (-1, 0.582)
    spec = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))
    validate_beta(p, spec)
    assert running_average_beta(spec, 3.0) == pytest.approx((0.1 + 0.2 * 2) / 3, rel=1e-12)


def test_validate_tabulated_violation_reported():
    p = validate_queue_params(1.0, 1.0)
    spec = BetaSpec(knots=((0.0, 0.7), (1.0, 0.7)))
    with pytest.raises(BetaOutOfRange):
        validate_beta(p, spec)


def test_running_average_constant():
    assert running_average_beta(BetaSpec(constant=0.3), 7.0) == pytest.approx(0.3, rel=1e-14)


def test_running_average_linear():
    p = validate_queue_params(1.0, math.log(2))
    # beta(u) = u on [0, 2], then 2: avg(t) = t/2 reaches the bound 1 at t = 2
    # and tends to beta(inf) = 2 > 1, so the table is not admissible
    spec = BetaSpec(knots=((0.0, 0.0), (2.0, 2.0)))
    assert spec.cumulative(2.0) / 2.0 == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(BetaOutOfRange, match="at t=inf is 2"):
        validate_beta(p, spec)


def test_running_average_constant_extension():
    spec = BetaSpec(knots=((0.0, 1.0), (1.0, 1.0)))
    validate_beta(validate_queue_params(2.0, 0.5), spec)
    assert running_average_beta(spec, 3.0) == pytest.approx(1.0, rel=1e-12)


def test_running_average_rejects_nonpositive_time():
    with pytest.raises(NonPositiveTime):
        running_average_beta(BetaSpec(constant=0.0), 0.0)


def test_beta_spec_shape_errors():
    with pytest.raises(ValueError):
        BetaSpec(constant=0.0, knots=((0.0, 0.0),))
    with pytest.raises(ValueError):
        BetaSpec(knots=((1.0, 0.0),))  # must start at t = 0
    with pytest.raises(ValueError):
        BetaSpec(knots=((0.0, 0.0), (0.0, 1.0)))  # strictly increasing t
    with pytest.raises(EmptyTable):
        BetaSpec(knots=())


@pytest.mark.parametrize("kwargs", [{}, {"constant": 0.0, "knots": ((0.0, 0.0),)}])
def test_beta_spec_needs_exactly_one_source(kwargs):
    with pytest.raises(InvalidTable):
        BetaSpec(**kwargs)


def test_one_knot_table_is_stored_as_its_constant():
    spec = BetaSpec(knots=((0.0, 0.3),))
    assert spec == BetaSpec(constant=0.3)
    assert spec.constant == 0.3 and spec.knots is None


def test_cumulative_beta_vectorized():
    spec = BetaSpec(knots=((0.0, 0.0), (2.0, 2.0)))
    ts = np.array([0.0, 1.0, 2.0, 4.0])
    # triangle up to t=2, then constant 2 beyond
    assert spec.cumulative(ts) == pytest.approx([0.0, 0.5, 2.0, 6.0])


def test_load_beta_table(tmp_path):
    f = tmp_path / "beta.csv"
    f.write_text("t,beta\n0,0\n1,0.2\n")
    spec = load_beta_table(f)
    assert spec.knots == ((0.0, 0.0), (1.0, 0.2))
    empty = tmp_path / "empty.csv"
    empty.write_text("t,beta\n")
    with pytest.raises(EmptyTable):
        load_beta_table(empty)


def test_load_beta_table_reads_a_numeric_first_row_as_a_knot(tmp_path):
    # the header row is optional: a first row of two numbers is the first knot
    f = tmp_path / "beta.csv"
    f.write_text("0,51.7\n1,0.2\n")
    assert load_beta_table(f).knots == ((0.0, 51.7), (1.0, 0.2))
    f.write_text("0,51.7\n")
    assert load_beta_table(f) == BetaSpec(constant=51.7)
    f.write_text("0,0\n0,0.1\n1,0.2\n")  # no longer loads as ((0, 0.1), (1, 0.2))
    with pytest.raises(InvalidTable, match="strictly increasing"):
        load_beta_table(f)
    f.write_text("t,beta\n0,0\nt,beta\n")  # a text row past the first is an error
    with pytest.raises(InvalidTable, match="line 3"):
        load_beta_table(f)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_load_beta_table_takes_any_bytes(tmp_path_factory, data):
    f = tmp_path_factory.getbasetemp() / "any_bytes.csv"
    f.write_bytes(data)
    try:
        assert isinstance(load_beta_table(f), BetaSpec)
    except MginfError:
        pass


def test_interior_extremum_of_the_running_average_is_certified():
    # beta rises to 2 at t = 1 and falls to -2 at t = 2: C(t)/t peaks inside
    # the second segment, where t beta(t) = C(t) = 1 + 2u - 2u^2 (u = t - 1): at t = sqrt(1.5)
    spec = BetaSpec(knots=((0.0, 0.0), (1.0, 2.0), (2.0, -2.0)))
    t = math.sqrt(1.5)
    peak = spec.cumulative(t) / t
    dense = np.linspace(1.0, 2.0, 100_001)
    assert peak == pytest.approx(np.max(spec.cumulative(dense) / dense), abs=1e-9)
    knots_and_limits = [0.0, 1.0, 0.5, -2.0]  # beta(0), C(1)/1, C(2)/2, beta(inf)
    assert peak > max(knots_and_limits) + 0.1
    lam = 4.0
    validate_beta(validate_queue_params(lam, math.log1p(lam / peak)), spec)  # hi = peak
    with pytest.raises(BetaOutOfRange, match=f"at t={t:.6g}"):
        validate_beta(validate_queue_params(lam, math.log1p(lam / (peak - 0.05))), spec)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.2, 0.8),
       st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(-1.5, 1.5)), min_size=1, max_size=5))
def test_certificate_agrees_with_dense_sampling(b0, steps):
    # the exact certificate against C(t)/t sampled on (0, 2 t_last] plus its two limits
    ts = np.cumsum([0.0] + [dt for dt, _ in steps])
    vs = [b0] + [v for _, v in steps]
    spec = BetaSpec(knots=tuple(zip(ts.tolist(), vs)))
    grid = np.linspace(0.0, 2.0 * ts[-1], 50_001)[1:]
    avg = np.concatenate([[vs[0]], spec.cumulative(grid) / grid, [vs[-1]]])
    p = validate_queue_params(1.0, 1.0)
    lo, hi = beta_bounds(p)
    try:
        validate_beta(p, spec)
    except BetaOutOfRange:
        # |d/dt C(t)/t| <= 60 here, so the samples come within 0.02 of the extremes
        assert avg.min() < lo + 0.05 or avg.max() > hi - 0.05
    else:
        assert avg.min() >= lo - 1e-12 and avg.max() <= hi + 1e-12


def cumulative_by_interp(spec: BetaSpec, t):
    """int_0^t beta with beta(t) read by np.interp, as BetaSpec.cumulative did with two searches."""
    ts, vs = spec._ts, spec._vs
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)
    bl = vs[idx]
    return spec._prefix[idx] + 0.5 * (bl + np.interp(t, ts, vs)) * (t - ts[idx])


@given(st.lists(st.tuples(st.floats(1e-6, 10.0), st.floats(-50.0, 50.0)), max_size=8),
       st.floats(-50.0, 50.0),
       st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_cumulative_equals_the_interp_form(steps, b0, ts):
    knots = [(0.0, b0)]
    for dt, b in steps:
        knots.append((knots[-1][0] + dt, b))
    spec = BetaSpec(knots=tuple(knots))
    t = np.array(ts + [k[0] for k in knots])  # the knots themselves too
    # equal as floats: only the sign of a zero may differ (0.0 * dt + -0.0 is +0.0)
    assert np.array_equal(spec.cumulative(t), cumulative_by_interp(spec, t))
    assert spec.cumulative(t[0]) == cumulative_by_interp(spec, t[0])
