import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import SFC64, Generator

from mginf import closed_form as cf, simulate
from mginf.errors import EmptySample
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, validate_queue_params
from mginf.simulate import cycle_summary, empirical_cdf, ks_distance, run_cycles

P11 = validate_queue_params(1.0, 1.0)
PLN2 = validate_queue_params(1.0, math.log(2))


def quantile(p, beta):
    """Inverse service CDF of the constant-beta law."""
    return ServiceLaw(p, BetaSpec(constant=beta)).quantile


def test_sample_service_examples():
    assert quantile(P11, 0.0)(0.1) == 0.0
    assert quantile(P11, 0.0)(0.5) == pytest.approx(0.541324854612918, abs=1e-12)
    for u in (0.0, 0.3, 0.99):
        assert quantile(P11, -1.0)(u) == 0.0


def test_empirical_cdf_examples():
    e = empirical_cdf([0.0, 0.0, 1.0, 1.0])
    assert e(0.0) == 0.5
    e2 = empirical_cdf([3.0])
    assert e2(2.9) == 0.0
    assert e2(3.0) == 1.0  # right continuity
    with pytest.raises(EmptySample):
        empirical_cdf([])


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_empirical_cdf_is_cdf(xs):
    e = empirical_cdf(xs)
    ts = np.linspace(-1, 101, 200)
    vals = e(ts)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_ks_distance_examples():
    single = empirical_cdf([0.5])
    assert ks_distance(single, lambda t: np.clip(np.asarray(t, float), 0, 1)) == (
        pytest.approx(0.5)
    )


def ks_searchsorted(emp, analytic) -> float:
    """The KS statistic with Fhat(x) and Fhat(x-) from two searchsorted passes."""
    xs = np.unique(emp.sorted)
    f = np.asarray(analytic(xs), dtype=float)
    after = emp(xs)
    before = np.searchsorted(emp.sorted, xs, "left") / emp.n
    gap = np.maximum(np.abs(after - f), np.abs(before - f))
    gap[xs == 0.0] = np.abs(after - f)[xs == 0.0]
    return float(np.max(gap))


def atom_cdf(t):
    return 1.0 - 0.7 * np.exp(-np.asarray(t, dtype=float))  # atom 0.3 at 0


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0),
                min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_ks_distance_matches_searchsorted_form(xs):
    emp = empirical_cdf(xs)
    assert ks_distance(emp, atom_cdf) == ks_searchsorted(emp, atom_cdf)


def ks_gap_array(emp, analytic) -> float:
    """The KS statistic from the full array of per-point gaps, as ks_distance once formed it."""
    s, n = emp.sorted, emp.n
    f = np.asarray(analytic(s), dtype=float)
    steps = np.arange(n + 1) / n
    gap = np.maximum(np.abs(steps[1:] - f), f - steps[:-1])
    lo, hi = np.searchsorted(s, 0.0, "left"), np.searchsorted(s, 0.0, "right")
    gap[lo:hi] = np.abs(steps[hi] - f[lo:hi])
    return float(np.max(gap))


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0), min_size=1, max_size=200))
@example([0.0])
@example([2.0])
@example([0.0] * 7 + [1.0, 1.0, 3.0])
@settings(max_examples=100, deadline=None)
def test_ks_distance_is_bit_identical_to_the_gap_array(xs):
    emp = empirical_cdf(xs)
    assert ks_distance(emp, atom_cdf) == ks_gap_array(emp, atom_cdf)


def test_ks_distance_matches_searchsorted_form_with_ties_and_atom():
    rng = np.random.default_rng(5)
    sample = np.where(rng.random(50_000) < 0.3, 0.0, np.round(rng.exponential(1.0, 50_000), 3))
    emp = empirical_cdf(sample)
    assert ks_distance(emp, atom_cdf) == ks_searchsorted(emp, atom_cdf)


def test_run_cycles_determinism():
    a = run_cycles(P11, quantile(P11, 0.0), 500, seed=9)
    b = run_cycles(P11, quantile(P11, 0.0), 500, seed=9)
    assert np.array_equal(a.busy, b.busy)
    assert np.array_equal(a.idle, b.idle)
    c = run_cycles(P11, quantile(P11, 0.0), 500, seed=10)
    assert not np.array_equal(a.busy, c.busy)


def test_run_cycles_structure():
    s = run_cycles(P11, quantile(P11, 0.3), 1000, seed=4)
    assert np.all(s.busy >= 0)
    assert np.all(s.idle > 0)
    assert np.array_equal(s.cycle, s.busy + s.idle)
    assert s.n == 1000


def test_degenerate_service_all_zero_busy():
    s = run_cycles(P11, quantile(P11, -1.0), 10_000, seed=42)
    assert np.all(s.busy == 0.0)
    assert np.all(s.idle > 0.0)
    assert s.cycle.mean() == pytest.approx(1.0, abs=0.03)


@pytest.fixture(scope="module")
def big_run():
    return run_cycles(P11, quantile(P11, 0.0), 100_000, seed=1)


def test_mean_busy_matches_regenerative_target(big_run):
    summ = cycle_summary(big_run)
    target = math.expm1(1.0)
    assert abs(summ.mean_busy - target) < 3 * summ.stderr_busy
    assert abs(summ.mean_idle - 1.0) < 3 * summ.stderr_idle


def test_mean_cycle_at_confluent_point():
    s = run_cycles(PLN2, quantile(PLN2, 1.0), 100_000, seed=1)
    summ = cycle_summary(s)
    assert abs(summ.mean_cycle - 2.0) < 3 * summ.stderr_cycle


def test_ks_against_analytic_curves(big_run):
    s = big_run
    assert ks_distance(empirical_cdf(s.busy),
                       lambda t: cf.busy_period_cdf(P11, 0.0, t)) < 0.01
    assert ks_distance(empirical_cdf(s.cycle),
                       lambda t: cf.busy_cycle_cdf(P11, 0.0, t)) < 0.01
    assert ks_distance(empirical_cdf(s.idle),
                       lambda t: -np.expm1(-np.asarray(t, float))) < 0.01


def test_zero_busy_fraction_matches_atom(big_run):
    s = big_run
    atom = cf.service_atom(P11, 0.0)
    tol = 3 * math.sqrt(atom * (1 - atom) / s.n)
    assert abs(np.mean(s.busy == 0.0) - atom) < tol


def test_busy_idle_independence(big_run):
    s = big_run
    r = np.corrcoef(s.busy, s.idle)[0, 1]
    assert abs(r) < 3 / math.sqrt(s.n)


def test_tabulated_beta_simulation():
    spec = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))
    s = run_cycles(P11, ServiceLaw(P11, spec).quantile, 20_000, seed=2)
    summ = cycle_summary(s)
    assert abs(summ.mean_busy - math.expm1(1.0)) < 4 * summ.stderr_busy
    assert abs(summ.mean_idle - 1.0) < 4 * summ.stderr_idle


@pytest.mark.parametrize("spec", [BetaSpec(constant=0.3), BetaSpec(constant=0.0),
                                  BetaSpec(constant=-1.0),
                                  BetaSpec(knots=((0.0, 0.3), (2.0, -0.2), (5.0, 0.1)))])
def test_law_quantile_takes_arrays(spec):
    q = ServiceLaw(P11, spec).quantile
    u = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 0.999999])
    t = q(u)
    assert t.shape == u.shape
    assert np.array_equal(t, [q(float(x)) for x in u])


@pytest.mark.parametrize("rho,beta", [(1.0, 0.0), (1.0, 0.3), (1.0, -0.5), (5.0, 0.0)])
def test_closed_form_quantile_is_zero_up_to_the_atom(rho, beta):
    p = validate_queue_params(1.0, rho)
    law = ServiceLaw(p, BetaSpec(constant=beta))
    below, above = np.nextafter(law.atom, 0.0), np.nextafter(law.atom, 1.0)
    assert law.quantile(law.atom) == 0.0 and law.quantile(below) == 0.0
    assert np.array_equal(law.quantile(np.array([below, law.atom])), [0.0, 0.0])
    t = law.quantile(above)
    assert math.isfinite(t) and t >= 0.0


@pytest.mark.parametrize("beta", [0.0, 0.3, -0.5, -1.0])
def test_quantile_raises_no_numpy_warning(beta):
    # inside the atom the closed form takes logarithms of numbers <= 0, and at
    # beta = -lambda it divides by r = 0; none of that may surface
    u = np.linspace(0.0, 0.999999, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(quantile(P11, beta)(u)))


def test_heavy_traffic_simulation():
    p = validate_queue_params(1.0, 5.0)
    s = run_cycles(p, quantile(p, 0.0), 20_000, seed=3)
    summ = cycle_summary(s)
    assert abs(summ.mean_busy - math.expm1(5.0)) < 4 * summ.stderr_busy
    dkw = math.sqrt(math.log(2 / 1e-6) / (2 * s.n))  # critical value at alpha = 1e-6
    assert ks_distance(empirical_cdf(s.busy), lambda t: cf.busy_period_cdf(p, 0.0, t)) < dkw


def event_loop_cycles(params, quantile, n_cycles, seed):
    """busy, idle of the first n_cycles cycles by a plain event loop over the documented draws.

    Per chunk of simulate.CHUNK customers: that many standard exponentials,
    scaled by 1/lambda into the gaps, then that many uniforms for the services.
    The clock restarts at each cycle's first arrival; e is the latest departure
    of the open cycle.
    """
    rng = Generator(SFC64(seed))
    busy, idle = [], []
    t = e = None  # no cycle before the first arrival
    while len(busy) < n_cycles:
        gaps = rng.standard_exponential(simulate.CHUNK) * (1.0 / params.lam)
        services = quantile(rng.random(simulate.CHUNK))
        for gap, service in zip(gaps.tolist(), services.tolist()):
            if t is not None:
                t += gap
                if t < e:
                    e = max(e, t + service)
                    continue
                busy.append(e)
                idle.append(t - e)
            t, e = 0.0, service
    return np.array(busy[:n_cycles]), np.array(idle[:n_cycles])


STREAM_LAWS = [(lam, rho, spec) for lam, rho in ((1.0, 0.5), (10.0, 3.0))
               for spec in (BetaSpec(constant=0.3), BetaSpec(knots=((0.0, 0.0), (1.0, 0.2))))]


def _stream_matches_event_loop(lam, rho, spec, n_cycles):
    p = validate_queue_params(lam, rho)
    q = ServiceLaw(p, spec).quantile
    s = run_cycles(p, q, n_cycles, seed=6)
    busy, idle = event_loop_cycles(p, q, n_cycles, seed=6)
    assert np.max(np.abs(s.busy - busy)) <= 1e-10 / lam
    assert np.max(np.abs(s.idle - idle)) <= 1e-10 / lam


@pytest.mark.parametrize("lam,rho,spec", STREAM_LAWS)
def test_stream_matches_an_event_loop_on_the_same_draws(lam, rho, spec):
    _stream_matches_event_loop(lam, rho, spec, 1000)  # several chunks at rho = 3


@pytest.mark.parametrize("lam,rho,spec", STREAM_LAWS)
def test_stream_matches_an_event_loop_across_chunks(monkeypatch, lam, rho, spec):
    monkeypatch.setattr(simulate, "CHUNK", 7)  # at rho = 3 a cycle spans about three chunks
    _stream_matches_event_loop(lam, rho, spec, 300)


def test_mean_busy_at_rho_8():
    p = validate_queue_params(1.0, 8.0)
    summ = cycle_summary(run_cycles(p, quantile(p, 0.0), 300, seed=8))
    assert abs(summ.mean_busy - math.expm1(8.0)) < 4 * summ.stderr_busy


def test_run_cycles_memory_is_the_output_plus_one_chunk():
    p = validate_queue_params(1.0, 5.0)
    q = quantile(p, 0.0)
    n = 20_000
    run_cycles(p, q, 10, seed=0)  # first-call allocations of numpy's random module
    tracemalloc.start()
    try:
        run_cycles(p, q, n, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n + 64 * simulate.CHUNK


@pytest.mark.parametrize("rho", [1.0, 3.0])
def test_ks_against_the_closed_form_cycle_law_holds_three_arrays(rho):
    # Z is formed in two arrays of the sample's size; then the KS buffers are Z,
    # the steps i/n and one gap buffer
    p = validate_queue_params(1.0, rho)
    law = ServiceLaw(p, BetaSpec(constant=0.0))
    n = 100_000
    emp = empirical_cdf(run_cycles(p, law.quantile, n, seed=5).cycle)
    ks_distance(emp, law.cycle_cdf)
    tracemalloc.start()
    try:
        ks_distance(emp, law.cycle_cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 4096  # plus the scalars' bookkeeping


def test_cycle_summary_requires_two():
    s = run_cycles(P11, quantile(P11, 0.0), 1, seed=0)
    with pytest.raises(EmptySample):
        cycle_summary(s)
