"""Mutation tests: an error patched into a law's B or Z turns named verify checks to FAIL.

Each mutation is put in with monkeypatch on the name the code looks up at
call time, and the law is built afresh, so its grids and tail are solved with
it.  A mutation that no check catches yet is a strict xfail that names the
checks closest to seeing it and what they read.
"""

import math

import numpy as np
import pytest

from mginf import transforms
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, validate_queue_params
from mginf.verify import check_service_quantile, verify_point

P11 = validate_queue_params(1.0, 1.0)
SPECS = {"constant": BetaSpec(constant=0.0), "ramp": BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))}
B_CHECKS = ("busy period mean = analytic target", "busy period: series vs transform")
Z_CHECKS = ("busy cycle mean = analytic target", "busy cycle: series vs transform")


def statuses(law, names):
    report = {r.name: r.status for r in verify_point(ServiceLaw(P11, SPECS[law]), 200, 1)}
    return [report[name] for name in names]


@pytest.mark.parametrize("scale, want", [(1.0, "PASS"), (1.0 + 1e-4, "FAIL")])
@pytest.mark.parametrize("law", sorted(SPECS))
def test_a_density_off_by_1e_4_fails_the_busy_period_mean_and_transform(law, scale, want,
                                                                        monkeypatch):
    # the walk's density times 1 + 1e-4 moves B by 7e-5: the B mean is then off by 2.7e-4
    # relative (gate 1e-6) and the transform by 6.8e-5 and 7.8e-5 (gate 1e-5)
    density = transforms._density
    monkeypatch.setattr(transforms, "_density", lambda *a: density(*a) * scale)
    assert statuses(law, B_CHECKS) == [want, want]


@pytest.mark.parametrize("scale, want", [(1.0, "PASS"), (1.0 + 1e-6, "FAIL")])
@pytest.mark.parametrize("law", sorted(SPECS))
def test_a_tail_weight_off_by_1e_6_fails_a_busy_period_check(law, scale, want, monkeypatch):
    # C times 1 + 1e-6 puts 1 - B(T) 3.4e-10 (constant) and 1.0e-10 (ramp) off the tail, against
    # gates of 3.4e-11 and 1.0e-11; the B mean moves by 9e-10 and 2e-10 only (gate 1.7e-6)
    tail = ServiceLaw.busy_tail

    def off(self):
        gamma, c = tail.func(self)
        return gamma, c * scale

    monkeypatch.setattr(ServiceLaw, "busy_tail", property(off))
    assert statuses(law, ("busy period tail meets its grid",)) == [want]


def trapezoid_weights(x):
    """The trapezoid rule's cell weights, x e^{-x}/2 and x/2 on the cell's ends, on each stencil."""
    first, mid, last = np.zeros(4), np.zeros(4), np.zeros(4)
    for weights, left in ((first, 0), (mid, 1), (last, 2)):
        weights[left], weights[left + 1] = 0.5 * x * math.exp(-x), 0.5 * x
    return first, mid, last


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: trapezoid weights put the Z mean 1.4e-6 "
                                       "(constant) and 1.1e-6 (ramp) off against a gate of "
                                       "2.7e-6, and Z's transform 2e-7 off against 1e-5")
@pytest.mark.parametrize("law", sorted(SPECS))
def test_trapezoid_weights_for_z_fail_a_busy_cycle_check(law, monkeypatch):
    monkeypatch.setattr(transforms, "_cell_weights", trapezoid_weights)
    assert "FAIL" in statuses(law, Z_CHECKS)


MC_CHECKS = ("KS(busy period)", "KS(busy cycle)", "KS(idle period)",
             "zero-busy fraction matches atom", "busy/idle independence")


def shifted(spec, delta):
    """spec with beta moved by delta at every knot."""
    if spec.constant is not None:
        return BetaSpec(constant=spec.constant + delta)
    return BetaSpec(knots=tuple((t, beta + delta) for t, beta in spec.knots))


def quantile_mutant(law, delta):
    """The law whose quantile alone is that of the law with beta + delta."""
    subject = ServiceLaw(P11, SPECS[law])
    subject.quantile = ServiceLaw(P11, shifted(SPECS[law], delta)).quantile
    return subject


def quantile_statuses(law, delta, names):
    """Statuses at 20,000 cycles when only the service times come from the law with beta + delta."""
    report = {r.name: r.status for r in verify_point(quantile_mutant(law, delta), 20_000, 1)}
    return [report[name] for name in names]


@pytest.mark.parametrize("delta, want", [(0.0, "PASS"), (0.05, "FAIL")])
@pytest.mark.parametrize("law", sorted(SPECS))
def test_a_beta_shift_of_0_05_in_the_quantile_fails_the_atom_and_ks(law, delta, want):
    # the reference curves keep beta: the zero-busy fraction reads 0.333 against an atom of
    # 0.368 (constant) and 0.263 against 0.293 (ramp), with gates 0.010; KS(busy period) reads
    # 0.035 and 0.030 against 0.019
    names = ("zero-busy fraction matches atom", "KS(busy period)")
    assert quantile_statuses(law, delta, names) == [want, want]


@pytest.mark.parametrize("law", sorted(SPECS))
def test_a_beta_shift_of_0_01_in_the_quantile_fails_a_check(law):
    # at 20,000 cycles the Monte Carlo lines miss it: the zero-busy fraction is 0.009 (constant)
    # and 0.006 (ramp) off the atom against 3-stderr gates of 0.010, KS(busy period) 0.011 and
    # 0.010 against 0.019; G(q(u)) is 6.2e-3 and 5.9e-3 off u against 1e-11
    assert "FAIL" in quantile_statuses(law, 0.01, (*MC_CHECKS, "service quantile inverts its CDF"))


@pytest.mark.parametrize("delta, want", [(0.0, "PASS"), (1e-4, "FAIL")])
@pytest.mark.parametrize("law", sorted(SPECS))
def test_a_beta_shift_of_1e_4_in_the_quantile_fails_the_quantile_check(law, delta, want):
    # G(q(u)) is 6.0e-5 (ramp) to 6.3e-5 (constant) off u, against a gate of 1e-11
    assert [r.status for r in check_service_quantile(quantile_mutant(law, delta))] == [want]
