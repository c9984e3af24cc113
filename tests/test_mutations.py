"""Mutation tests: an error patched into the busy-period walk turns named verify checks to FAIL.

Each mutation is put in with monkeypatch on the module the walk looks it up
on at call time, and the law is built afresh, so its grids are solved with it.
"""

import pytest

from mginf import transforms
from mginf.law import ServiceLaw
from mginf.params import BetaSpec, validate_queue_params
from mginf.verify import verify_point

P11 = validate_queue_params(1.0, 1.0)
SPECS = {"constant": BetaSpec(constant=0.0), "ramp": BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))}
NAMED = ("busy period mean = analytic target", "busy period: series vs transform")


@pytest.mark.parametrize("scale, want", [(1.0, "PASS"), (1.0 + 1e-4, "FAIL")])
@pytest.mark.parametrize("law", sorted(SPECS))
def test_a_density_off_by_1e_4_fails_the_busy_period_mean_and_transform(law, scale, want,
                                                                        monkeypatch):
    # the walk's density times 1 + 1e-4 moves B by 7e-5: the B mean is then off by 2.7e-4
    # relative (gate 1e-6) and the transform by 6.8e-5 and 7.8e-5 (gate 1e-5)
    density = transforms._density
    monkeypatch.setattr(transforms, "_density", lambda *a: density(*a) * scale)
    report = {r.name: r.status for r in verify_point(ServiceLaw(P11, SPECS[law]), 200, 1)}
    assert [report[name] for name in NAMED] == [want, want]
