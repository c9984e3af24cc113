#!/usr/bin/env python3
"""Run the full cross-validation battery over the standard parameter matrix.

Sweeps (lambda, rho) in {(1, 1), (1, ln 2), (2, 0.5)} crossed with four
constant beta values spanning the admissible range, both endpoints included,
and the ramp table (0, 0), (1, 0.2) (the benchmark's tabulated law), printing
one PASS/FAIL line per check per point.  Every law runs the same checks on its
own grids; only the names of the floor lines differ: a constant has one line
per paper floor, the ramp one line for both.  The exponential floor envelopes
are expected to FAIL for interior beta values and for the ramp; see the README.
The KS gates are the DKW critical values for --cycles at a false-alarm rate
of 1e-6 each (`mginf.verify.KS_ALPHA`).

Example:
    python3 scripts/cross_validate.py --cycles 100000 --seed 1
"""

import argparse
import math

from mginf.law import ServiceLaw
from mginf.params import BetaSpec, beta_bounds, validate_queue_params
from mginf.verify import verify_point

RAMP = BetaSpec(knots=((0.0, 0.0), (1.0, 0.2)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cycles", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    points = [
        validate_queue_params(1.0, 1.0),
        validate_queue_params(1.0, math.log(2)),
        validate_queue_params(2.0, 0.5),
    ]
    n_fail = 0
    for params in points:
        lo, hi = beta_bounds(params)
        specs = [BetaSpec(constant=beta) for beta in (lo, 0.0, 0.5 * hi, hi)] + [RAMP]
        for spec in specs:
            label = f"{spec.constant:+.6f}" if spec.constant is not None else f"table {spec.knots}"
            print(f"== lambda={params.lam} rho={params.rho:.6f} beta={label} ==")
            for r in verify_point(ServiceLaw(params, spec), args.cycles, args.seed):
                print(f"  {r}")
                n_fail += r.status == "FAIL"
    print(f"\n{n_fail} failing checks (floor envelopes fail for interior beta and the ramp)")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
