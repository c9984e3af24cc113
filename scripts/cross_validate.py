#!/usr/bin/env python3
"""Run the full cross-validation battery over the standard parameter matrix.

Sweeps (lambda, rho) in {(1, 1), (1, ln 2), (2, 0.5)} crossed with four beta
values spanning the admissible range, both endpoints included, printing one
PASS/FAIL line per check per point.  The exponential floor envelopes are expected to FAIL for
interior beta values; see the README.  The 0.01 KS tolerance is calibrated
for the default 10^5 cycles; smaller --cycles will show spurious KS failures.

Example:
    python3 scripts/cross_validate.py --cycles 100000 --seed 1
"""

import argparse
import math

from mginf.law import ServiceLaw
from mginf.params import BetaSpec, beta_bounds, validate_beta, validate_queue_params
from mginf.verify import verify_point


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
        for beta in (lo, 0.0, 0.5 * hi, hi):
            print(f"== lambda={params.lam} rho={params.rho:.6f} beta={beta:+.6f} ==")
            vbeta = validate_beta(params, BetaSpec(constant=beta), 100.0)
            for r in verify_point(ServiceLaw(params, vbeta), args.cycles, args.seed):
                print(f"  {r.status:<4} {r.name}: {r.detail}")
                n_fail += r.status == "FAIL"
    print(f"\n{n_fail} failing checks (floor envelopes fail for interior beta)")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
