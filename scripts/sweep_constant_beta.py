#!/usr/bin/env python3
"""Sweep the constant-beta family and dump plot-ready curve CSVs.

For a fixed (lambda, rho) pair, evaluates the service, busy-period, and
busy-cycle CDFs for a ladder of beta values spanning the admissible range,
plus the envelope curves.  One CSV per beta, written to the output directory.

Example:
    python3 scripts/sweep_constant_beta.py --lambda 1 --rho 1 --n-beta 5 --out-dir curves/
"""

import argparse
from pathlib import Path

import numpy as np

from mginf import closed_form as cf
from mginf.cli import main as cli_main
from mginf.params import beta_bounds, validate_queue_params


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--rho", type=float, default=1.0)
    ap.add_argument("--n-beta", type=int, default=5,
                    help="number of beta values, evenly spaced over the range")
    ap.add_argument("--t-max", type=float, default=None)
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--out-dir", type=Path, default=Path("curves"))
    args = ap.parse_args()

    params = validate_queue_params(args.lam, args.rho)
    lo, hi = beta_bounds(params)
    t_max = args.t_max if args.t_max is not None else 10.0 / params.lam
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for beta in np.linspace(lo, hi, args.n_beta):
        out = args.out_dir / f"curves_beta_{beta:+.6g}.csv"
        code = cli_main([
            "eval",
            "--lambda", str(params.lam),
            "--rho", str(params.rho),
            "--beta", str(beta),
            "--t-max", str(t_max),
            "--step", str(args.step),
            "--out", str(out),
        ])
        if code != 0:
            return code
        atom = cf.service_atom(params, beta)
        print(f"beta = {beta:+.6g}  atom G(0) = {atom:.4f}  -> {out}")
    print(f"admissible range: [{lo:.6g}, {hi:.6g}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
