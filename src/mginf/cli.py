"""Command-line front end: `mginf eval|simulate|verify`.

Each run validates its input and builds one ServiceLaw on the grid
(`--t-max`, finer of `--step` and the law's default step); every command
reads its curves, quantile and series from that law.  Emits plot-ready CSV
(17 significant digits, '.' decimal separator, LF line endings) and
pass/fail verification reports.  Exit codes: 0 success / all checks pass,
1 verification failure, 2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import closed_form as cf
from .errors import MginfError, NegativeParameter, NonFiniteParameter, NonPositiveParameter
from .law import ServiceLaw
from .params import BetaSpec, load_beta_table, validate_beta, validate_queue_params
from .simulate import empirical_cdf, ks_distance, run_cycles, cycle_summary
from .transforms import GridSpec, default_grid
from .verify import verify_point

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    law: ServiceLaw
    t_max: float
    step: float
    cycles: int
    seed: int
    out: Path | None


def _build_config(args) -> RunConfig:
    params = validate_queue_params(args.lam, args.rho)
    if (args.beta is None) == (args.beta_file is None):
        raise MginfError("exactly one of --beta / --beta-file is required")
    if args.cycles < 1:
        raise NonPositiveParameter(f"--cycles must be >= 1, got {args.cycles}")
    if args.seed < 0:
        raise NegativeParameter(f"--seed must be >= 0, got {args.seed}")
    if args.beta is not None:
        spec = BetaSpec(constant=args.beta)
    else:
        spec = load_beta_table(args.beta_file)
    grid = default_grid(params, spec)
    t_max = args.t_max if args.t_max is not None else grid.t_max
    step = args.step if args.step is not None else grid.step
    if not (math.isfinite(t_max) and math.isfinite(step)):
        raise NonFiniteParameter(f"--t-max and --step must be finite, got {t_max} and {step}")
    if t_max <= 0:
        raise MginfError(f"--t-max must be > 0, got {t_max}")
    if step <= 0:
        raise MginfError(f"--step must be > 0, got {step}")
    vbeta = validate_beta(params, spec)
    return RunConfig(
        law=ServiceLaw(params, vbeta, GridSpec(step=min(grid.step, step), t_max=t_max)),
        t_max=t_max,
        step=step,
        cycles=args.cycles,
        seed=args.seed,
        out=Path(args.out) if args.out else None,
    )


CSV_CHUNK_ROWS = 1 << 16  # rows formatted per write, bounding the string built at once


def _open_out(config: RunConfig):
    if config.out is None:
        return sys.stdout
    return open(config.out, "w", newline="\n")


def write_csv(out, header: str, columns) -> None:
    """Header line, then one `%.17g` row per index of the equal-length columns.

    Same bytes as np.savetxt(fmt="%.17g", delimiter=","), but each chunk of
    rows is formatted by one `%` over a repeated row template.
    """
    a = np.column_stack(columns)
    row = ",".join(["%.17g"] * a.shape[1]) + "\n"
    out.write(header + "\n")
    for start in range(0, len(a), CSV_CHUNK_ROWS):
        block = a[start:start + CSV_CHUNK_ROWS]
        out.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_output(config: RunConfig, header: str, columns) -> None:
    out = _open_out(config)
    try:
        write_csv(out, header, columns)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_eval(config: RunConfig) -> int:
    law = config.law
    n = int(round(config.t_max / config.step)) + 1
    ts = np.arange(n) * config.step
    g = law.cdf(ts)
    b = law.busy_cdf(ts)
    z = law.cycle_cdf(ts)
    p00 = law.p00(ts)
    ind = law.indicator(ts)
    p10 = p00 * g
    env = cf.envelope_bounds(law.params, ts)
    _write_output(config, "t,G,B,Z,p00,p10,indicator,bp_floor,cycle_floor,cycle_ceiling",
                  (ts, g, b, z, p00, p10, ind, env.bp_floor, env.cycle_floor, env.cycle_ceiling))
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    law = config.law
    samples = run_cycles(law.params, law.quantile, config.cycles, config.seed)
    _write_output(config, "busy,idle,cycle", (samples.busy, samples.idle, samples.cycle))
    summ = cycle_summary(samples)
    ks_busy = ks_distance(empirical_cdf(samples.busy), law.busy_cdf)
    ks_cycle = ks_distance(empirical_cdf(samples.cycle), law.cycle_cdf)
    ks_idle = ks_distance(empirical_cdf(samples.idle), law.idle_cdf)
    print(f"cycles          {samples.n}")
    print(f"seed            {samples.seed}")
    print(f"mean_busy       {_fmt(summ.mean_busy)} (stderr {_fmt(summ.stderr_busy)})")
    print(f"mean_idle       {_fmt(summ.mean_idle)} (stderr {_fmt(summ.stderr_idle)})")
    print(f"mean_cycle      {_fmt(summ.mean_cycle)} (stderr {_fmt(summ.stderr_cycle)})")
    print(f"ks_busy         {_fmt(ks_busy)}")
    print(f"ks_cycle        {_fmt(ks_cycle)}")
    print(f"ks_idle         {_fmt(ks_idle)}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    results = verify_point(config.law, config.cycles, config.seed)
    failed = False
    for r in results:
        print(f"{r.status:<4} {r.name}: {r.detail}")
        if r.status == "FAIL":
            failed = True
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="Poisson arrival rate")
    p.add_argument("--rho", type=float, required=True, help="traffic intensity")
    p.add_argument("--beta", type=float, default=None,
                   help="constant monotony indicator beta")
    p.add_argument("--beta-file", default=None,
                   help="CSV table `t,beta` with header row, piecewise-linear")
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mginf",
        description="M|G|inf busy period and busy cycle distributions for the "
                    "Riccati service family",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("eval", "evaluate analytic curves to CSV"),
                        ("simulate", "run regenerative Monte Carlo"),
                        ("verify", "run the cross-validation suite")):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        return cmd_verify(config)
    except MginfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
