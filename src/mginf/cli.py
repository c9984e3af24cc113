"""Command-line front end: `mginf eval|simulate|verify`.

Each run validates its input and builds one ServiceLaw whose series grid
steps at the finer of `--step` and the law's default step and ends where it
meets its exponential tail; every command reads its curves, quantile and
series from that law.  `--t-max` and `--step` set only the rows of `eval`
(by default 12 mean busy periods, (e^rho - 1)/lambda each).  Emits plot-ready CSV
(17 significant digits, '.' decimal separator, LF line endings) and
pass/fail verification reports.  Exit codes: 0 success / all checks pass,
1 verification failure, 2 invalid input, 3 I/O failure.

The CSV bytes are those of np.savetxt(fmt="%.17g", delimiter=","), but
formatted in numpy: a value with decimal exponent in [-6, 16] gets its 17
digits from an exact scaled product (Dekker's two-product), and only nan,
inf and values outside that window go through Python's `%`.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import closed_form as cf
from .errors import (
    EmptySample, MginfError, NegativeParameter, NonFiniteParameter, NonPositiveParameter,
)
from .law import ServiceLaw
from .params import BetaSpec, load_beta_table, validate_queue_params
from .simulate import empirical_cdf, ks_distance, run_cycles, cycle_summary
from .transforms import default_step, grid_points
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
    h = default_step(params, spec)
    t_max = args.t_max if args.t_max is not None else 12.0 * math.expm1(params.rho) / params.lam
    step = args.step if args.step is not None else h
    if not (math.isfinite(t_max) and math.isfinite(step)):
        raise NonFiniteParameter(f"--t-max and --step must be finite, got {t_max} and {step}")
    if t_max <= 0:
        raise MginfError(f"--t-max must be > 0, got {t_max}")
    if step <= 0:
        raise MginfError(f"--step must be > 0, got {step}")
    return RunConfig(
        law=ServiceLaw(params, spec, min(h, step)),
        t_max=t_max,
        step=step,
        cycles=args.cycles,
        seed=args.seed,
        out=Path(args.out) if args.out else None,
    )


# ---- exact %.17g CSV fields ---------------------------------------------------
#
# A value with decimal exponent X = floor(log10|x|) in [-6, 16] prints under
# %.17g as the 17 digits of N = round_half_even(|x| 10^(16 - X)), which lies in
# [10^16, 10^17).  10^q is exact in binary64 for q <= 22, so |x| 10^q = hi + lo
# exactly by Dekker's two-product, and hi >= 10^16 > 2^53 is an even integer,
# so N = hi + rint(lo) exactly, ties to even included.

_LOW_X, _HIGH_X = -6, 16
_POW10 = 10.0 ** np.arange(23)
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# Every field is a selection of the columns of one row template: the sign,
# "0." and up to three zeros (-4 <= X < 0), the 17 digits, "." and digits
# 2..17 again (where the fraction starts depends on X), the exponent "e-0X"
# (X < -4) and the separator.  A %-formatted field overwrites columns [0, L).
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e-00,", np.uint8)
_DIGITS, _FRACTION, _EXP_DIGIT, _SEP = 6, 24, 43, 44
_EXPONENTS = _HIGH_X - _LOW_X + 1
_TEXT = 2 * _EXPONENTS * 17  # first mask row of the %-formatted fields


def _field_masks() -> np.ndarray:
    """Template columns of each field kind, one row per kind.

    Row (sign * 23 + X + 6) * 17 + nd - 1 for a sign bit, exponent X and nd
    significant digits, then row _TEXT + L - 1 for a %-formatted field of L
    characters.
    """
    cols = np.arange(_TEMPLATE.size)
    neg, x, nd = (a.reshape(-1, 1) for a in np.meshgrid(
        [0, 1], np.arange(_LOW_X, _HIGH_X + 1), np.arange(1, 18), indexing="ij"))
    sci = x < -4
    lead = np.where(x >= 0, x + 1, np.where(sci, 1, nd))  # digits before the point
    mask = (cols == 0) & (neg == 1)
    mask |= (x < 0) & ~sci & (cols >= 1) & (cols < 2 - x)  # "0." and -X - 1 zeros
    mask |= (cols >= _DIGITS) & (cols < _DIGITS + lead)
    mask |= (nd > lead) & ((cols == _FRACTION - 1)
                           | ((cols >= _FRACTION - 1 + lead) & (cols < _FRACTION - 1 + nd)))
    mask |= sci & (cols >= _EXP_DIGIT - 3) & (cols <= _EXP_DIGIT)
    text = cols < np.arange(1, 25).reshape(-1, 1)  # %.17g fields have at most 24 characters
    return np.concatenate([mask, text]) | (cols == _SEP)


_FIELD_MASKS = _field_masks()


def _times_pow10(x: np.ndarray, q: np.ndarray):
    """x 10^q as the unevaluated sum hi + lo, exactly (Dekker's two-product)."""
    hi = x * _POW10[q]
    c = x * _SPLIT
    x_hi = c - (c - x)
    x_lo = x - x_hi
    p_hi, p_lo = _POW10_HI[q], _POW10_LO[q]
    return hi, ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo


def _bytes16(a: np.ndarray, col: int) -> np.ndarray:
    """Columns col..col+15 of each row of a 2-D uint8 array as one 16-byte item.

    Copying through these views moves each row's 16 bytes at once, several
    times faster than the 2-D slice assignment.
    """
    return np.ndarray((a.shape[0],), "V16", a, col, (a.strides[0],))


def _decimal(v: np.ndarray):
    """(N, X, exact): the 17-digit significand and decimal exponent of each value.

    exact is False for zeros, nan, inf and values outside the window; their
    N and X are 0.
    """
    x = np.abs(v)
    exact = (x >= 1e-6) & (x < 1e17)  # the window, up to the exponent check; False for nan
    x = np.where(exact, x, 1.0)
    k = np.clip(np.floor(np.log10(x)).astype(np.int64), _LOW_X, _HIGH_X)
    hi, lo = _times_pow10(x, 16 - k)
    while True:  # log10 may miss X by one near a power of ten: step k until N has 17 digits
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        step = above.astype(np.int64) - below
        redo = np.flatnonzero(exact & (step != 0))
        if redo.size == 0:
            break
        k[redo] += step[redo]
        inside = (k[redo] >= _LOW_X) & (k[redo] <= _HIGH_X)
        exact[redo[~inside]] = False
        redo = redo[inside]
        hi[redo], lo[redo] = _times_pow10(x[redo], 16 - k[redo])
    # N < 10^17: no double lies within half a unit of the 17th digit below a power
    # of ten, so rounding never carries (the tests print the neighbours of 10^k)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    n[~exact] = 0
    k[~exact] = 0
    return n, k, exact


def _digits(n: np.ndarray):
    """The 17 decimal digits of each N as ASCII, one row per position, and the
    count of significant digits (at least 1) once trailing zeros are stripped."""
    digits = np.empty((17, n.size), np.uint8)
    nd = np.full(n.size, 17)
    trailing = np.ones(n.size, bool)
    rest = (n % 10**8).astype(np.uint32)
    for j in range(16, -1, -1):
        if j == 8:
            rest = (n // 10**8).astype(np.uint32)
        q = rest // 10
        digits[j] = rest - q * 10
        rest = q
        trailing &= digits[j] == 0
        nd -= trailing
    digits += ord("0")
    return digits, np.maximum(nd, 1)


def _format_block(v: np.ndarray, ncols: int) -> str:
    """`%.17g` of each value of v, rows of ncols values, each ended by a comma or a newline."""
    n, k, exact = _decimal(v)
    out = np.empty((v.size // ncols, ncols, _TEMPLATE.size), np.uint8)
    out[...] = _TEMPLATE
    out[:, -1, _SEP] = ord("\n")
    out = out.reshape(v.size, -1)
    digits, nd = _digits(n)  # zeros print as the digit 0
    out[:, _DIGITS:_DIGITS + 17] = digits.T
    _bytes16(out, _FRACTION)[...] = _bytes16(out, _DIGITS + 1)
    out[:, _EXP_DIGIT] = ord("0") - k
    kind = (np.signbit(v) * _EXPONENTS + k - _LOW_X) * 17 + nd - 1

    text = np.flatnonzero(~exact & (v != 0))  # nan, inf and values outside the window
    if text.size:
        s = np.frombuffer(("%.17g\n" * text.size % tuple(v[text].tolist())).encode(), np.uint8)
        ends = np.flatnonzero(s == ord("\n"))
        lens = np.diff(ends, prepend=-1) - 1
        # byte b of field i lands in column b of its row; its "\n" is masked out
        out.ravel()[np.repeat(text * out.shape[1] - (ends - lens), lens + 1)
                    + np.arange(s.size)] = s
        kind[text] = _TEXT + lens - 1
    return str(out[np.take(_FIELD_MASKS, kind, axis=0)], "ascii")


# Values formatted at once: few enough that the work arrays (under 200 bytes
# per value) stay in cache and add under 2 MB to peak memory.
CSV_BLOCK_VALUES = 1 << 13


def write_csv(out, header: str, columns) -> None:
    """Header line, then one `%.17g` row per index of the equal-length columns.

    Same bytes as np.savetxt(fmt="%.17g", delimiter=","): values with decimal
    exponent in [-6, 16], and zeros, are formatted exactly in numpy, blocks
    of CSV_BLOCK_VALUES at a time; nan, inf and the few values outside that
    window go through Python's `%` and are spliced into the same block.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = max(1, CSV_BLOCK_VALUES // len(columns))
    out.write(header + "\n")
    for start in range(0, len(columns[0]), rows):
        block = np.column_stack([c[start:start + rows] for c in columns])
        out.write(_format_block(block.ravel(), len(columns)))


def _write_output(config: RunConfig, header: str, columns) -> None:
    if config.out is None:
        return write_csv(sys.stdout, header, columns)
    with open(config.out, "w", newline="\n") as out:
        write_csv(out, header, columns)


def cmd_eval(config: RunConfig) -> int:
    law = config.law
    ts = np.arange(grid_points(config.t_max, config.step)) * config.step
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
    if config.cycles < 2:  # the summary's standard errors need two; reject before any output
        raise EmptySample(f"simulate needs --cycles >= 2, got {config.cycles}")
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


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, declared once for `parents=`."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="Poisson arrival rate")
    p.add_argument("--rho", type=float, required=True, help="traffic intensity")
    p.add_argument("--beta", type=float, default=None,
                   help="constant monotony indicator beta")
    p.add_argument("--beta-file", default=None,
                   help="CSV table `t,beta` with header row, piecewise-linear")
    p.add_argument("--t-max", dest="t_max", type=float, default=None,
                   help="last eval row (default 12 mean busy periods)")
    p.add_argument("--step", type=float, default=None,
                   help="eval row spacing; also the series step when finer than its default")
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mginf",
        description="M|G|inf busy period and busy cycle distributions for the "
                    "Riccati service family",
    )
    common = _common_options()
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("eval", "evaluate analytic curves to CSV"),
                        ("simulate", "run regenerative Monte Carlo"),
                        ("verify", "run the cross-validation suite")):
        sub.add_parser(name, help=help_, parents=[common])
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
