"""Command-line front end: `mginf eval|simulate|verify`.

One parser takes the command and the nine options, in any order; every
command reads the law's options (`--lambda`, `--rho`, `--beta` or
`--beta-file`, `--step`), `eval` also `--t-max` and `--out`, `simulate`
`--cycles`, `--seed` and `--out`, `verify` `--cycles` and `--seed`.  Each run
validates all of them and builds one ServiceLaw whose series grid
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
inf and values outside that window go through Python's `%`.  The digits
come from two 10^4-entry tables built with numpy at import: the product's
integer N is split into its leading digit and four 4-digit chunks, each
chunk's 4 ASCII bytes are looked up and stored 16 bytes a row into the
row template, and the count of significant digits is the largest of four
lookups derived from each chunk's trailing zeros.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import closed_form as cf
from .errors import (
    EmptySample, MginfError, NegativeParameter, NonFiniteParameter, NonPositiveParameter,
)
from .law import ServiceLaw
from .params import BetaSpec, load_beta_table, validate_queue_params
from .simulate import cycle_ks, cycle_summary, run_cycles
from .transforms import default_step, grid_points
from .verify import verify_point

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_law(args) -> ServiceLaw:
    """The run's certified ServiceLaw, after every check of its options.

    Fills in the defaults of args.t_max (12 mean busy periods) and args.step
    (the law's default step); the law steps at the finer of args.step and
    its default.
    """
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
    if args.t_max is None:
        args.t_max = 12.0 * math.expm1(params.rho) / params.lam
    if args.step is None:
        args.step = h
    if not (math.isfinite(args.t_max) and math.isfinite(args.step)):
        raise NonFiniteParameter(f"--t-max and --step must be finite, "
                                 f"got {args.t_max} and {args.step}")
    if args.t_max <= 0:
        raise MginfError(f"--t-max must be > 0, got {args.t_max}")
    if args.step <= 0:
        raise MginfError(f"--step must be > 0, got {args.step}")
    return ServiceLaw(params, spec, min(h, args.step))


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

def _chunk_tables():
    """_CHUNK_TEXT, _CHUNK_ZEROS and _SIGNIFICANT, from the 4 digits of c in a (10,) * 4 grid.

    N = d 10^16 + c1 10^12 + c2 10^8 + c3 10^4 + c4, every chunk c_j below
    10^4.  _CHUNK_TEXT[c] holds the 4 ASCII digits f"{c:04d}" as one 4-byte
    item and _CHUNK_ZEROS[c] their trailing zeros (4 for c = 0).  N has
    nd = 1 + max_j _SIGNIFICANT[j - 1, c_j] significant digits:
    _SIGNIFICANT[j - 1, c] = 4 j - _CHUNK_ZEROS[c] counts the digits after d
    through the last nonzero one of chunk j = c, and is 0 for c = 0.
    """
    digits = np.ix_(*[np.arange(10, dtype=np.uint8)] * 4)
    text = np.stack(np.broadcast_arrays(*digits), axis=-1).reshape(-1, 4) + ord("0")
    zeros = 0
    for digit in digits:  # the trailing zeros of the first 1, 2, 3 and 4 digits
        zeros = (digit == 0) * (1 + zeros)
    zeros = zeros.astype(np.uint8).ravel()
    significant = (np.arange(4, 17, 4, dtype=np.uint8).reshape(-1, 1) - zeros) * (zeros < 4)
    return text.view(np.uint32).ravel(), zeros, significant


_CHUNK_TEXT, _CHUNK_ZEROS, _SIGNIFICANT = _chunk_tables()


def _times_pow10(x: np.ndarray, q: np.ndarray):
    """x 10^q as the unevaluated sum hi + lo, exactly (Dekker's two-product), formed in place."""
    hi = _POW10.take(q)
    hi *= x
    x_hi = x * _SPLIT
    t = x_hi - x
    x_hi -= t  # c - (c - x), c = x * _SPLIT
    x_lo = x - x_hi
    p_hi, p_lo = _POW10_HI.take(q), _POW10_LO.take(q)
    lo = np.multiply(x_hi, p_hi, out=t)
    lo -= hi
    x_hi *= p_lo
    lo += x_hi
    p_hi *= x_lo
    lo += p_hi
    x_lo *= p_lo
    lo += x_lo  # ((x_hi p_hi - hi) + x_hi p_lo + x_lo p_hi) + x_lo p_lo
    return hi, lo


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
    x = np.where(exact, x, 2.0)  # X = 0, and N = 2 10^16 needs no exponent step
    k = np.floor(np.log10(x))
    k = np.minimum(np.maximum(k, _LOW_X, out=k), _HIGH_X, out=k).astype(np.int64)
    hi, lo = _times_pow10(x, 16 - k)
    # log10 may miss X by one near a power of ten: step k until N has 17 digits
    redo = ((hi <= 1e16) | (hi >= 1e17)).nonzero()[0]
    while True:
        h, l = hi[redo], lo[redo]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64)
        step -= (h < 1e16) | ((h == 1e16) & (l < 0))
        redo, step = redo[step != 0], step[step != 0]
        if redo.size == 0:
            break
        k[redo] += step
        outside = (k[redo] < _LOW_X) | (k[redo] > _HIGH_X)
        exact[redo[outside]] = False
        k[redo[outside]] = 0
        redo = redo[~outside]
        hi[redo], lo[redo] = _times_pow10(x[redo], 16 - k[redo])
    # N < 10^17: no double lies within half a unit of the 17th digit below a power
    # of ten, so rounding never carries (the tests print the neighbours of 10^k)
    n = hi.astype(np.int64)
    n += np.rint(lo, out=lo).astype(np.int64)
    n *= exact
    return n, k, exact


def _digits(out: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Write the 17 digits of each N into its row of out; return its significant digits less one.

    d goes in column _DIGITS, and the text of c1..c4, one 16-byte item, in
    columns _DIGITS + 1.. and again in _FRACTION..  N = 0 prints as the digit 0.
    """
    upper = n // 10**8
    lower = (n - upper * 10**8).astype(np.uint32)  # c3 c4
    upper = upper.astype(np.uint32)  # d c1 c2
    top = upper // 10**4  # d c1
    upper -= top * 10**4  # c2
    lead = top // 10**4  # d
    top -= lead * 10**4  # c1
    c3 = lower // 10**4
    lower -= c3 * 10**4  # c4
    out[:, _DIGITS] += lead.astype(np.uint8)
    chunks = (top, upper, c3, lower)
    text = np.empty((n.size, 4), np.uint32)
    for j, c in enumerate(chunks):
        _CHUNK_TEXT.take(c, out=text[:, j], mode="clip")
    text = text.view("V16").ravel()
    _bytes16(out, _DIGITS + 1)[...] = text
    _bytes16(out, _FRACTION)[...] = text
    after = _SIGNIFICANT[0].take(top)
    for j, c in enumerate(chunks[1:], 1):
        np.maximum(after, _SIGNIFICANT[j].take(c), out=after)
    return after


def _format_block(v: np.ndarray, ncols: int) -> str:
    """`%.17g` of each value of v, rows of ncols values, each ended by a comma or a newline."""
    n, k, exact = _decimal(v)
    out = np.empty((v.size // ncols, ncols, _TEMPLATE.size), np.uint8)
    out[...] = _TEMPLATE
    out[:, -1, _SEP] = ord("\n")
    out = out.reshape(v.size, -1)
    after = _digits(out, n)
    out[:, _EXP_DIGIT] = ord("0") - k
    kind = k.astype(np.int16)  # row (sign * 23 + X + 6) * 17 + nd - 1 of _FIELD_MASKS
    del n, k  # freed before the selection, the block's peak
    kind += np.signbit(v) * np.int16(_EXPONENTS) - _LOW_X
    kind *= 17
    kind += after

    text = (~exact & (v != 0)).nonzero()[0]  # nan, inf and values outside the window
    if text.size:
        s = np.frombuffer(("%.17g\n" * text.size % tuple(v[text].tolist())).encode(), np.uint8)
        ends = np.flatnonzero(s == ord("\n"))
        lens = np.diff(ends, prepend=-1) - 1
        # byte b of field i lands in column b of its row; its "\n" is masked out
        out.ravel()[np.repeat(text * out.shape[1] - (ends - lens), lens + 1)
                    + np.arange(s.size)] = s
        kind[text] = _TEXT + lens - 1
    return str(out[_FIELD_MASKS.take(kind, axis=0)], "ascii")


# Values formatted at once.  A block's arrays peak at under 140 bytes a value
# (0.5 MB).  glibc hands the free top of its heap back to the kernel once it
# exceeds the trim threshold, twice the largest mapping freed so far, and a
# block that outgrows it faults its pages in afresh every time: 8190-value
# blocks (1.3 MB before the 4-digit tables) took 250 minor faults each in a
# fresh process, these none.
CSV_BLOCK_VALUES = 1 << 12


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


def _write_output(args, header: str, columns) -> None:
    if not args.out:
        return write_csv(sys.stdout, header, columns)
    with open(args.out, "w", newline="\n") as out:
        write_csv(out, header, columns)


def cmd_eval(args, law: ServiceLaw) -> int:
    ts = np.arange(grid_points(args.t_max, args.step)) * args.step
    g = law.cdf(ts)
    b = law.busy_cdf(ts)
    z = law.cycle_cdf(ts)
    p00 = law.p00(ts)
    ind = law.indicator(ts)
    p10 = p00 * g
    env = cf.envelope_bounds(law.params, ts)
    _write_output(args, "t,G,B,Z,p00,p10,indicator,bp_floor,cycle_floor,cycle_ceiling",
                  (ts, g, b, z, p00, p10, ind, env.bp_floor, env.cycle_floor, env.cycle_ceiling))
    return EXIT_OK


def cmd_simulate(args, law: ServiceLaw) -> int:
    if args.cycles < 2:  # the summary's standard errors need two; reject before any output
        raise EmptySample(f"simulate needs --cycles >= 2, got {args.cycles}")
    samples = run_cycles(law.params, law.quantile, args.cycles, args.seed)
    _write_output(args, "busy,idle,cycle", (samples.busy, samples.idle, samples.cycle))
    summ = cycle_summary(samples)
    ks_busy, ks_cycle, ks_idle = cycle_ks(samples, law)
    print(f"cycles          {samples.n}")
    print(f"seed            {samples.seed}")
    print(f"mean_busy       {_fmt(summ.mean_busy)} (stderr {_fmt(summ.stderr_busy)})")
    print(f"mean_idle       {_fmt(summ.mean_idle)} (stderr {_fmt(summ.stderr_idle)})")
    print(f"mean_cycle      {_fmt(summ.mean_cycle)} (stderr {_fmt(summ.stderr_cycle)})")
    print(f"ks_busy         {_fmt(ks_busy)}")
    print(f"ks_cycle        {_fmt(ks_cycle)}")
    print(f"ks_idle         {_fmt(ks_idle)}")
    return EXIT_OK


def cmd_verify(args, law: ServiceLaw) -> int:
    results = verify_point(law, args.cycles, args.seed)
    for r in results:
        print(r)
    return EXIT_VERIFY_FAIL if any(r.status == "FAIL" for r in results) else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mginf",
        description="M|G|inf busy period and busy cycle distributions for the "
                    "Riccati service family",
    )
    parser.add_argument("command", choices=("eval", "simulate", "verify"),
                        help="eval: analytic curves to CSV; simulate: regenerative Monte Carlo; "
                             "verify: the cross-validation suite")
    parser.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="Poisson arrival rate")
    parser.add_argument("--rho", type=float, required=True, help="traffic intensity")
    parser.add_argument("--beta", type=float, default=None,
                        help="constant monotony indicator beta")
    parser.add_argument("--beta-file", default=None,
                        help="CSV table `t,beta` (optional header row), piecewise-linear")
    parser.add_argument("--t-max", dest="t_max", type=float, default=None,
                        help="last eval row (default 12 mean busy periods)")
    parser.add_argument("--step", type=float, default=None,
                        help="eval row spacing; also the series step when finer than its default")
    parser.add_argument("--cycles", type=int, default=100_000,
                        help="Monte Carlo cycles of simulate and verify")
    parser.add_argument("--seed", type=int, default=0, help="seed of simulate and verify")
    parser.add_argument("--out", default=None, help="CSV of eval or simulate (default stdout)")
    args = parser.parse_args(argv)
    try:
        law = _build_law(args)
        # looked up at call time, so a wrapper put on the module sees every command
        command = {"eval": cmd_eval, "simulate": cmd_simulate, "verify": cmd_verify}[args.command]
        return command(args, law)
    except MginfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
