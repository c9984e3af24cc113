"""System parameters and the beta-function family with admissibility certification.

The service-time family is parameterized by a rate function beta(t), either a
single constant or a piecewise-linear table.  A beta function is admissible when
its running average (1/t) * int_0^t beta(u) du stays inside [-lambda,
lambda/(e^rho - 1)] for every t > 0; `validate_beta` certifies that, and
ServiceLaw calls it on the params and spec it is given before it builds anything.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BetaOutOfRange,
    EmptyTable,
    InvalidTable,
    NonFiniteParameter,
    NonPositiveParameter,
    NonPositiveTime,
)


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate, traffic intensity, and derived quantities."""

    lam: float
    rho: float
    alpha: float = field(init=False)
    exp_neg_rho: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", self.rho / self.lam)
        object.__setattr__(self, "exp_neg_rho", math.exp(-self.rho))


@dataclass(frozen=True)
class BetaSpec:
    """Constant or tabulated beta(t).

    A tabulated spec holds (t, beta) knots with strictly increasing abscissae
    starting at t = 0; beta is piecewise linear between knots and held constant
    at the last ordinate beyond the table.  A constant is stored as the
    one-knot table ((0, constant),), so both evaluate the same way, and a
    one-knot table is stored as the constant it equals.
    """

    constant: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    _ts: np.ndarray = field(init=False, repr=False, compare=False)
    _vs: np.ndarray = field(init=False, repr=False, compare=False)
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)  # int_0^{t_k} beta
    _slope: np.ndarray = field(init=False, repr=False, compare=False)  # per segment; 0 past the end

    def __post_init__(self):
        if (self.constant is None) == (self.knots is None):
            raise InvalidTable("exactly one of constant / knots must be given")
        if self.knots is not None:
            if len(self.knots) == 0:
                raise EmptyTable("tabulated beta needs at least one knot")
            ts = [t for t, _ in self.knots]
            if ts[0] != 0.0:
                raise InvalidTable("first knot must be at t = 0")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise InvalidTable("knot abscissae must be strictly increasing")
            if len(self.knots) == 1:
                object.__setattr__(self, "constant", float(self.knots[0][1]))
                object.__setattr__(self, "knots", None)
        knots = self.knots if self.knots is not None else ((0.0, self.constant),)
        ts = np.array([k[0] for k in knots], dtype=float)
        vs = np.array([k[1] for k in knots], dtype=float)
        if not np.all(np.isfinite(ts) & np.isfinite(vs)):
            raise NonFiniteParameter("beta values and knots must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            prefix = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))])
            slope = np.append(np.diff(vs) / np.diff(ts), 0.0)
        if not np.all(np.isfinite(prefix)):
            raise NonFiniteParameter("the integral of the beta table overflows")
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_slope", slope)

    @property
    def last_knot(self) -> float:
        """Abscissa of the last knot (0 for a constant); beta is constant beyond it."""
        return float(self._ts[-1])

    @property
    def knot_times(self) -> np.ndarray:
        """Abscissae of the knots, from 0 (just 0 for a constant); beta is linear between them."""
        return self._ts

    @property
    def max_abs(self) -> float:
        """max |beta(t)| over t >= 0, attained at a knot."""
        return float(np.max(np.abs(self._vs)))

    def value(self, t):
        """beta(t); vectorized over t."""
        return np.interp(t, self._ts, self._vs)

    def tail_rate(self) -> float:
        """Constant value of beta beyond the last knot."""
        return float(self._vs[-1])

    def cumulative(self, t):
        """int_0^t beta(u) du for t >= 0, exact for the piecewise-linear table; vectorized.

        One search finds each t's segment; beta(t) there is the segment's slope
        times the offset plus its left knot, the same arithmetic as np.interp.
        """
        t = np.asarray(t, dtype=float)
        scalar, t = t.ndim == 0, np.atleast_1d(t)
        idx = np.searchsorted(self._ts, t, side="right")
        idx -= 1
        np.maximum(idx, 0, out=idx)
        dt = self._ts[idx]
        np.subtract(t, dt, out=dt)
        out = self._slope[idx]  # prefix + (bl + (slope dt + bl)) dt/2, formed in place
        out *= dt
        bl = self._vs[idx]
        out += bl
        out += bl
        out *= 0.5
        out *= dt
        out += self._prefix.take(idx, out=bl, mode="clip")  # in bl's array; idx is in range
        return float(out[0]) if scalar else out


def validate_queue_params(lam: float, rho: float) -> QueueParams:
    """Check and package (lambda, rho); alpha = rho/lambda is derived."""
    for name, v in (("lambda", lam), ("rho", rho)):
        if not math.isfinite(v):
            raise NonFiniteParameter(f"{name} must be finite, got {v}")
        if v <= 0:
            raise NonPositiveParameter(f"{name} must be > 0, got {v}")
    if rho > math.log(sys.float_info.max):
        raise NonFiniteParameter(f"rho must be <= {math.log(sys.float_info.max):.6f} "
                                 f"so that e^rho is finite, got {rho}")
    return QueueParams(lam=float(lam), rho=float(rho))


def beta_bounds(params: QueueParams) -> tuple[float, float]:
    """Admissible range [-lambda, lambda/(e^rho - 1)] for the running average of beta."""
    return -params.lam, params.lam / math.expm1(params.rho)


def validate_beta(params: QueueParams, spec: BetaSpec) -> None:
    """Certify that the running average C(t)/t, C = int_0^t beta, is in beta_bounds for all t > 0.

    beta is piecewise linear, so C(t)/t takes its extremes among its limits
    beta(0) and beta(inf), its values at the knots, and inside a segment where
    t beta(t) = C(t): with slope s_k != 0 that is t_k + u,
    u = -t_k + sqrt(t_k^2 - 2 (t_k beta_k - C(t_k))/s_k) in (0, t_{k+1} - t_k).
    The check is exact; a constant is the one-knot table.  Raises
    BetaOutOfRange where the running average leaves the range.
    """
    lo, hi = beta_bounds(params)
    ts, vs, cs = spec._ts, spec._vs, spec._prefix
    t0, seg = ts[:-1], np.diff(ts)
    with np.errstate(all="ignore"):  # no root where s_k = 0 or the root is complex
        u = np.sqrt(t0**2 - 2.0 * (t0 * vs[:-1] - cs[:-1]) * seg / np.diff(vs)) - t0
    roots = (t0 + u)[(u > 0) & (u < seg)]
    inner = np.concatenate([ts[1:], roots])
    where = np.concatenate([[0.0], inner, [math.inf]])
    avg = np.concatenate([vs[:1], spec.cumulative(inner) / inner, vs[-1:]])
    bad = np.nonzero((avg < lo) | (avg > hi))[0]
    if bad.size:
        i = bad[0]
        raise BetaOutOfRange(
            f"running average of beta at t={where[i]:.6g} is {avg[i]:.6g}, "
            f"outside [{lo}, {hi:.6f}]"
        )


def running_average_beta(spec: BetaSpec, t: float) -> float:
    """(1/t) int_0^t beta(u) du."""
    if t <= 0:
        raise NonPositiveTime(f"t must be > 0, got {t}")
    return float(spec.cumulative(t)) / t


def _knot(row: list[str]) -> tuple[float, float] | None:
    """(t, beta) from a CSV row's first two fields, or None if they are not two numbers."""
    try:
        return float(row[0]), float(row[1])
    except (ValueError, IndexError):
        return None


def load_beta_table(path: str | Path) -> BetaSpec:
    """Read a two-column CSV `t,beta` into a tabulated BetaSpec.

    The header row is optional: a first row that parses as two numbers is the first knot.
    Blank rows are skipped.
    """
    knots = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for i, row in enumerate(reader):
                knot = _knot(row)
                if knot is not None:
                    knots.append(knot)
                elif row and i > 0:  # a first row of text is the header
                    raise InvalidTable(f"{path}, line {reader.line_num}: "
                                       f"expected two numbers `t,beta`, got {row}")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InvalidTable(f"{path}: not UTF-8 CSV text ({exc})") from None
    if not knots:
        raise EmptyTable(f"{path}: no data rows")
    return BetaSpec(knots=tuple(knots))
