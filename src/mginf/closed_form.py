"""Closed forms for the constant-beta service family, and the busy cycle's exponential tail.

For a constant monotony indicator beta, the service CDF, busy-period CDF and
busy-cycle CDF of the M|G|inf queue all have elementary expressions built from
exponentials plus an atom at zero: 1 - B = C e^{-gamma t}, and Z = B * Exp(lambda)
is a mix of two exponentials.  `cycle_survival` evaluates that mix from any
time T on, given gamma, B's survival at T and Z's: Z here, from T = 0, and
every law's Z past T (`ServiceLaw.cycle_cdf`), T = 0 for constant beta.  Its
one expm1 form stays exact through the confluent point gamma = lambda, with
no switch.  Everything is written in overflow-safe form: only decaying
exponentials are evaluated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    BetaOutOfRange,
    DegenerateDistribution,
    NegativeTime,
    ProbabilityOutOfRange,
)
from .params import QueueParams, beta_bounds

# Evaluators admit beta marginally beyond the certified bounds so that
# continuity studies across the confluent point (rho near ln 2, beta at the
# upper endpoint) can probe both sides; certification in params stays strict.
BOUND_SLACK_REL = 1e-5

def _check_beta(params: QueueParams, beta: float) -> None:
    lo, hi = beta_bounds(params)
    slack = BOUND_SLACK_REL * params.lam
    if not (lo - slack <= beta <= hi + slack):
        raise BetaOutOfRange(f"beta {beta} outside [{lo}, {hi:.6f}]")


def check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.fmin.reduce(t, axis=None, initial=0.0) < 0:  # fmin skips NaN, which passes
        raise NegativeTime("t must be >= 0")
    return t


def float_if_scalar(t, values: np.ndarray):
    """values, computed from the argument t, as a float when t is a scalar."""
    return values.item() if np.ndim(t) == 0 else values


def service_cdf(params: QueueParams, beta: float, t) -> float | np.ndarray:
    """G(t) for constant beta; G == 1 at the degenerate endpoint beta = -lambda."""
    _check_beta(params, beta)
    tt = check_time(t)
    lam, q0 = params.lam, params.exp_neg_rho
    s = lam + beta
    if s <= 0:
        return float_if_scalar(tt, np.ones_like(tt))
    e = np.exp(-s * tt)
    g = 1.0 - (1.0 - q0) * s * e / (lam * q0 + lam * (1.0 - q0) * e)
    return float_if_scalar(tt, g)


def service_atom(params: QueueParams, beta: float) -> float:
    """G(0), the probability of a zero-length service."""
    _check_beta(params, beta)
    lam, q0 = params.lam, params.exp_neg_rho
    return 1.0 - (1.0 - q0) * (lam + beta) / lam


def service_quantile(params: QueueParams, beta: float, u) -> float | np.ndarray:
    """Inverse of service_cdf, vectorised over u: 0 inside the atom, else the closed-form root.

    At the degenerate endpoint beta = -lambda the atom is 1, so every u maps to 0.
    """
    _check_beta(params, beta)
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu < 1.0)):
        raise ProbabilityOutOfRange(f"u must be in [0, 1), got {u}")
    lam, q0 = params.lam, params.exp_neg_rho
    s = lam + beta
    t = np.zeros_like(uu)
    live = uu > service_atom(params, beta)
    v = (1.0 - uu[live]) * lam
    t[live] = np.log((1.0 - q0) * (s - v) / (v * q0)) / s
    return float_if_scalar(uu, np.maximum(t, 0.0))


def busy_period_cdf(params: QueueParams, beta: float, t) -> float | np.ndarray:
    """B(t): atom of size G(0) plus an exponential of rate e^{-rho}(lambda+beta)."""
    _check_beta(params, beta)
    tt = check_time(t)
    lam, q0 = params.lam, params.exp_neg_rho
    s = lam + beta
    b = np.multiply(tt, -q0 * s, out=np.empty_like(tt))
    np.exp(b, out=b)
    b *= (s / lam) * (1.0 - q0)
    return float_if_scalar(tt, np.subtract(1.0, b, out=b))


def cycle_survival(lam: float, gamma: float, weight: float, idle: float,
                   u: np.ndarray) -> np.ndarray:
    """1 - Z(T + u) where 1 - B = C e^{-gamma t} from T on: the busy cycle's exponential tail.

    Z = B * Exp(lambda), so with idle = 1 - Z(T) and weight = lambda C e^{-gamma T},

        1 - Z(T + u) = idle e^{-lambda u} + weight (e^{-gamma u} - e^{-lambda u})/(lambda - gamma).

    The quotient is formed as e^{-min(lambda, gamma) u} (-expm1(-|d| u))/|d|,
    d = lambda - gamma, and as u e^{-lambda u} where d == 0: only decaying
    exponentials, and no cancellation however close gamma is to lambda.  u is
    a float array (NaN passes through); the result is formed in place in two
    new arrays of its size.
    """
    gap = abs(lam - gamma)
    s, e = np.empty_like(u), np.empty_like(u)
    if gap == 0.0:
        np.multiply(u, 1.0, out=s)
    else:
        np.expm1(np.multiply(u, -gap, out=s), out=s)
        s /= -gap
    s *= np.exp(np.multiply(u, -min(lam, gamma), out=e), out=e)
    s *= weight
    np.exp(np.multiply(u, -lam, out=e), out=e)
    e *= idle
    s += e
    return s


def busy_cycle_cdf(params: QueueParams, beta: float, t) -> float | np.ndarray:
    """Z(t) = 1 - cycle_survival from T = 0, in two arrays of t's size.

    1 - B = C e^{-gamma t} from t = 0, with gamma = e^{-rho}(lambda+beta) and
    lambda C = (1 - e^{-rho})(lambda+beta), and 1 - Z(0) = 1.  At the confluent
    point gamma == lambda the mixture is 1 - (1 + lambda C t) e^{-lambda t}.
    """
    _check_beta(params, beta)
    tt = check_time(t)
    q0 = params.exp_neg_rho
    s = params.lam + beta
    z = cycle_survival(params.lam, q0 * s, (1.0 - q0) * s, 1.0, tt)
    return float_if_scalar(tt, np.subtract(1.0, z, out=z))


def empty_probability(params: QueueParams, beta: float, t) -> float | np.ndarray:
    """p00(t) = e^{-lambda int_0^t [1-G]}; closed form e^{-rho} + (1-e^{-rho})e^{-(lambda+beta)t}."""
    _check_beta(params, beta)
    tt = check_time(t)
    q0 = params.exp_neg_rho
    s = params.lam + beta
    p = q0 + (1.0 - q0) * np.exp(-s * tt)
    return float_if_scalar(tt, p)


def busy_start_empty_probability(params: QueueParams, beta: float, t) -> float | np.ndarray:
    """p1'0(t) = p00(t) G(t): probability the system is empty at t after a busy period starts at 0."""
    return empty_probability(params, beta, t) * service_cdf(params, beta, t)


def monotony_indicator(params: QueueParams, beta: float, t) -> float | np.ndarray:
    """g(t)/(1-G(t)) - lambda G(t), from the analytic density.

    The hazard ratio simplifies to s*lambda*e^{-rho}/D(t) with
    D(t) = lambda(e^{-rho} + (1-e^{-rho})e^{-st}), which avoids the 0/0 of the
    raw quotient at large t.  For the constant family this equals beta
    identically.
    """
    _check_beta(params, beta)
    if beta <= -params.lam:
        raise DegenerateDistribution("no density at beta = -lambda")
    tt = check_time(t)
    lam, q0 = params.lam, params.exp_neg_rho
    s = lam + beta
    e = np.exp(-s * tt)
    d = lam * (q0 + (1.0 - q0) * e)
    hazard = s * lam * q0 / d
    g = 1.0 - (1.0 - q0) * s * e / d
    return float_if_scalar(tt, hazard - lam * g)


class EnvelopeBounds(NamedTuple):
    bp_floor: float | np.ndarray
    cycle_floor: float | np.ndarray
    cycle_ceiling: float | np.ndarray


def envelope_bounds(params: QueueParams, t) -> EnvelopeBounds:
    """The paper's envelopes: floors bp_floor, cycle_floor and ceiling cycle_ceiling.

    bp_floor and cycle_floor are the busy-period and busy-cycle CDFs at the
    upper endpoint beta = lambda/(e^rho - 1).  They bound B and Z only at the
    two endpoints of beta (with equality at the upper one); every interior beta
    has the same means, so its B and Z cross them.  Only cycle_ceiling, the
    exponential idle-period CDF, bounds Z for every beta.
    """
    tt = check_time(t)
    lam = params.lam
    hi = lam / math.expm1(params.rho)
    bp_floor = -np.expm1(-hi * tt)
    cycle_ceiling = -np.expm1(-lam * tt)
    cycle_floor = busy_cycle_cdf(params, hi, tt)
    return EnvelopeBounds(float_if_scalar(tt, bp_floor), cycle_floor,
                          float_if_scalar(tt, cycle_ceiling))
