"""Bivariate means of two positive reals.

Eight means are supported: contra-harmonic, centroidal, arithmetic,
geometric, harmonic, root-square, and the two Seiffert means defined
through arcsin and arctan of the normalized difference (a-b)/(a+b).
Every mean is symmetric and homogeneous, so each is evaluated as
m*M(1, r) with m = max(a, b) and r = min(a, b)/m: the evaluators are
pure functions of r in [0, 1] alone, and the Seiffert means extend
continuously to a == b (r == 1).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from .errors import DegeneratePairError, DomainError
from .kernels import _H2_NUM, _H4_NUM, _PI_LOW

__all__ = [
    "MeanKind",
    "PositivePair",
    "eval_mean",
    "half_sum_ratio",
    "seiffert_p_arctan_form",
]


class MeanKind(enum.Enum):
    """The eight supported means, keyed by their conventional short codes."""

    CONTRA_HARMONIC = "C"
    CENTROIDAL = "Cbar"
    ARITHMETIC = "A"
    GEOMETRIC = "G"
    HARMONIC = "H"
    ROOT_SQUARE = "S"
    SEIFFERT_P = "P"
    SEIFFERT_T = "T"

    # Members are singletons compared by identity, so the identity hash agrees with ==;
    # it runs in C, where Enum.__hash__ is a Python call on every kind-keyed lookup.
    __hash__ = object.__hash__


class _PairFields(NamedTuple):
    a: float
    b: float


class PositivePair(_PairFields):
    """A validated pair of positive finite reals, stored as floats.

    ``degenerate`` says whether a == b; ``bounds.ratio`` refuses such a
    pair, whose ratio is 0/0.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> PositivePair:
        try:
            fa = float(a)
            fb = float(b)
        except (TypeError, ValueError, OverflowError):
            fa = fb = math.nan  # refused just below, like any non-positive value
        if not (fa > 0.0 and fb > 0.0) or fa == math.inf or fb == math.inf:
            raise DomainError(f"means are defined for positive finite reals, got a={a!r}, b={b!r}")
        return super().__new__(cls, fa, fb)

    @classmethod
    def _make(cls, iterable) -> PositivePair:
        return cls(*iterable)  # so _replace validates too

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    def __repr__(self) -> str:
        return f"PositivePair(a={self.a!r}, b={self.b!r}, degenerate={self.degenerate!r})"


# Below the cutoff P is in the excess form, as C, Cbar, A and T are.  The direct
# quotient alone gives P(1.0000000000000001e-150, 1e-150) = 9.999999999999999e-151
# < min(a, b) and, on (1 + d, 1) for 3000 d log-spaced on [2^-52, 2e-4], a worst
# error of 1.25 ulp, against 0.93.  At r == 1 it is 0/0; P = A.
_SERIES_CUTOFF = 1e-4


def _geometric(r: float) -> float:
    return math.sqrt(r)


def _harmonic(r: float) -> float:
    return 2.0 * r / (1.0 + r)


def _root_square(r: float) -> float:
    return math.sqrt(0.5 * (1.0 + r * r))


# The two substitutions, t = (1 - r)/(1 + r) = sin(theta) or tan(theta): theta_sub ->
# theta(r), r in [0, 1].  asin t is taken as atan2(1 - r, 2*sqrt(r)), since asin amplifies
# the quotient's rounding by 1/sqrt(1 - t^2) as t -> 1 and atan2 does not; atan amplifies
# it by at most 1 on [0, 1].  theta(0) is the right end of the theta range, pi/2 or pi/4.
def _theta_sin(r: float) -> float:
    return math.atan2(1.0 - r, 2.0 * math.sqrt(r))


def _theta_tan(r: float) -> float:
    return math.atan((1.0 - r) / (1.0 + r))


_THETA_SUBS = {"sin": _theta_sin, "tan": _theta_tan}


def _seiffert_p(r: float) -> float:
    if (1.0 - r) / (1.0 + r) < _SERIES_CUTOFF:
        return _excess_form(_excess_p, r)
    return (1.0 - r) / (2.0 * _theta_sin(r))


# kind -> r -> M(1, r), r in [0, 1], for the means not in the excess form: the excesses
# of G and H cancel as r -> 0, and S and P are better direct (worst 0.84 and 1.48 ulp of
# M(1, r) on 5000 pairs of every scale, against 1.35 and 2.31 in the excess form)
_EVALUATORS = {
    MeanKind.GEOMETRIC: _geometric,
    MeanKind.HARMONIC: _harmonic,
    MeanKind.ROOT_SQUARE: _root_square,
    MeanKind.SEIFFERT_P: _seiffert_p,
}


# Excesses: with t = (1 - r)/(1 + r), each mean is M(1, r) == A*(1 + t^2*e),
# A = (1 + r)/2; e is 1, 1/3, 0 or -1 for C, Cbar, A and H and, for G, S, P
# and T, a function of r in [0, 1) free of cancellation as r -> 1.  P and T
# are (t - theta)/(theta*t^2), theta = asin t or atan t: below the cutoff, via
# series in theta^2, the first 9 and 8 terms (ten would move last bits) of
# kernels' (theta - sin theta)/theta^3 and (sin theta - theta cos theta)/theta^3,
# summed by straight-line Horner as kernels sums its tables; above it, from
# theta = pi/2 - 2*atan(sqrt r) or pi/4 - atan r.  All ten terms there would gain at most
# 1.3 ulp (6.3 against 7.6 for P, 3.0 against 3.6 for T, on 6000 uniform r; on a log grid
# the closed forms win, 3 against 4) and add 80-95 us, 11%, to a 2000-sample seven-spec
# certify_many (Python 3.11, 2-core Xeon).
_SINE_GAP = _H4_NUM[:9]
_TANGENT_GAP = _H2_NUM[:8]
_EXCESS_CUTOFF = 0.9
_HALF_PI, _ONE_MINUS_HALF_PI = math.pi / 2, 1.0 - math.pi / 2 - _PI_LOW / 2  # correctly rounded
_QUARTER_PI, _ONE_MINUS_QUARTER_PI = math.pi / 4, 1.0 - math.pi / 4 - _PI_LOW / 4


def _excess_g(r: float) -> float:
    g = 1.0 + math.sqrt(r)
    return -(1.0 + r) / (g * g)


def _excess_s(r: float) -> float:
    return (1.0 + r) / (1.0 + r + math.sqrt(2.0 * (1.0 + r * r)))


def _excess_p(r: float) -> float:
    s = 1.0 + r
    t = (1.0 - r) / s
    if t < _EXCESS_CUTOFF:
        theta = _theta_sin(r)
        q = theta / t
        w = theta * theta
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = _SINE_GAP
        gap = c0 + w * (c1 + w * (c2 + w * (c3 + w * (c4 + w * (c5 + w * (c6 + w * (c7 + w * c8)))))))
        return -q * q * gap
    v = math.atan(math.sqrt(r))
    return (_ONE_MINUS_HALF_PI + 2.0 * (v - r / s)) / ((_HALF_PI - 2.0 * v) * t * t)


def _excess_t(r: float) -> float:
    s = 1.0 + r
    t = (1.0 - r) / s
    if t < _EXCESS_CUTOFF:
        theta = _theta_tan(r)
        q = theta / t
        w = theta * theta
        c0, c1, c2, c3, c4, c5, c6, c7 = _TANGENT_GAP
        gap = c0 + w * (c1 + w * (c2 + w * (c3 + w * (c4 + w * (c5 + w * (c6 + w * c7))))))
        return q * q * math.sqrt(1.0 + t * t) * gap
    v = math.atan(r)
    return (_ONE_MINUS_QUARTER_PI + (v - 2.0 * r / s)) / ((_QUARTER_PI - v) * t * t)


# kind -> its excess e, a float for C, Cbar, A and H and a function of r for G, S, P and T
_EXCESSES = {
    MeanKind.CONTRA_HARMONIC: 1.0, MeanKind.CENTROIDAL: 1 / 3, MeanKind.ARITHMETIC: 0.0, MeanKind.HARMONIC: -1.0,
    MeanKind.GEOMETRIC: _excess_g, MeanKind.ROOT_SQUARE: _excess_s,
    MeanKind.SEIFFERT_P: _excess_p, MeanKind.SEIFFERT_T: _excess_t,
}


def _excess_form(excess: Callable[[float], float], r: float) -> float:
    """M(1, r) == a + a*t*t*e, with a = (1 + r)/2, t = (1 - r)/(1 + r) and e = excess(r)."""
    s = 1.0 + r
    t = (1.0 - r) / s
    if not t:  # r == 1, where T's and P's excesses are 0/0
        return 1.0
    a = 0.5 * s
    return a + a * t * t * excess(r)


# kind -> r -> M(1, r), each excess bound into its evaluator once, a constant as a function of r
_M_OF_R = _EVALUATORS | {
    kind: partial(_excess_form, e if callable(e) else lambda r, e=e: e)
    for kind, e in _EXCESSES.items() if kind not in _EVALUATORS
}


def _reduce(pair: PositivePair) -> tuple[float, float]:
    """(m, r) = (max(a, b), min(a, b)/max(a, b)), so M(a, b) == m*M(1, r)."""
    try:
        a, b = pair.a, pair.b
    except AttributeError:
        raise DomainError(f"pair must be a PositivePair, got {pair!r}") from None
    if a >= b:
        return a, b / a
    return b, a / b


# Below the normal range r = min/max keeps fewer than 53 bits.  G(1, r) and
# H(1, r) carry r's relative error whole, so there they are taken from
# min itself (1 + r == 1 exactly); the other six means are M(1, 0) to
# within r and do not notice.
_SUBNORMAL_R = 2.0**-1022
_FROM_MIN = {
    MeanKind.GEOMETRIC: lambda m, low: math.sqrt(m) * math.sqrt(low),
    MeanKind.HARMONIC: lambda m, low: 2.0 * low,
}


def eval_mean(kind: MeanKind, pair: PositivePair) -> float:
    """Evaluate one mean of the pair as m*M(1, r).

    Every mean is symmetric and homogeneous, so with m = max(a, b) and
    r = min(a, b)/m the result is m times the mean of (1, r); extreme
    magnitudes cannot overflow.  C, Cbar, A and T, and P where
    (1 - r)/(1 + r) < 1e-4, are a + a*t*t*e, e the mean's excess (_excess_form).
    The result lies in [min(a, b), max(a, b)]; the Seiffert means take their
    continuous-extension value a at a == b.  Against a 60-digit reference, for
    r = min(a, b)/max(a, b) from 1 - 2^-52 down to 2^-1073, for r that underflows
    to 0 and for pairs of arbitrary mantissas, the error is at most 3.6 ulp for C,
    2.8 for Cbar, 2.0 for A, 3.5 for G, 4.2 for H, 2.4 for S and 3.2 for P and T
    (worst measured 1.17, 2.13, 1.32, 1.75, 2.76, 1.25, 2.54 and 2.50).
    """
    m, r = _reduce(pair)
    try:
        f = _M_OF_R[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        kinds = ", ".join(str(k) for k in MeanKind)
        raise DomainError(f"kind must be one of {kinds}, got {kind!r}") from None
    if r < _SUBNORMAL_R and kind in _FROM_MIN:
        return _FROM_MIN[kind](m, min(pair.a, pair.b))
    return m * f(r)


_ONE_INSIDE = math.nextafter(1.0, 0.0)


def half_sum_ratio(pair: PositivePair) -> float:
    """(a - b)/(a + b): the reduction variable of the bounds engine.

    Lies in (-1, 1) and is antisymmetric under swapping a and b.  Ratios
    beyond ~1e16 would round the quotient to +-1.0 exactly; those are
    clamped to the nearest double inside the open interval.
    """
    _, r = _reduce(pair)
    t = (1.0 - r) / (1.0 + r)
    if t >= 1.0:
        t = _ONE_INSIDE
    return t if pair.a >= pair.b else -t


def seiffert_p_arctan_form(pair: PositivePair) -> float:
    """First Seiffert mean in its (a - b)/(4*atan(sqrt(a/b)) - pi) form.

    Uses the identity 4*atan(sqrt(a/b)) - pi == 4*atan((a-b)/(a+b+2*sqrt(ab)))
    so the subtraction of pi never cancels; within 3.6 ulp of a 60-digit
    reference for a/b - 1 from 2^-52 to 1e300 (worst measured 2.30 ulp,
    at a/b = 1.8376).  Raises for a == b, where the defining form is 0/0.
    """
    m, r = _reduce(pair)
    if r == 1.0:  # exactly when a == b
        raise DegeneratePairError("(a - b)/(4*atan(sqrt(a/b)) - pi) is 0/0 at a == b")
    w = (1.0 - r) / (1.0 + r + 2.0 * math.sqrt(r))
    return m * (1.0 - r) / (4.0 * math.atan(w))
