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
from fractions import Fraction
from typing import NamedTuple

from .errors import DegeneratePairError, DomainError
from .kernels import _H2_NUM, _H4_NUM, _poly

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


# Below the cutoff P and T are A*(1 + u^2*e), e their excess (below): the more
# accurate form there (the direct quotients stay within a few ulp too, against
# mpmath).  At r == 1 both the quotients and the excesses are 0/0; P = T = A.
_SERIES_CUTOFF = 1e-4


def _contra_harmonic(r: float) -> float:
    return (1.0 + r * r) / (1.0 + r)


def _centroidal(r: float) -> float:
    return 2.0 * ((1.0 + r * r) + r) / (3.0 * (1.0 + r))


def _arithmetic(r: float) -> float:
    return 0.5 * (1.0 + r)


def _geometric(r: float) -> float:
    return math.sqrt(r)


def _harmonic(r: float) -> float:
    return 2.0 * r / (1.0 + r)


def _root_square(r: float) -> float:
    return math.sqrt(0.5 * (1.0 + r * r))


def _seiffert_p(r: float) -> float:
    s = 1.0 + r
    u = (1.0 - r) / s
    if u < _SERIES_CUTOFF:
        return 0.5 * s * (1.0 + u * u * _excess_p(r)) if u else 1.0
    # asin((1-r)/(1+r)) == atan2(1 - r, 2*sqrt(r)); asin amplifies the
    # quotient's rounding by 1/sqrt(1-u^2) as u -> 1, atan2 does not, and
    # r == 0 gives pi/2
    return (1.0 - r) / (2.0 * math.atan2(1.0 - r, 2.0 * math.sqrt(r)))


def _seiffert_t(r: float) -> float:
    s = 1.0 + r
    u = (1.0 - r) / s
    if u < _SERIES_CUTOFF:
        return 0.5 * s * (1.0 + u * u * _excess_t(r)) if u else 1.0
    return (1.0 - r) / (2.0 * math.atan(u))


# kind -> the function r -> M(1, r), for r in [0, 1]
_EVALUATORS = {
    MeanKind.CONTRA_HARMONIC: _contra_harmonic,
    MeanKind.CENTROIDAL: _centroidal,
    MeanKind.ARITHMETIC: _arithmetic,
    MeanKind.GEOMETRIC: _geometric,
    MeanKind.HARMONIC: _harmonic,
    MeanKind.ROOT_SQUARE: _root_square,
    MeanKind.SEIFFERT_P: _seiffert_p,
    MeanKind.SEIFFERT_T: _seiffert_t,
}


# Excesses: with t = (1 - r)/(1 + r), each mean is M(1, r) == A*(1 + t^2*e),
# A = (1 + r)/2; e is 1, 1/3, 0 or -1 for C, Cbar, A and H and, for G, S, P
# and T, a function of r in [0, 1) free of cancellation as r -> 1.  P and T
# are (t - theta)/(theta*t^2), theta = asin t or atan t: below the cutoff, via
# series in theta^2, the first 9 and 8 terms (ten would move last bits) of
# kernels' (theta - sin theta)/theta^3 and (sin theta - theta cos theta)/theta^3;
# above it, from theta = pi/2 - 2*atan(sqrt r) or pi/4 - atan r.
_SINE_GAP = _H4_NUM[:9]
_TANGENT_GAP = _H2_NUM[:8]
_EXCESS_CUTOFF = 0.9
_HALF_PI, _ONE_MINUS_HALF_PI = 1.5707963267948966, -0.5707963267948967  # correctly rounded
_QUARTER_PI, _ONE_MINUS_QUARTER_PI = 0.7853981633974483, 0.2146018366025517


def _excess_g(r: float) -> float:
    g = 1.0 + math.sqrt(r)
    return -(1.0 + r) / (g * g)


def _excess_s(r: float) -> float:
    return (1.0 + r) / (1.0 + r + math.sqrt(2.0 * (1.0 + r * r)))


def _excess_p(r: float) -> float:
    s = 1.0 + r
    t = (1.0 - r) / s
    if t < _EXCESS_CUTOFF:
        theta = math.atan2(1.0 - r, 2.0 * math.sqrt(r))  # asin t, as in _seiffert_p
        q = theta / t
        return -q * q * _poly(_SINE_GAP, theta * theta)
    v = math.atan(math.sqrt(r))
    return (_ONE_MINUS_HALF_PI + 2.0 * (v - r / s)) / ((_HALF_PI - 2.0 * v) * t * t)


def _excess_t(r: float) -> float:
    s = 1.0 + r
    t = (1.0 - r) / s
    if t < _EXCESS_CUTOFF:
        theta = math.atan(t)
        q = theta / t
        return q * q * math.sqrt(1.0 + t * t) * _poly(_TANGENT_GAP, theta * theta)
    v = math.atan(r)
    return (_ONE_MINUS_QUARTER_PI + (v - 2.0 * r / s)) / ((_QUARTER_PI - v) * t * t)


# Each mean's two end values, exact on 50-digit pi and sqrt(2): its excess at t = 0
# (a == b) and M(1, 0) (a/b -> inf).  Over a triple, (target - lo)/(hi - lo) of a
# column is its sharp beta or alpha.  C, Cbar, A and H keep their t = 0 excess.
_PI = Fraction("3.1415926535897932384626433832795028841971693993751")
_SQRT2 = Fraction("1.4142135623730950488016887242096980785696718753769")
_ENDS = {
    MeanKind.CONTRA_HARMONIC: (Fraction(1), Fraction(1)), MeanKind.CENTROIDAL: (Fraction(1, 3), Fraction(2, 3)),
    MeanKind.ARITHMETIC: (Fraction(0), Fraction(1, 2)), MeanKind.GEOMETRIC: (Fraction(-1, 2), Fraction(0)),
    MeanKind.HARMONIC: (Fraction(-1), Fraction(0)), MeanKind.ROOT_SQUARE: (Fraction(1, 2), _SQRT2 / 2),
    MeanKind.SEIFFERT_P: (Fraction(-1, 6), 1 / _PI), MeanKind.SEIFFERT_T: (Fraction(1, 3), 2 / _PI),
}
_EXCESSES = {kind: float(e_0) for kind, (e_0, _) in _ENDS.items()} | {
    MeanKind.GEOMETRIC: _excess_g, MeanKind.ROOT_SQUARE: _excess_s,
    MeanKind.SEIFFERT_P: _excess_p, MeanKind.SEIFFERT_T: _excess_t,
}


def _not_a_pair(pair: object) -> DomainError:
    return DomainError(f"pair must be a PositivePair, got {pair!r}")


def _reduce(pair: PositivePair) -> tuple[float, float]:
    """(m, r) = (max(a, b), min(a, b)/max(a, b)), so M(a, b) == m*M(1, r)."""
    try:
        a, b = pair.a, pair.b
    except AttributeError:
        raise _not_a_pair(pair) from None
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
    magnitudes cannot overflow.  The result lies in [min(a, b), max(a, b)];
    the Seiffert means take their continuous-extension value a at a == b.
    Against a 60-digit reference, for r = min(a, b)/max(a, b) from 1 - 2^-52
    down to 2^-1073, and for r that underflows to 0, the error is at most
    3.6 ulp for C, 2.8 for Cbar, 2.0 for A, 3.5 for G, 4.2 for H, 2.4 for S
    and 3.2 for P and T, twice the worst measured, rounded down.
    """
    m, r = _reduce(pair)
    try:
        f = _EVALUATORS[kind]
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
    reference for a/b - 1 from 2^-52 to 1e300 (twice the worst measured,
    1.80 ulp).  Raises for a == b, where the defining form is 0/0.
    """
    m, r = _reduce(pair)
    if r == 1.0:  # exactly when a == b
        raise DegeneratePairError("(a - b)/(4*atan(sqrt(a/b)) - pi) is 0/0 at a == b")
    w = (1.0 - r) / (1.0 + r + 2.0 * math.sqrt(r))
    return m * (1.0 - r) / (4.0 * math.atan(w))
