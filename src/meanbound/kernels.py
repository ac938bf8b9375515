"""Trigonometric kernel functions and reciprocal-sine series.

Four kernel functions drive the sharp-bounds engine:

    h1(x) = (sin x / x - cos^2 x) / sin^2 x        on (0, pi),   decreasing, 5/6 -> -inf
    h2(x) = (sin x - x cos x) / (x (1 - cos x))    on (0, 2 pi), decreasing, 2/3 -> -inf
    h3(x) = (x - sin x cos x) / (x sin^2 x)        on (0, pi),   increasing, 2/3 -> +inf
    h4(x) = (x - sin x) cos x / (x - sin x cos x)  on (0, pi),   decreasing, 1/4 -> -1

Direct trigonometric evaluation is used for x >= 1/2.  Below that the
direct numerators cancel, so h1 and h3 switch to power series whose
coefficients are differences of those of the three base series below,

    h1(x) = 1 + csc(x)/x - csc^2(x)
    h3(x) =     csc^2(x) - cot(x)/x       (the 1/x^2 poles cancel)

while h2 and h4 are evaluated as quotients of the Maclaurin expansions of
their numerators and denominators.

The module also provides adaptive evaluators for the three base series,
the only Bernoulli-number formulas stated here,

    1/sin x   = 1/x   + sum_n 2 (2^(2n-1) - 1) |B_2n| / (2n)! * x^(2n-1)
    cot x     = 1/x   - sum_n 2^(2n)           |B_2n| / (2n)! * x^(2n-1)
    1/sin^2 x = 1/x^2 + sum_n 2^(2n) (2n-1)    |B_2n| / (2n)! * x^(2n-2)

on 0 < |x| < pi.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .bernoulli import MAX_INDEX, BernoulliTable, bernoulli_table
from .errors import DomainError

__all__ = [
    "HFunctionId",
    "HFunctionInfo",
    "H_INFO",
    "SeriesEvaluation",
    "X_SWITCH",
    "csc_coefficients",
    "cot_coefficients",
    "csc_sq_coefficients",
    "csc_series",
    "cot_series",
    "csc_sq_series",
    "default_table",
    "h1_coefficients",
    "h3_coefficients",
    "h_eval",
    "h_limit",
]

#: series/direct switch point for the kernel functions
X_SWITCH = 0.5

# Adaptive truncation: stop once the next term drops below _REL_STOP of the
# partial sum, never using more than the table's 32 coefficients.  The
# omitted tail is single-signed, so it exceeds its first term; how far is
# bounded in _tail_bound.
_REL_STOP = 1e-18
_PI_LOW = 1.2246467991473532e-16  # pi - math.pi


class SeriesEvaluation(NamedTuple):
    """A truncated series value plus truncation diagnostics.

    ``truncation_bound`` bounds the sum of the terms not added, to within
    the rounding of its own few float operations.  The value's own rounding
    comes on top: each series states it, in ulp, at twice the worst measured
    against a 60-digit reference.
    """

    value: float
    terms_used: int
    truncation_bound: float


@lru_cache(maxsize=None)
def default_table() -> BernoulliTable:
    """The shared table of B_2 .. B_64, built and validated on first use."""
    return bernoulli_table(MAX_INDEX)


# ---------------------------------------------------------------------------
# exact series coefficients


def _scaled_bernoulli(order: int) -> list[tuple[int, Fraction]]:
    """(n, |B_2n| / (2n)!) for n = 1..order, from default_table(): the factor
    every series shares."""
    table = default_table()
    n_terms = table.n_terms
    if isinstance(order, bool) or not isinstance(order, int) or not 1 <= order <= n_terms:
        raise DomainError(f"order must be an integer in [1, {n_terms}], got {order!r}")
    return [(n, table.abs_b2n(n) / math.factorial(2 * n)) for n in range(1, order + 1)]


def csc_coefficients(order: int) -> list[tuple[int, Fraction]]:
    """(power, coefficient) of x^(2n-1), n = 1..order, in 1/sin x - 1/x."""
    return [(2 * n - 1, 2 * (2 ** (2 * n - 1) - 1) * b) for n, b in _scaled_bernoulli(order)]


def cot_coefficients(order: int) -> list[tuple[int, Fraction]]:
    """(power, coefficient) of x^(2n-1) in cot x - 1/x; all negative."""
    return [(2 * n - 1, -(2 ** (2 * n)) * b) for n, b in _scaled_bernoulli(order)]


def csc_sq_coefficients(order: int) -> list[tuple[int, Fraction]]:
    """(power, coefficient) of x^(2n-2) in 1/sin^2 x - 1/x^2."""
    return [(2 * n - 2, 2 ** (2 * n) * (2 * n - 1) * b) for n, b in _scaled_bernoulli(order)]


def h1_coefficients(order: int) -> list[tuple[int, Fraction]]:
    """(power, coefficient) of x^(2n-2) in h1 = 1 + csc(x)/x - csc^2(x).

    The constant term, which takes the standalone 1, is 5/6; every later
    coefficient is negative.
    """
    out = [
        (power, a - b)
        for (_, a), (power, b) in zip(csc_coefficients(order), csc_sq_coefficients(order))
    ]
    out[0] = (0, out[0][1] + 1)
    return out


def h3_coefficients(order: int) -> list[tuple[int, Fraction]]:
    """(power, coefficient) of x^(2n-2) in h3 = csc^2(x) - cot(x)/x; all positive."""
    return [
        (power, a - b)
        for (power, a), (_, b) in zip(csc_sq_coefficients(order), cot_coefficients(order))
    ]


# The five series, by the names the CLI's ``series --fn`` accepts.
_SERIES_COEFFICIENTS = {
    "csc": csc_coefficients,
    "cot": cot_coefficients,
    "cscsq": csc_sq_coefficients,
    "h1": h1_coefficients,
    "h3": h3_coefficients,
}


# The table key costs a 26-33 us hash of 32 Fractions per series call, about 70% of a
# point query.  It stays while perfbench stores every repetition's latencies: a faster
# query fits more repetitions into a run, which lifts point_sweep's peak RSS past its
# bound (ROADMAP items 1a and 2).
@lru_cache(maxsize=None)
def _float_coefficients(table: BernoulliTable) -> Mapping[str, tuple[float, ...]]:
    """Binary64 coefficients of the five series, as many as the table holds."""
    return MappingProxyType({
        name: tuple(float(c) for _, c in fn(table.n_terms))
        for name, fn in _SERIES_COEFFICIENTS.items()
    })


# ---------------------------------------------------------------------------
# adaptive series evaluation


def _series_sum(lead: float, coeffs: tuple[float, ...], x_first: float, x_step: float) -> SeriesEvaluation:
    acc = lead
    xp = x_first
    used = 0
    bound = 0.0
    for c in coeffs:
        term = c * xp
        bound = abs(term)
        if bound < _REL_STOP * abs(acc):
            break
        acc += term
        xp *= x_step
        used += 1
    return SeriesEvaluation(acc, used, bound)


def _tail_bound(name: str, x: float, out: SeriesEvaluation, n_coeffs: int) -> float:
    """A bound on the sum of the terms of series ``name`` after the first
    ``out.terms_used``, from the magnitude ``out.truncation_bound`` of the
    first term not added or, at the cap, of the last term added.

    With |B_2n|/(2n)! = 2*zeta(2n)/(2*pi)^(2n) and y = (x/pi)^2, term n has
    magnitude 2*eta(2n)*y^n/|x| for csc, 2*zeta(2n)*y^n/|x| for cot and
    2*(2n - 1)*zeta(2n)*y^n/x^2 for cscsq, eta(s) = (1 - 2^(1-s))*zeta(s).
    eta rises and zeta falls towards 1, and eta(2n) > 1 - 4^-n, so from
    term i on, term i + k over term i is at most y^k/(1 - 4^-i) for csc and
    cot, and y^k*(2i + 2k - 1)/(2i - 1) for cscsq.  Summed over k >= 0, the
    tail from term i is at most |term i| times 1/((1 - 4^-i)*(1 - y)), or
    times 1/(1 - y) + 2*y/((2i - 1)*(1 - y)^2) for cscsq.  At the cap, term
    i = n_coeffs + 1 is bounded by the same ratio from term i - 1.
    """
    ax = abs(x)
    y = (ax / math.pi) ** 2
    # 1 - y as (pi - |x|)(pi + |x|)/pi^2, which does not cancel as |x| -> pi:
    # math.pi - |x| is exact there
    gap = (math.pi - ax + _PI_LOW) * (math.pi + ax) / (math.pi * math.pi)
    i = out.terms_used + 1
    term = out.truncation_bound
    if name == "cscsq":
        if i > n_coeffs:
            term *= y * (2 * i - 1) / (2 * i - 3)
        return term * (1.0 + 2.0 * y / ((2 * i - 1) * gap)) / gap
    if i > n_coeffs:  # i = 33, where the ratio's 1/(1 - 4^-(i - 1)) rounds to 1.0
        term *= y
    return term / ((1.0 - 0.25**i) * gap)


def _reciprocal_sine_series(name: str, x: float, power: int) -> SeriesEvaluation:
    """Leading term 1/x**power plus the adaptive tail of series ``name``, for
    a real x with 0 < |x| < pi whose leading term is finite."""
    lead = math.nan
    try:
        if -math.pi < x < math.pi:
            lead = 1.0 / (x if power == 1 else x * x)
    except (TypeError, ZeroDivisionError):  # a str or complex x; x == 0, or x*x underflows
        pass
    if not math.isfinite(lead):
        raise DomainError(
            f"series argument must be a real x, 0 < |x| < pi, with 1/x^{power} finite, got {x!r}"
        )
    coeffs = _float_coefficients(default_table())[name]
    out = _series_sum(lead, coeffs, x if power == 1 else 1.0, x * x)
    return out._replace(truncation_bound=_tail_bound(name, x, out, len(coeffs)))


def csc_series(x: float) -> SeriesEvaluation:
    """1/sin x via its series, truncated adaptively: within truncation_bound
    plus 9 ulp for |x| < pi/2 and plus 42 ulp beyond."""
    return _reciprocal_sine_series("csc", x, 1)


def cot_series(x: float) -> SeriesEvaluation:
    """cot x via its series, truncated adaptively: within truncation_bound
    plus 7 ulp of max(1, |cot x|) for |x| < pi/2 and plus 42 ulp beyond."""
    return _reciprocal_sine_series("cot", x, 1)


def csc_sq_series(x: float) -> SeriesEvaluation:
    """1/sin^2 x via its series; equals the negated derivative of cot x.  It
    is within truncation_bound plus 11 ulp for |x| < pi/2 and plus 48 beyond."""
    return _reciprocal_sine_series("cscsq", x, 2)


# ---------------------------------------------------------------------------
# kernel functions


class HFunctionId(enum.Enum):
    H1 = "h1"
    H2 = "h2"
    H3 = "h3"
    H4 = "h4"

    __hash__ = object.__hash__  # an identity hash, as means.MeanKind's, for C-speed lookups


class HFunctionInfo(NamedTuple):
    """Domain, monotonicity direction, and endpoint limits of one kernel."""

    domain_right: float
    increasing: bool
    limit_at_zero: Fraction
    limit_at_right: float


H_INFO: dict[HFunctionId, HFunctionInfo] = {
    HFunctionId.H1: HFunctionInfo(math.pi, False, Fraction(5, 6), -math.inf),
    HFunctionId.H2: HFunctionInfo(math.tau, False, Fraction(2, 3), -math.inf),
    HFunctionId.H3: HFunctionInfo(math.pi, True, Fraction(2, 3), math.inf),
    HFunctionId.H4: HFunctionInfo(math.pi, False, Fraction(1, 4), -1.0),
}


def _h1_direct(x: float) -> float:
    s = math.sin(x)
    c = math.cos(x)
    return (s / x - c * c) / (s * s)


def _h2_direct(x: float) -> float:
    # 1 - cos x as 2 sin^2(x/2), which does not cancel near 2 pi
    s = math.sin(x)
    c = math.cos(x)
    h = math.sin(0.5 * x)
    return (s - x * c) / (x * (2.0 * h * h))


def _h3_direct(x: float) -> float:
    s = math.sin(x)
    c = math.cos(x)
    return (x - s * c) / (x * s * s)


def _h4_direct(x: float) -> float:
    s = math.sin(x)
    c = math.cos(x)
    return (x - s) * c / (x - s * c)


# Maclaurin coefficients (exact, converted once) for the quotient forms of
# h2 and h4 below X_SWITCH, all by one rule:
#     sin x - x cos x  = sum_k (-1)^(k+1) 2k      x^(2k+1) / (2k+1)!
#     x (1 - cos x)    = sum_k (-1)^(k+1) (2k+1)  x^(2k+1) / (2k+1)!
#     x - sin x        = sum_k (-1)^(k+1)         x^(2k+1) / (2k+1)!
#     x - sin x cos x  = sum_k (-1)^(k+1) 2^(2k)  x^(2k+1) / (2k+1)!
# The common x^3 factor cancels in each quotient.  Each table alternates in
# sign, and in w = x^2 <= 1/4 its term k + 1 over term k is at most
# 4w/((2k+2)(2k+3)) <= 1/20, since c(k+1)/c(k) <= 4 for all four rules: the
# terms fall from the first on, so the first omitted one bounds the
# truncation.  At x = X_SWITCH, where that term is largest and each sum
# smallest, it is below 2^-60 of its table's sum (a test checks this on the
# exact coefficients), so the omitted terms move no bit.  8 terms (9 of
# _H4_DEN) would meet that bound at 1/2; a switch at 1 (the direct forms
# lose up to 17 ulp on [1/2, 1)) would need 12.  _quotient_sums sums
# a pair of tables by straight-line Horner, innermost term first; means
# takes the P and T excess series as prefixes of _H4_NUM and _H2_NUM.
_QUOT_TERMS = 10


def _maclaurin(c: Callable[[int], int]) -> tuple[float, ...]:
    return tuple(float(Fraction((-1) ** (k + 1) * c(k), math.factorial(2 * k + 1)))
                 for k in range(1, _QUOT_TERMS + 1))


_H2_NUM = _maclaurin(lambda k: 2 * k)
_H2_DEN = _maclaurin(lambda k: 2 * k + 1)
_H4_NUM = _maclaurin(lambda k: 1)
_H4_DEN = _maclaurin(lambda k: 4**k)


def _h1_series(x: float) -> float:
    return _series_sum(0.0, _float_coefficients(default_table())["h1"], 1.0, x * x).value


def _quotient_sums(num: tuple[float, ...], den: tuple[float, ...], x: float) -> tuple[float, float]:
    """The sums in w = x^2 of a numerator and a denominator table of _QUOT_TERMS entries."""
    w = x * x
    n0, n1, n2, n3, n4, n5, n6, n7, n8, n9 = num
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = den
    return (n0 + w * (n1 + w * (n2 + w * (n3 + w * (n4 + w * (n5 + w * (n6 + w * (n7 + w * (n8 + w * n9)))))))),
            d0 + w * (d1 + w * (d2 + w * (d3 + w * (d4 + w * (d5 + w * (d6 + w * (d7 + w * (d8 + w * d9)))))))))


def _h2_series(x: float) -> float:
    num, den = _quotient_sums(_H2_NUM, _H2_DEN, x)
    return num / den


def _h3_series(x: float) -> float:
    return _series_sum(0.0, _float_coefficients(default_table())["h3"], 1.0, x * x).value


def _h4_series(x: float) -> float:
    num, den = _quotient_sums(_H4_NUM, _H4_DEN, x)
    return math.cos(x) * num / den


# each kernel's (direct, series) forms, for x >= X_SWITCH and below it
_FORMS = {
    HFunctionId.H1: (_h1_direct, _h1_series),
    HFunctionId.H2: (_h2_direct, _h2_series),
    HFunctionId.H3: (_h3_direct, _h3_series),
    HFunctionId.H4: (_h4_direct, _h4_series),
}


def _info(fn_id: object) -> HFunctionInfo:
    """H_INFO[fn_id], or DomainError for an fn_id that is not an HFunctionId."""
    try:
        return H_INFO[fn_id]
    except (KeyError, TypeError):  # TypeError: an unhashable fn_id
        ids = ", ".join(str(h) for h in HFunctionId)
        raise DomainError(f"fn_id must be one of {ids}, got {fn_id!r}") from None


def h_eval(fn_id: HFunctionId, x: float) -> float:
    """Evaluate a kernel function strictly inside its domain.

    Direct trigonometric formulas for x >= 1/2, series forms below.  Against
    a 50-digit reference the error is at most, in ulp of h (of max(1, |h|)
    within 1/4 of a root of h, h1's at 2.2154 and h2's at 4.4934):

              series (0, 1/2)   direct [1/2, 1)   rest of the domain
        h1    5                 12                7
        h2    3                 16                8
        h3    5                 12                6
        h4    4                 32                5

    each about twice the worst measured on a grid of the region.
    """
    info = _info(fn_id)
    try:
        inside = 0.0 < x < info.domain_right
    except TypeError:  # a str or complex x
        inside = False
    if not inside:
        raise DomainError(
            f"{fn_id.value} is defined on the open interval (0, {info.domain_right!r}), got {x!r}"
        )
    direct, series = _FORMS[fn_id]
    try:
        return direct(x) if x >= X_SWITCH else series(x)
    except TypeError:  # a real x the float arithmetic refuses, such as a Decimal
        raise DomainError(f"{fn_id.value} needs a float argument, got {x!r}") from None


def h_limit(fn_id: HFunctionId, endpoint: str) -> float:
    """Exact endpoint limit: 'left' is x -> 0+, 'right' the upper domain end."""
    info = _info(fn_id)
    if endpoint == "left":
        return float(info.limit_at_zero)
    if endpoint == "right":
        return float(info.limit_at_right)
    raise DomainError(f"endpoint must be 'left' or 'right', got {endpoint!r}")
