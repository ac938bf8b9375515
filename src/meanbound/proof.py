"""The sharp bounds' exact side: each mean of a SPECS triple over A, and each kernel,
as a quotient of rational polynomials in theta, sin(theta) and cos(theta), on which
each reduction is decided, and its two ends, the sharp constants: beta exactly, and
alpha rounded to binary64 once rational enclosures of pi and sqrt(2) decide it."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConvergenceError
from .kernels import H_INFO, HFunctionId
from .maclaurin import _PI_LOW
from .means import MeanKind


class _Poly(dict):
    """A polynomial in theta, s = sin(theta) and c = cos(theta): its nonzero rational
    coefficients by the exponents (i, j, k) of theta^i s^j c^k, j <= 1.  A product
    rewrites s^2 as 1 - c^2, so this normal form is unique and vanishes on an interval
    only when empty, theta being transcendental over Q(sin(theta), cos(theta))."""

    def __add__(self, other: _Poly) -> _Poly:
        sums = {mono: self.get(mono, 0) + other.get(mono, 0) for mono in self.keys() | other.keys()}
        return _Poly({mono: coef for mono, coef in sums.items() if coef})

    def __sub__(self, other: _Poly) -> _Poly:
        return self + _Poly({mono: -coef for mono, coef in other.items()})

    def __mul__(self, other: _Poly) -> _Poly:
        out: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), a in self.items():
            for (i2, j2, k2), b in other.items():
                theta, s, c = i + i2, j + j2, k + k2
                if s == 2:  # s^2 = 1 - c^2
                    s = 0
                    out[theta, 0, c + 2] = out.get((theta, 0, c + 2), 0) - a * b
                out[theta, s, c] = out.get((theta, s, c), 0) + a * b
        return _Poly({mono: coef for mono, coef in out.items() if coef})


_ONE, _THREE, _THETA, _S, _C = (_Poly({mono: n}) for mono, n in (
    ((0, 0, 0), 1), ((0, 0, 0), 3), ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)))
# each mean over A as (numerator, denominator) for t = (a - b)/(a + b) = sin(theta)
# or tan(theta): only the means of a SPECS triple under its substitution
_MEANS_IN_THETA = {
    "sin": {MeanKind.CONTRA_HARMONIC: (_ONE + _S * _S, _ONE), MeanKind.CENTROIDAL: (_THREE + _S * _S, _THREE),
            MeanKind.ARITHMETIC: (_ONE, _ONE), MeanKind.HARMONIC: (_C * _C, _ONE),
            MeanKind.GEOMETRIC: (_C, _ONE), MeanKind.SEIFFERT_P: (_S, _THETA)},
    "tan": {MeanKind.CONTRA_HARMONIC: (_ONE, _C * _C), MeanKind.ARITHMETIC: (_ONE, _ONE),
            MeanKind.HARMONIC: (_C * _C - _S * _S, _C * _C), MeanKind.ROOT_SQUARE: (_ONE, _C),
            MeanKind.SEIFFERT_T: (_S, _C * _THETA)},
}
_KERNELS_IN_THETA = {  # as kernels states them
    HFunctionId.H1: (_S - _THETA * _C * _C, _THETA * _S * _S),
    HFunctionId.H2: (_S - _THETA * _C, _THETA * (_ONE - _C)),
    HFunctionId.H3: (_THETA - _S * _C, _THETA * _S * _S),
    HFunctionId.H4: ((_THETA - _S) * _C, _THETA - _S * _C),
}
# (lower, upper) (theta, sin theta, cos theta) at each substitution's theta_right, all >= 0:
# pi is math.pi + _PI_LOW to half an ulp of _PI_LOW, sqrt(2)/2 is floor(2^64 sqrt 2)/2^65 to 2^-65
_PI = [Fraction(math.pi) + Fraction(_PI_LOW) + side * Fraction(math.ulp(_PI_LOW)) / 2 for side in (-1, 1)]
_HALF_SQRT2 = [Fraction(math.isqrt(2 << 128) + side, 2**65) for side in (0, 1)]
_RIGHT_ENDS = {"sin": [(pi / 2, 1, 0) for pi in _PI], "tan": [(pi / 4, h, h) for pi, h in zip(_PI, _HALF_SQRT2)]}


def _reduction_holds(spec) -> bool:
    """Whether the InequalitySpec's (target - lo)/(hi - lo) == p*h(theta) + q for
    every theta in (0, theta_right), decided exactly: every denominator is positive
    there, so it holds when the cross-multiplied difference is the zero polynomial
    (and hi - lo is not).  p and q are binary64, so Fraction holds them exactly."""
    means = _MEANS_IN_THETA[spec.theta_sub]
    if not {spec.target, spec.hi, spec.lo} <= means.keys():
        return False
    (n_t, d_t), (n_h, d_h), (n_l, d_l) = (means[kind] for kind in (spec.target, spec.hi, spec.lo))
    n_k, d_k = _KERNELS_IN_THETA[spec.kernel]
    p, q = (_Poly({(0, 0, 0): Fraction(value)}) for value in (spec.p, spec.q))  # a 0 vanishes in a product
    span = n_h * d_l - n_l * d_h  # (hi - lo)*d_h*d_l
    return bool(span) and not (n_t * d_l - n_l * d_t) * d_h * d_k - (p * n_k + q * d_k) * span * d_t


def _enclose(poly: _Poly, low, high) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds of poly on the box from low to high in (theta, s, c), all >= 0:
    each monomial grows along the box, so its coefficient's sign picks its corner."""
    value = lambda terms, ends: sum(coef * ends[0]**i * ends[1]**j * ends[2]**k for (i, j, k), coef in terms)
    pos, neg = ([term for term in poly.items() if (term[1] > 0) == up] for up in (True, False))
    return value(pos, low) + value(neg, high), value(pos, high) + value(neg, low)


def _exact_ends(spec) -> tuple[Fraction, float]:
    """(beta, alpha) of an InequalitySpec whose reduction holds: beta = p*h(0+) + q exactly,
    from H_INFO's limit_at_zero, and alpha = p*N/D + q at theta_right, rounded to binary64 on
    _RIGHT_ENDS' enclosures of N and D (D > 0 there).  p*N/D + q is monotone in N and in D,
    so its corners bound it; ConvergenceError unless all four round to one double."""
    p, q = Fraction(spec.p), Fraction(spec.q)
    beta = p * H_INFO[spec.kernel].limit_at_zero + q
    n_k, d_k = (_enclose(poly, *_RIGHT_ENDS[spec.theta_sub]) for poly in _KERNELS_IN_THETA[spec.kernel])
    alphas = {float(p * n / d + q) for n in n_k for d in d_k}
    if len(alphas) != 1:
        raise ConvergenceError(f"{spec.id}: alpha's enclosure spans {min(alphas)!r} to {max(alphas)!r}")
    return beta, alphas.pop()
