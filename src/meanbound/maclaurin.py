"""Float constants shared by kernels and means, in binary64 alone: the low
part of pi and the Maclaurin tables of the sin/cos quotients in h2 and h4.
``mean`` loads this module, and neither kernels nor fractions.
"""

from __future__ import annotations

import math
from collections.abc import Callable

_PI_LOW = 1.2246467991473532e-16  # pi - math.pi

# Maclaurin coefficients for the quotient forms of h2 and h4 below kernels'
# X_SWITCH, all by one rule:
#     sin x - x cos x  = sum_k (-1)^(k+1) 2k      x^(2k+1) / (2k+1)!
#     x (1 - cos x)    = sum_k (-1)^(k+1) (2k+1)  x^(2k+1) / (2k+1)!
#     x - sin x        = sum_k (-1)^(k+1)         x^(2k+1) / (2k+1)!
#     x - sin x cos x  = sum_k (-1)^(k+1) 2^(2k)  x^(2k+1) / (2k+1)!
# Each entry is an int over an int, which Python rounds correctly: the exact
# coefficient rounded once.  The common x^3 factor cancels in each quotient.
# Each table alternates in sign, and in w = x^2 <= 1/4 its term k + 1 over
# term k is at most 4w/((2k+2)(2k+3)) <= 1/20, since c(k+1)/c(k) <= 4 for
# all four rules: the terms fall from the first on, so the first omitted one
# bounds the truncation.  At x = X_SWITCH, where that term is largest and
# each sum smallest, it is below 2^-60 of its table's sum (a test checks this
# on the exact coefficients), so the omitted terms move no bit.  8 terms (9
# of _H4_DEN) would meet that bound at 1/2; a switch at 1 (the direct forms
# lose up to 17 ulp on [1/2, 1)) would need 12.  kernels' _quotient_sums
# sums a pair of tables by straight-line Horner, innermost term first; means
# takes the P and T excess series as prefixes of _H4_NUM and _H2_NUM from
# here, not from kernels, so evaluating a mean compiles no kernel.
_QUOT_TERMS = 10


def _maclaurin(c: Callable[[int], int]) -> tuple[float, ...]:
    return tuple((-1) ** (k + 1) * c(k) / math.factorial(2 * k + 1) for k in range(1, _QUOT_TERMS + 1))


_H2_NUM = _maclaurin(lambda k: 2 * k)
_H2_DEN = _maclaurin(lambda k: 2 * k + 1)
_H4_NUM = _maclaurin(lambda k: 1)
_H4_DEN = _maclaurin(lambda k: 4**k)
