"""Exact Bernoulli numbers.

The table is built from the tangent numbers T_1 .. T_n by Brent and
Harvey's in-place integer recurrence ("Fast computation of Bernoulli,
Tangent and Secant numbers", 2011); B_2k = (-1)^(k-1) 2k T_k /
(4^k (4^k - 1)) is then one exact Fraction per entry.  The table depends
on n_max alone, and the tests check all 32 tables against an independent
recurrence (Akiyama-Tanigawa), so construction checks nothing further.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

__all__ = ["BernoulliTable", "bernoulli_table"]

MAX_INDEX = 64


def _bernoulli_exact(n_terms: int) -> list[Fraction]:
    """B_2, B_4, .., B_{2 n_terms} as exact Fractions, via tangent numbers."""
    # t[k] starts at (k-1)!; after the sweeps k = 2..n_terms it holds T_k
    t = [0] + [math.factorial(k - 1) for k in range(1, n_terms + 1)]
    for k in range(2, n_terms + 1):
        for j in range(k, n_terms + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n_terms + 1)]


class BernoulliTable(NamedTuple):
    """B_2, B_4, ..., B_max_index as exact rationals."""

    max_index: int
    values: tuple[Fraction, ...]

    @property
    def n_terms(self) -> int:
        return len(self.values)

    def b2n(self, n: int) -> Fraction:
        """B_{2n} for an int 1 <= n <= max_index/2."""
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= self.n_terms:
            raise DomainError(f"table holds B_2 .. B_{self.max_index}, got n={n!r}")
        return self.values[n - 1]

    def abs_b2n(self, n: int) -> Fraction:
        """|B_{2n}| as an exact rational."""
        return abs(self.b2n(n))

    def abs_b2n_float(self, n: int) -> float:
        """|B_{2n}| rounded once to binary64."""
        return float(self.abs_b2n(n))


def bernoulli_table(n_max: int) -> BernoulliTable:
    """The table of B_2 .. B_{n_max}; n_max must be even and within [2, 64]."""
    if not isinstance(n_max, int) or n_max % 2 != 0 or not 2 <= n_max <= MAX_INDEX:
        raise DomainError(f"n_max must be an even integer in [2, {MAX_INDEX}], got {n_max!r}")
    return BernoulliTable(n_max, tuple(_bernoulli_exact(n_max // 2)))
