"""Exact Bernoulli numbers with construction-time consistency checks.

The table is built from the tangent numbers T_1 .. T_n by Brent and
Harvey's in-place integer recurrence ("Fast computation of Bernoulli,
Tangent and Secant numbers", 2011); B_2k = (-1)^(k-1) 2k T_k /
(4^k (4^k - 1)) is then one exact Fraction per entry.  Construction
validates the two leading values, the strict sign alternation
(-1)^(n-1) B_2n > 0, and the magnitude identity

    |B_2n| = 2 (2n)! zeta(2n) / (2 pi)^(2n)

to 1e-12 relative at every n, with zeta(2n) summed directly over
k <= 100 plus an Euler-Maclaurin tail (error bound at _zeta_even).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

__all__ = ["BernoulliTable", "bernoulli_table"]

MAX_INDEX = 64
_ZETA_TOL = 1e-12


def _bernoulli_exact(n_terms: int) -> list[Fraction]:
    """B_2, B_4, .., B_{2 n_terms} as exact Fractions, via tangent numbers."""
    # t[k] starts at (k-1)!; after the sweeps k = 2..n_terms it holds T_k
    t = [0] + [math.factorial(k - 1) for k in range(1, n_terms + 1)]
    for k in range(2, n_terms + 1):
        for j in range(k, n_terms + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n_terms + 1)]


def _zeta_even(s: int, cutoff: int = 100) -> float:
    """zeta(s) for even s >= 2: direct partial sum plus an Euler-Maclaurin
    tail.  The first omitted tail term, s(s+1)(s+2)(s+3)(s+4) n^-(s+5)/30240,
    peaks at s = 2, where n = 100 makes it 2.4e-16: under 1e-15 for s <= 64."""
    acc = 0.0
    for k in range(cutoff, 1, -1):  # small terms first
        acc += float(k) ** -s
    n = float(cutoff)
    # the partial sum already holds the k = cutoff term in full, hence -1/2
    tail = (
        n ** (1 - s) / (s - 1)
        - 0.5 * n**-s
        + s * n ** -(s + 1) / 12.0
        - s * (s + 1) * (s + 2) * n ** -(s + 3) / 720.0
    )
    return 1.0 + acc + tail


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
    """Build and validate the table of B_2 .. B_{n_max}.

    n_max must be even and within [2, 64].  A failed consistency check
    raises ArithmeticError (it would mean the recurrence implementation
    is broken, not that the input is bad).
    """
    if not isinstance(n_max, int) or n_max % 2 != 0 or not 2 <= n_max <= MAX_INDEX:
        raise DomainError(f"n_max must be an even integer in [2, {MAX_INDEX}], got {n_max!r}")

    values = tuple(_bernoulli_exact(n_max // 2))

    if values[0] != Fraction(1, 6):
        raise ArithmeticError(f"B_2 must be 1/6, recurrence produced {values[0]}")
    if n_max >= 4 and values[1] != Fraction(-1, 30):
        raise ArithmeticError(f"B_4 must be -1/30, recurrence produced {values[1]}")
    two_pi = 2.0 * math.pi
    for n, v in enumerate(values, start=1):
        if (v if n % 2 == 1 else -v) <= 0:
            raise ArithmeticError(f"sign pattern (-1)^(n-1) B_2n > 0 fails at n={n}")
        av = float(abs(v))
        ref = 2.0 * math.factorial(2 * n) * _zeta_even(2 * n) / two_pi ** (2 * n)
        if abs(av - ref) > _ZETA_TOL * ref:
            raise ArithmeticError(f"zeta cross-check fails at n={n}: |B_2n|={av!r}, reference={ref!r}")

    return BernoulliTable(n_max, values)
