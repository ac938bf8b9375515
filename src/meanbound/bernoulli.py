"""Exact Bernoulli numbers with construction-time consistency checks.

The table is generated by the defining recurrence of x/(e^x - 1),
sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, carried out in exact rational
arithmetic and rounded to binary64 once at the end.  Construction
validates the two leading values, the strict sign alternation
(-1)^(n-1) B_2n > 0, and the magnitude identity

    |B_2n| = 2 (2n)! zeta(2n) / (2 pi)^(2n)

with zeta(2n) summed directly (Euler-Maclaurin tail correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = ["BernoulliTable", "bernoulli_table"]

MAX_INDEX = 64
_ZETA_TOL = 1e-12


def _bernoulli_exact(m_max: int) -> list[Fraction]:
    """B_0 .. B_m_max as exact Fractions (first convention, B_1 = -1/2)."""
    values = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for j in range(m):
            if values[j]:
                acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values


def _zeta_even(s: int, cutoff: int = 1000) -> float:
    """zeta(s) for even s >= 2: direct partial sum plus an Euler-Maclaurin
    tail, accurate to well under 1e-15 relative for every s used here."""
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


@dataclass(frozen=True)
class BernoulliTable:
    """B_2, B_4, ..., B_max_index as exact rationals."""

    max_index: int
    values: tuple[Fraction, ...]

    @property
    def n_terms(self) -> int:
        return len(self.values)

    def b2n(self, n: int) -> Fraction:
        """B_{2n} for 1 <= n <= max_index/2."""
        if not 1 <= n <= self.n_terms:
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

    raw = _bernoulli_exact(n_max)
    values = tuple(raw[2 * n] for n in range(1, n_max // 2 + 1))

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
