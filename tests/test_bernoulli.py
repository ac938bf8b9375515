import math
from fractions import Fraction

import pytest

import meanbound.bernoulli as bernoulli
from meanbound import DomainError, bernoulli_table


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent oracle: B_0..B_n by the Akiyama-Tanigawa triangle.

    Different algorithm from the package's tangent-number recurrence;
    produces the B_1 = +1/2 convention, which agrees at even indices.
    """
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


class TestExactValues:
    def test_leading_values(self):
        table = bernoulli_table(6)
        assert table.values == (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42))

    def test_b20_known_constant(self):
        assert bernoulli_table(20).b2n(10) == Fraction(-174611, 330)

    def test_matches_akiyama_tanigawa_to_64(self):
        oracle = akiyama_tanigawa(64)
        for n_max in range(2, 65, 2):
            assert bernoulli_table(n_max).values == tuple(oracle[2:n_max + 1:2])

    def test_abs_fields_consistent(self):
        table = bernoulli_table(32)
        for n in range(1, table.n_terms + 1):
            assert table.abs_b2n(n) == abs(table.b2n(n))
            assert table.abs_b2n_float(n) == float(table.abs_b2n(n))


class TestInvariants:
    def test_sign_alternation(self):
        table = bernoulli_table(64)
        for n in range(1, 33):
            assert (-1) ** (n - 1) * table.b2n(n) > 0
            assert (-1) ** (n - 1) * table.b2n(n) == table.abs_b2n(n)

    def test_zeta_magnitude_closed_forms(self):
        # zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945
        table = bernoulli_table(6)
        for n, zeta in ((1, math.pi**2 / 6), (2, math.pi**4 / 90), (3, math.pi**6 / 945)):
            ref = 2.0 * math.factorial(2 * n) * zeta / (2.0 * math.pi) ** (2 * n)
            assert abs(table.abs_b2n_float(n) - ref) <= 1e-13 * ref

    def test_largest_table_builds_and_validates(self):
        table = bernoulli_table(64)
        assert table.max_index == 64
        assert table.n_terms == 32
        assert table.abs_b2n_float(32) == pytest.approx(2.0938005911346378e38, rel=1e-12)


def _flip_sign(v: Fraction) -> Fraction:
    return -v


def _scale_up(v: Fraction) -> Fraction:
    return v * (1 + Fraction(1, 10**10))


class TestConstructionChecks:
    @pytest.mark.parametrize("corrupt", [_flip_sign, _scale_up])
    @pytest.mark.parametrize("n", [1, 16, 32])
    def test_corrupted_entry_is_refused(self, monkeypatch, n, corrupt):
        exact = bernoulli._bernoulli_exact

        def broken(n_terms):
            values = exact(n_terms)
            values[n - 1] = corrupt(values[n - 1])
            return values

        monkeypatch.setattr(bernoulli, "_bernoulli_exact", broken)
        with pytest.raises(ArithmeticError):
            bernoulli_table(64)

    def test_wrong_b4_is_refused_by_its_own_check(self, monkeypatch):
        # -1/31 has B_4's sign and 1/7 has B_2's, so only the check of that
        # entry names the fault
        exact = bernoulli._bernoulli_exact
        cases = ((1, Fraction(-1, 31), "B_4 must be -1/30"), (0, Fraction(1, 7), "B_2 must be 1/6"))
        for index, wrong, message in cases:
            def broken(n_terms, index=index, wrong=wrong):
                values = exact(n_terms)
                values[index] = wrong
                return values

            monkeypatch.setattr(bernoulli, "_bernoulli_exact", broken)
            with pytest.raises(ArithmeticError, match=message):
                bernoulli_table(64)

    def test_zeta_sum_within_its_stated_bound(self):
        # the truncated sum must be good to 1e-15 for the 1e-12 check to mean anything
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for s in range(2, 65, 2):
                exact = mpmath.zeta(s)
                assert abs(mpmath.mpf(bernoulli._zeta_even(s)) - exact) <= 1e-15 * exact

    def test_zeta_check_has_headroom(self):
        # a correct table sits far inside _ZETA_TOL = 1e-12, so a 1e-10 error stands out
        table = bernoulli_table(64)
        for n in range(1, 33):
            ref = 2.0 * math.factorial(2 * n) * bernoulli._zeta_even(2 * n) / (2.0 * math.pi) ** (2 * n)
            assert abs(table.abs_b2n_float(n) - ref) <= 1e-14 * ref


class TestErrors:
    @pytest.mark.parametrize("bad", [0, 1, 3, -2, 66, 2.0, "8"])
    def test_rejects_bad_n_max(self, bad):
        with pytest.raises(DomainError):
            bernoulli_table(bad)

    def test_accessor_range(self):
        table = bernoulli_table(8)
        with pytest.raises(DomainError):
            table.b2n(0)
        with pytest.raises(DomainError):
            table.b2n(5)
        for bad in (1.5, 2.0, True, "1", None):
            for accessor in (table.b2n, table.abs_b2n, table.abs_b2n_float):
                with pytest.raises(DomainError):
                    accessor(bad)
