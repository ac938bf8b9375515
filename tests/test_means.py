import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from meanbound import (
    DegeneratePairError,
    DomainError,
    MeanKind,
    PositivePair,
    eval_mean,
    half_sum_ratio,
    seiffert_p_arctan_form,
)
from meanbound.means import _SERIES_CUTOFF, _U_OVER_ASIN, _U_OVER_ATAN, _even_poly

# Reference values computed with a 60-digit arbitrary-precision evaluator
# and rounded to binary64.
P_2_1 = 1.4712939827611635        # 1/(2*asin(1/3))
T_2_1 = 1.5539988763581694        # 1/(2*atan(1/3))
P_ARCTAN_9_1 = 4.31362086458322   # 8/(4*atan(3) - pi)
P_1P0001 = 1.000049999583354      # series branch, u ~ 5e-5
T_1P0001 = 1.0000500008332918
P_1P001 = 1.0004999583541532      # direct branch, u ~ 5e-4
T_1P001 = 1.000500083291682

ALL_KINDS = list(MeanKind)

positive = st.floats(min_value=1e-150, max_value=1e150, allow_nan=False, allow_infinity=False)


class TestPositivePair:
    def test_degenerate_flag(self):
        assert PositivePair(5, 5).degenerate
        assert not PositivePair(5, 4).degenerate

    @pytest.mark.parametrize(
        "a,b",
        [
            (0, 1), (-1, 2), (1, 0), (2, -3), (math.nan, 1), (1, math.inf),
            (None, 2), ("a", 2), (1, "b"), (1, [2]), pytest.param(10**400, 1, id="1e400-1"), (1j, 1),
        ],
    )
    def test_rejects_nonpositive(self, a, b):
        with pytest.raises(DomainError):
            PositivePair(a, b)

    def test_coerces_to_float(self):
        pair = PositivePair(2, 1)
        assert isinstance(pair.a, float) and isinstance(pair.b, float)


class TestEvalMean:
    def test_geometric_4_1(self):
        assert eval_mean(MeanKind.GEOMETRIC, PositivePair(4, 1)) == 2.0

    def test_contra_harmonic_2_1(self):
        assert eval_mean(MeanKind.CONTRA_HARMONIC, PositivePair(2, 1)) == approx(5 / 3, rel=1e-15)

    def test_arithmetic_3_1(self):
        assert eval_mean(MeanKind.ARITHMETIC, PositivePair(3, 1)) == 2.0

    def test_seiffert_p_2_1(self):
        assert eval_mean(MeanKind.SEIFFERT_P, PositivePair(2, 1)) == approx(P_2_1, rel=1e-14)

    def test_seiffert_t_2_1(self):
        assert eval_mean(MeanKind.SEIFFERT_T, PositivePair(2, 1)) == approx(T_2_1, rel=1e-14)

    def test_seiffert_continuous_extension(self):
        assert eval_mean(MeanKind.SEIFFERT_P, PositivePair(5, 5)) == 5.0
        assert eval_mean(MeanKind.SEIFFERT_T, PositivePair(5, 5)) == 5.0

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (MeanKind.SEIFFERT_P, P_1P0001),
            (MeanKind.SEIFFERT_T, T_1P0001),
        ],
    )
    def test_seiffert_series_branch(self, kind, expected):
        assert eval_mean(kind, PositivePair(1.0001, 1.0)) == approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (MeanKind.SEIFFERT_P, P_1P001),
            (MeanKind.SEIFFERT_T, T_1P001),
        ],
    )
    def test_seiffert_direct_branch(self, kind, expected):
        assert eval_mean(kind, PositivePair(1.001, 1.0)) == approx(expected, rel=1e-14)

    def test_seiffert_branches_join_smoothly(self):
        # u ~ 9.5e-5 routes to the series; the direct quotient must agree
        pair = PositivePair(1.00019, 1.0)
        u = (pair.a - pair.b) / (pair.a + pair.b)
        direct = (pair.a - pair.b) / (2.0 * math.asin(u))
        assert eval_mean(MeanKind.SEIFFERT_P, pair) == approx(direct, rel=1e-13)
        direct_t = (pair.a - pair.b) / (2.0 * math.atan(u))
        assert eval_mean(MeanKind.SEIFFERT_T, pair) == approx(direct_t, rel=1e-13)

    def test_every_kind_has_an_evaluator(self):
        pair = PositivePair(3, 2)
        for kind in ALL_KINDS:
            assert 2.0 <= eval_mean(kind, pair) <= 3.0

    @pytest.mark.parametrize("kind", ["P", "SEIFFERT_P", None, [MeanKind.SEIFFERT_P]])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(DomainError, match="MeanKind.CONTRA_HARMONIC, MeanKind.CENTROIDAL"):
            eval_mean(kind, PositivePair(2, 1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_refuses_a_ratio_beyond_the_binary64_range(self, kind):
        for pair in (PositivePair(1e300, 1e-300), PositivePair(1e-30, 1e300)):
            with pytest.raises(DomainError, match="exceeds the binary64 range"):
                eval_mean(kind, pair)

    def test_extreme_magnitudes(self):
        for kind in ALL_KINDS:
            big = eval_mean(kind, PositivePair(1e300, 3e299))
            assert 3e299 <= big <= 1e300
            small = eval_mean(kind, PositivePair(1e-300, 3e-299))
            assert 1e-300 <= small <= 3e-299


class TestInvariants:
    @given(a=positive, b=positive)
    @settings(max_examples=300)
    def test_betweenness(self, a, b):
        pair = PositivePair(a, b)
        lo, hi = min(a, b), max(a, b)
        for kind in ALL_KINDS:
            m = eval_mean(kind, pair)
            assert lo <= m <= hi

    def test_betweenness_large_seeded_sweep(self):
        rng = random.Random(11)
        for _ in range(100_000):
            a = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            b = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            pair = PositivePair(a, b)
            lo, hi = min(a, b), max(a, b)
            for kind in ALL_KINDS:
                assert lo <= eval_mean(kind, pair) <= hi

    @given(a=positive, b=positive)
    @settings(max_examples=200)
    def test_symmetry(self, a, b):
        fwd = PositivePair(a, b)
        rev = PositivePair(b, a)
        for kind in ALL_KINDS:
            assert eval_mean(kind, fwd) == eval_mean(kind, rev)

    @pytest.mark.parametrize(
        "a,b",
        [
            # Seiffert series branch, |a-b|/(a+b) < 1e-4
            (1.0001, 1.0), (1.00019, 1.0), (1.0 + 2**-52, 1.0), (3.0, 3.00003),
            (1e300, 1.00001e300), (1e-300, 1.00001e-300),
            # extreme magnitudes, direct branch
            (1e300, 3e299), (1e-300, 3e-299), (1e300, 1e10), (1e-300, 1e-10), (1e150, 1e-150),
        ],
    )
    def test_symmetry_bitwise_at_branch_and_range_edges(self, a, b):
        for kind in ALL_KINDS:
            assert eval_mean(kind, PositivePair(a, b)) == eval_mean(kind, PositivePair(b, a))

    @given(
        a=st.floats(min_value=1e-30, max_value=1e30),
        b=st.floats(min_value=1e-30, max_value=1e30),
        lam=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    @settings(max_examples=300)
    def test_homogeneity(self, a, b, lam):
        pair = PositivePair(a, b)
        scaled = PositivePair(lam * a, lam * b)
        for kind in ALL_KINDS:
            want = lam * eval_mean(kind, pair)
            assert abs(eval_mean(kind, scaled) - want) <= 1e-12 * want

    @given(a=positive, b=positive)
    @settings(max_examples=300)
    def test_algebraic_identities(self, a, b):
        pair = PositivePair(a, b)
        c = eval_mean(MeanKind.CONTRA_HARMONIC, pair)
        cbar = eval_mean(MeanKind.CENTROIDAL, pair)
        am = eval_mean(MeanKind.ARITHMETIC, pair)
        g = eval_mean(MeanKind.GEOMETRIC, pair)
        h = eval_mean(MeanKind.HARMONIC, pair)
        s = eval_mean(MeanKind.ROOT_SQUARE, pair)
        assert c == approx(2 * am - h, rel=1e-13)
        assert cbar == approx((2 * c + h) / 3, rel=1e-13)
        assert s * s == approx(am * c, rel=1e-13)
        assert g * g == approx(am * h, rel=1e-13)

    @given(
        x=st.floats(min_value=1.01, max_value=1e8),
        b=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300)
    def test_strict_mean_chain(self, x, b):
        pair = PositivePair(x * b, b)
        vals = {kind: eval_mean(kind, pair) for kind in ALL_KINDS}
        assert (
            vals[MeanKind.HARMONIC]
            < vals[MeanKind.GEOMETRIC]
            < vals[MeanKind.SEIFFERT_P]
            < vals[MeanKind.ARITHMETIC]
            < vals[MeanKind.SEIFFERT_T]
            < vals[MeanKind.CENTROIDAL]
            < vals[MeanKind.CONTRA_HARMONIC]
        )
        assert vals[MeanKind.SEIFFERT_T] < vals[MeanKind.ROOT_SQUARE] < vals[MeanKind.CONTRA_HARMONIC]


class TestHalfSumRatio:
    def test_examples(self):
        assert half_sum_ratio(PositivePair(2, 1)) == approx(1 / 3, rel=1e-15)
        assert half_sum_ratio(PositivePair(1, 1)) == 0.0
        assert half_sum_ratio(PositivePair(1e6, 1)) == approx(999999 / 1000001, rel=1e-15)

    @given(a=positive, b=positive)
    @settings(max_examples=300)
    def test_range_and_antisymmetry(self, a, b):
        u = half_sum_ratio(PositivePair(a, b))
        assert -1.0 < u < 1.0
        assert half_sum_ratio(PositivePair(b, a)) == -u


class TestSeiffertPArctanForm:
    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairError):
            seiffert_p_arctan_form(PositivePair(1, 1))

    def test_9_1(self):
        assert seiffert_p_arctan_form(PositivePair(9, 1)) == approx(P_ARCTAN_9_1, rel=1e-14)

    def test_matches_textbook_expression_when_well_separated(self):
        # the naive 4*atan(sqrt(a/b)) - pi denominator is fine away from a == b
        for x in (1.5, 2.0, 9.0, 1e3, 1e8):
            pair = PositivePair(x, 1.0)
            naive = (x - 1.0) / (4.0 * math.atan(math.sqrt(x)) - math.pi)
            assert seiffert_p_arctan_form(pair) == approx(naive, rel=1e-11)

    def test_agrees_with_arcsin_form(self):
        for x in (1.0 + 1e-9, 1.0001, 2.0, 42.0, 1e6, 1e10):
            pair = PositivePair(x, 1.0)
            assert seiffert_p_arctan_form(pair) == approx(
                eval_mean(MeanKind.SEIFFERT_P, pair), rel=1e-13
            )

    def test_symmetric(self):
        assert seiffert_p_arctan_form(PositivePair(1, 9)) == approx(P_ARCTAN_9_1, rel=1e-14)


# The two-argument forms M(x, y) on x, y = a/m, b/m with m = max(a, b),
# kept as an oracle: the one-variable evaluators m*M(1, r) must give the
# same bits, sign included, since one of x and y is exactly 1.0.
def _ref_seiffert_p(x, y):
    s = x + y
    u = (x - y) / s
    if -_SERIES_CUTOFF < u < _SERIES_CUTOFF:
        return 0.5 * s * _even_poly(_U_OVER_ASIN, u)
    t = (x - y) / (2.0 * math.sqrt(x) * math.sqrt(y))
    return (x - y) / (2.0 * math.atan(t))


def _ref_seiffert_t(x, y):
    s = x + y
    u = (x - y) / s
    if -_SERIES_CUTOFF < u < _SERIES_CUTOFF:
        return 0.5 * s * _even_poly(_U_OVER_ATAN, u)
    return (x - y) / (2.0 * math.atan(u))


REFERENCE_MEANS = {
    MeanKind.CONTRA_HARMONIC: lambda x, y: (x * x + y * y) / (x + y),
    MeanKind.CENTROIDAL: lambda x, y: 2.0 * ((x * x + y * y) + x * y) / (3.0 * (x + y)),
    MeanKind.ARITHMETIC: lambda x, y: 0.5 * (x + y),
    MeanKind.GEOMETRIC: lambda x, y: math.sqrt(x) * math.sqrt(y),
    MeanKind.HARMONIC: lambda x, y: 2.0 * (x * y) / (x + y),
    MeanKind.ROOT_SQUARE: lambda x, y: math.sqrt(0.5 * (x * x + y * y)),
    MeanKind.SEIFFERT_P: _ref_seiffert_p,
    MeanKind.SEIFFERT_T: _ref_seiffert_t,
}


def _ref_half_sum_ratio(x, y):
    r = (x - y) / (x + y)
    if r >= 1.0:
        return math.nextafter(1.0, 0.0)
    if r <= -1.0:
        return -math.nextafter(1.0, 0.0)
    return r


def _ref_seiffert_p_arctan_form(m, x, y):
    w = (x - y) / (x + y + 2.0 * math.sqrt(x) * math.sqrt(y))
    return m * (x - y) / (4.0 * math.atan(w))


def _reference_pairs():
    """Both argument orders of pairs with a/b - 1 log-uniform on
    [1e-16, 1e300] or uniform on [0, 3e-4], at magnitudes 10^U(-300, 300)."""
    rng = random.Random(20261018)
    ds = [10.0 ** rng.uniform(-16.0, 300.0) for _ in range(3000)]
    ds += [rng.uniform(0.0, 3e-4) for _ in range(1500)] + [0.0, 1e-4, 2**-52]
    for d in ds:
        m = 10.0 ** rng.uniform(-300.0, 300.0)
        lo = m / (1.0 + d)
        if lo > 0.0:
            yield m, lo
            yield lo, m


def _same_bits(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestReferenceForms:
    def test_eval_mean_matches_the_two_argument_forms_bitwise(self):
        checked = 0
        for a, b in _reference_pairs():
            pair = PositivePair(a, b)
            m = max(a, b)
            x, y = a / m, b / m
            for kind, ref in REFERENCE_MEANS.items():
                got, want = eval_mean(kind, pair), m * ref(x, y)
                assert _same_bits(got, want), (kind, a, b, got, want)
                checked += 1
        assert checked > 60_000

    def test_ratio_forms_match_the_two_argument_forms_bitwise(self):
        for a, b in _reference_pairs():
            pair = PositivePair(a, b)
            m = max(a, b)
            x, y = a / m, b / m
            assert _same_bits(half_sum_ratio(pair), _ref_half_sum_ratio(x, y)), (a, b)
            if a == b:
                continue
            got, want = seiffert_p_arctan_form(pair), _ref_seiffert_p_arctan_form(m, x, y)
            assert _same_bits(got, want), (a, b, got, want)
