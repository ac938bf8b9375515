import math
import random
from fractions import Fraction

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
from meanbound.kernels import _H2_DEN, _H2_NUM, _H4_DEN, _H4_NUM, _h2_series, _h4_series
from meanbound.means import (
    _EXCESS_CUTOFF,
    _EXCESSES,
    _HALF_PI,
    _ONE_MINUS_HALF_PI,
    _ONE_MINUS_QUARTER_PI,
    _QUARTER_PI,
    _SERIES_CUTOFF,
    _SINE_GAP,
    _TANGENT_GAP,
)

import _oracle as oracle

# Reference values computed with a 60-digit arbitrary-precision evaluator
# and rounded to binary64.
P_ARCTAN_9_1 = 4.31362086458322   # 8/(4*atan(3) - pi)

ALL_KINDS = list(MeanKind)


def _poly(coeffs, w):
    """sum(coeffs[k]*w^k) by the Horner loop, innermost term first: the
    reference that kernels' and means' straight-line forms must match bit
    for bit."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


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
    @pytest.mark.parametrize("kind", ["P", "SEIFFERT_P", None, [MeanKind.SEIFFERT_P]])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(DomainError, match="MeanKind.CONTRA_HARMONIC, MeanKind.CENTROIDAL"):
            eval_mean(kind, PositivePair(2, 1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_refuses_a_ratio_beyond_the_binary64_range(self, kind):
        # named for the refusal these pairs once met: their min/max underflows
        # to 0, and each mean now takes its limit m*M(1, 0), G and H from min
        for a, b in ((1e300, 1e-300), (1e-30, 1e300)):
            m, low = max(a, b), min(a, b)
            limit = {
                MeanKind.CONTRA_HARMONIC: m, MeanKind.CENTROIDAL: 2 * m / 3, MeanKind.ARITHMETIC: m / 2,
                MeanKind.GEOMETRIC: math.sqrt(m) * math.sqrt(low), MeanKind.HARMONIC: 2 * low,
                MeanKind.ROOT_SQUARE: m / math.sqrt(2), MeanKind.SEIFFERT_P: m / math.pi,
                MeanKind.SEIFFERT_T: 2 * m / math.pi,
            }[kind]
            assert eval_mean(kind, PositivePair(a, b)) == approx(limit, rel=1e-15)

    def test_extreme_magnitudes(self):
        for kind in ALL_KINDS:
            big = eval_mean(kind, PositivePair(1e300, 3e299))
            assert 3e299 <= big <= 1e300
            small = eval_mean(kind, PositivePair(1e-300, 3e-299))
            assert 1e-300 <= small <= 3e-299


class TestInvariants:
    @given(a=positive, b=positive)
    @settings(max_examples=300, derandomize=True)
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

    @given(
        a=st.floats(min_value=1e-30, max_value=1e30),
        b=st.floats(min_value=1e-30, max_value=1e30),
        lam=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    @settings(max_examples=300, derandomize=True)
    def test_homogeneity(self, a, b, lam):
        pair = PositivePair(a, b)
        scaled = PositivePair(lam * a, lam * b)
        for kind in ALL_KINDS:
            want = lam * eval_mean(kind, pair)
            assert abs(eval_mean(kind, scaled) - want) <= 1e-12 * want

    @given(a=positive, b=positive)
    @settings(max_examples=300, derandomize=True)
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


class TestHalfSumRatio:
    def test_examples(self):
        assert half_sum_ratio(PositivePair(2, 1)) == approx(1 / 3, rel=1e-15)
        assert half_sum_ratio(PositivePair(1, 1)) == 0.0
        assert half_sum_ratio(PositivePair(1e6, 1)) == approx(999999 / 1000001, rel=1e-15)


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


# The two-argument forms M(x, y) on x, y = a/m, b/m with m = max(a, b),
# kept as an oracle: the one-variable evaluators m*M(1, r) must give the
# same bits, sign included, since one of x and y is exactly 1.0.  C, Cbar
# and T, and P near x == y, are a + a*t*t*e with a = (x + y)/2,
# t = (x - y)/(x + y) and e the excess, of min(x, y)/max(x, y) where it
# varies.  Each form gives the same bits for (y, x) as for (x, y), or for
# half_sum_ratio their negation, so matching them on both orders of every
# pair is also the test of each function's symmetry.
def _ref_excess_form(e_of_r):
    def ref(x, y):
        s = x + y
        t = (x - y) / s
        a = 0.5 * s
        return a + a * t * t * e_of_r(min(x, y) / max(x, y)) if t else a
    return ref


def _ref_seiffert_p(x, y):
    u = (x - y) / (x + y)
    if -_SERIES_CUTOFF < u < _SERIES_CUTOFF:
        return _ref_excess_form(_EXCESSES[MeanKind.SEIFFERT_P])(x, y)
    return (x - y) / (2.0 * math.atan2(x - y, 2.0 * math.sqrt(x) * math.sqrt(y)))


REFERENCE_MEANS = {
    MeanKind.CONTRA_HARMONIC: _ref_excess_form(lambda r: 1.0),
    MeanKind.CENTROIDAL: _ref_excess_form(lambda r: 1.0 / 3.0),
    MeanKind.ARITHMETIC: lambda x, y: 0.5 * (x + y),
    MeanKind.GEOMETRIC: lambda x, y: math.sqrt(x) * math.sqrt(y),
    MeanKind.HARMONIC: lambda x, y: 2.0 * (x * y) / (x + y),
    MeanKind.ROOT_SQUARE: lambda x, y: math.sqrt(0.5 * (x * x + y * y)),
    MeanKind.SEIFFERT_P: _ref_seiffert_p,
    MeanKind.SEIFFERT_T: _ref_excess_form(_EXCESSES[MeanKind.SEIFFERT_T]),
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


def _doubles(start, toward, n):
    """The n consecutive doubles after start in the direction of toward."""
    out = []
    for _ in range(n):
        start = math.nextafter(start, toward)
        out.append(start)
    return out


def _reference_pairs():
    """Both argument orders of pairs with a/b - 1 log-uniform on
    [1e-16, 1e300] or uniform on [0, 3e-4], at magnitudes 10^U(-300, 300);
    then, at power-of-two magnitudes, b/a on the 1000 doubles just below 1
    and on 1000 each side of the Seiffert series cutoff; then pairs at the
    Seiffert means' branch edge and at the ends of the binary64 range."""
    rng = random.Random(20261018)
    ds = [10.0 ** rng.uniform(-16.0, 300.0) for _ in range(3000)]
    ds += [rng.uniform(0.0, 3e-4) for _ in range(1500)] + [0.0, 1e-4, 2**-52]
    for d in ds:
        m = 10.0 ** rng.uniform(-300.0, 300.0)
        lo = m / (1.0 + d)
        if lo > 0.0:
            yield m, lo
            yield lo, m
    r_cut = (1.0 - _SERIES_CUTOFF) / (1.0 + _SERIES_CUTOFF)
    for r in _doubles(1.0, 0.0, 1000) + _doubles(r_cut, 0.0, 1000) + _doubles(r_cut, 1.0, 1000):
        m = 2.0 ** rng.randint(-1000, 1000)
        yield m, m * r
        yield m * r, m
    for a, b in (
        # series branch, |a - b|/(a + b) < 1e-4
        (1.0001, 1.0), (1.00019, 1.0), (1.0 + 2**-52, 1.0), (3.0, 3.00003),
        (1e300, 1.00001e300), (1e-300, 1.00001e-300),
        # extreme magnitudes, direct branch
        (1e300, 3e299), (1e-300, 3e-299), (1e300, 1e10), (1e-300, 1e-10), (1e150, 1e-150),
    ):
        yield a, b
        yield b, a


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


def _inverse_series(coeffs):
    """Exact coefficients of 1/f for f = sum(coeffs[k]*w^k), coeffs[0] == 1."""
    inverse = [Fraction(1)]
    for n in range(1, len(coeffs)):
        inverse.append(-sum(coeffs[k] * inverse[n - k] for k in range(1, n + 1)))
    return inverse


def _mp_means(mpmath, r):
    """M(1, r) for every kind, and t = (1 - r)/(1 + r), at mpmath's precision."""
    mr = mpmath.mpf(r)
    return (1 - mr) / (1 + mr), oracle.means(1, mr)


# asin(t)/t and atan(t)/t as series in w = t^2, 40 terms
_ASIN_OVER_T = [Fraction(math.comb(2 * k, k), 4**k * (2 * k + 1)) for k in range(40)]
_ATAN_OVER_T = [Fraction((-1) ** k, 2 * k + 1) for k in range(40)]


def _loop_excess_p(r):
    t = (1.0 - r) / (1.0 + r)
    theta = math.atan2(1.0 - r, 2.0 * math.sqrt(r))
    q = theta / t
    return -q * q * _poly(_SINE_GAP, theta * theta)


def _loop_excess_t(r):
    t = (1.0 - r) / (1.0 + r)
    theta = math.atan(t)
    q = theta / t
    return q * q * math.sqrt(1.0 + t * t) * _poly(_TANGENT_GAP, theta * theta)


def _r_at(t_of_theta):
    """w -> r with theta = sqrt(w) and t = t_of_theta(theta) = (1 - r)/(1 + r)."""
    def r(w):
        t = t_of_theta(math.sqrt(w))
        return (1.0 - t) / (1.0 + t)
    return r


# table -> (its straight-line form, the same form by the loop, the top of the
# w range it serves, the argument at w): the kernels' series below x = 1/2 and
# the excesses' series branches below t = 0.9
_LOOP_FORMS = {
    "h2": (_h2_series, lambda x: _poly(_H2_NUM, x * x) / _poly(_H2_DEN, x * x), 0.25, math.sqrt),
    "h4": (_h4_series, lambda x: math.cos(x) * _poly(_H4_NUM, x * x) / _poly(_H4_DEN, x * x), 0.25, math.sqrt),
    "P": (_EXCESSES[MeanKind.SEIFFERT_P], _loop_excess_p, math.asin(0.9) ** 2, _r_at(math.sin)),
    "T": (_EXCESSES[MeanKind.SEIFFERT_T], _loop_excess_t, math.atan(0.9) ** 2, _r_at(math.tan)),
}


class TestExcesses:
    # every mean is A*(1 + t^2*e) with t = (1-r)/(1+r); e is the excess
    def test_gap_series_are_the_exact_factorial_quotients(self):
        factorial = math.factorial
        assert _SINE_GAP == tuple(float(Fraction((-1) ** k, factorial(2 * k + 3))) for k in range(9))
        assert _TANGENT_GAP == tuple(
            float(Fraction((-1) ** (k + 1), (2 * k + 1) * factorial(2 * k - 1))) for k in range(1, 9)
        )
        # the kernels' h2 and h4 tables: coefficients of x^(2k+1), k = 1..10, in
        # the numerators and denominators, exact from the sin and cos series
        sin = [Fraction((-1) ** (n // 2), factorial(n)) if n % 2 else Fraction(0) for n in range(22)]
        cos = [Fraction(0) if n % 2 else Fraction((-1) ** (n // 2), factorial(n)) for n in range(22)]
        x = [Fraction(n == 1) for n in range(22)]
        x_cos = [Fraction(0), *cos[:-1]]
        sin_cos = [sum(sin[i] * cos[n - i] for i in range(n + 1)) for n in range(22)]
        for table, series in [
            (_H2_NUM, [s - c for s, c in zip(sin, x_cos)]),  # sin x - x cos x
            (_H2_DEN, [u - c for u, c in zip(x, x_cos)]),  # x (1 - cos x)
            (_H4_NUM, [u - s for u, s in zip(x, sin)]),  # x - sin x
            (_H4_DEN, [u - s for u, s in zip(x, sin_cos)]),  # x - sin x cos x
        ]:
            assert table == tuple(float(c) for c in series[3::2])
        assert _SINE_GAP == _H4_NUM[:9] and _TANGENT_GAP == _H2_NUM[:8]

    @pytest.mark.parametrize("table", list(_LOOP_FORMS))
    def test_straight_line_horner_matches_the_loop_bitwise(self, table):
        # 2^14 + 1 evenly spaced w, from 0 to the top of the range the table
        # serves: 1/4 for x < 1/2, or the w at t = 0.9 for the excesses, whose
        # t = 0 is 0/0 and whose t >= 0.9 takes the other branch
        form, loop, top, arg = _LOOP_FORMS[table]
        args = [arg(top * i / 2**14) for i in range(2**14 + 1)]
        if table in ("P", "T"):
            args = [r for r in args if 0.0 < (1.0 - r) / (1.0 + r) < _EXCESS_CUTOFF]
        assert len(args) >= 2**14 - 1
        for a in args:
            assert _same_bits(form(a), loop(a)), (table, a)

    @pytest.mark.parametrize("kind, series", [
        (MeanKind.SEIFFERT_P, _ASIN_OVER_T), (MeanKind.SEIFFERT_T, _ATAN_OVER_T),
    ], ids=["P", "T"])
    def test_p_and_t_are_the_inverted_series(self, kind, series):
        # (t/asin t - 1)/t^2 and (t/atan t - 1)/t^2 are the inverse series
        # of asin(t)/t and atan(t)/t less its constant term, over w; on
        # t <= 1/2 forty terms leave a remainder below 1e-26
        inverse = _inverse_series(series)
        for t in [2.0**-k for k in range(1, 54, 4)] + [0.3, 0.45, 0.5]:
            r = (1.0 - t) / (1.0 + t)
            exact_r = Fraction(r)
            w = ((1 - exact_r) / (1 + exact_r)) ** 2
            exact = Fraction(0)
            for b in reversed(inverse[1:]):
                exact = exact * w + b
            want = float(exact)
            assert abs(_EXCESSES[kind](r) - want) <= 4 * math.ulp(want), t

    def test_against_mpmath(self):
        # (M/A - 1)/t^2 at 100 digits, on d = 1/r - 1 four per decade from
        # 2^-52 to 1e300 and densely around the series cutoff
        mpmath = pytest.importorskip("mpmath")
        cut = 2 * _EXCESS_CUTOFF / (1 - _EXCESS_CUTOFF)  # t = d/(2 + d)
        ln_lo, ln_hi = math.log(2.0**-52), math.log(1e300)
        ds = [math.exp(ln_lo + (ln_hi - ln_lo) * i / 1279) for i in range(1280)]
        ds += [cut * 1.001**i for i in range(-50, 51)]
        worst = {}
        with mpmath.workdps(100):
            for d in ds:
                r = 1.0 / (1.0 + d)
                for kind, excess in _EXCESSES.items():
                    got = excess(r) if callable(excess) else excess
                    want = float(oracle.excess(kind, r))
                    worst[kind] = max(worst.get(kind, 0.0), abs(got - want) / math.ulp(want))
        assert {kind for kind, e in _EXCESSES.items() if not callable(e)} == {
            MeanKind.CONTRA_HARMONIC, MeanKind.CENTROIDAL, MeanKind.ARITHMETIC, MeanKind.HARMONIC,
        }
        assert max(worst.values()) <= 6.0, worst
        with mpmath.workdps(50):
            assert (_HALF_PI, _ONE_MINUS_HALF_PI, _QUARTER_PI, _ONE_MINUS_QUARTER_PI) == tuple(
                float(value) for value in (mpmath.pi / 2, 1 - mpmath.pi / 2, mpmath.pi / 4, 1 - mpmath.pi / 4))


class TestEnds:
    # C, Cbar, A and H's excesses are constants: their limits at t = 0 and
    # t = 1, against the means at 120 digits, each rounded to its float
    def test_against_mpmath_limits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(120):
            # the excess (2M/(1 + r) - 1)/t^2 at t = 1e-25 is its limit at
            # t = 0 to O(t^2), and rounding costs it 50 of the 120 digits;
            # at r = 0, t = 1, it is 2*M(1, 0) - 1
            t_small = mpmath.mpf(10) ** -25
            t, near = _mp_means(mpmath, (1 - t_small) / (1 + t_small))
            _, far = _mp_means(mpmath, 0)
            constants = {kind: e for kind, e in _EXCESSES.items() if not callable(e)}
            assert len(constants) == 4
            for kind, e in constants.items():
                for limit in ((near[kind] * (1 + t) - 1) / (t * t), 2 * far[kind] - 1):
                    assert abs(limit - e) <= math.ulp(e) / 2 + 1e-45, kind


def _worst_ulp(mpmath, f, kind):
    """The largest |f(pair) - M(pair)| over the oracle pairs, in ulp of M, with
    M the 60-digit mean of that kind."""
    worst = 0.0
    with mpmath.workdps(60):
        for pair in oracle.pairs():
            want = oracle.mean(kind, pair.a, pair.b)
            worst = max(worst, float(abs(f(pair) - want) / math.ulp(float(want))))
    return worst


class TestMeanOracle:
    # each bound is 2x, rounded down, the worst error once measured on the
    # pairs without their random mantissas.  With them and the searched pairs
    # the worst is C 1.17, Cbar 2.13, A 1.32, G 1.75, H 2.76, S 1.25, P 2.54
    # (max/min = 3.6895, either order) and T 2.50
    @pytest.mark.parametrize("kind, bound", [
        (MeanKind.CONTRA_HARMONIC, 3.6), (MeanKind.CENTROIDAL, 2.8), (MeanKind.ARITHMETIC, 2.0),
        (MeanKind.GEOMETRIC, 3.5), (MeanKind.HARMONIC, 4.2), (MeanKind.ROOT_SQUARE, 2.4),
        (MeanKind.SEIFFERT_P, 3.2), (MeanKind.SEIFFERT_T, 3.2),
    ], ids=lambda v: v.value if isinstance(v, MeanKind) else None)
    def test_eval_mean_against_mpmath(self, kind, bound):
        mpmath = pytest.importorskip("mpmath")
        assert _worst_ulp(mpmath, lambda pair: eval_mean(kind, pair), kind) <= bound

    def test_seiffert_p_arctan_form_against_mpmath(self):
        # measured worst 2.30 ulp
        mpmath = pytest.importorskip("mpmath")
        assert _worst_ulp(mpmath, seiffert_p_arctan_form, MeanKind.SEIFFERT_P) <= 3.6
