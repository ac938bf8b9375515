import math
from collections import Counter
from fractions import Fraction

import pytest
from pytest import approx

from meanbound import (
    H_INFO,
    SPECS,
    DegeneratePairError,
    DomainError,
    HFunctionId,
    MeanBoundError,
    MeanKind,
    PositivePair,
    certify,
    certify_many,
    equivalence_check,
    eval_mean,
    h_eval,
    numeric_extrema,
    ratio,
    ratio_via_kernel,
    sharp_bounds,
)
from meanbound import bounds
from meanbound.bounds import _BLOCK, _LN_X_HI, _LN_X_LO, _certify_chunk, _scan, _units

# 60-digit reference values.
RATIO_PROP11_2_1 = 0.8277638965669817  # h1(asin(1/3))
RATIO_THM51_2_1 = 0.661996629074508    # 1 - h3(atan(1/3))/2

SQRT2 = math.sqrt(2.0)
EXPECTED_CONSTANTS = {
    "prop1.1": (2 / math.pi, 5 / 6),
    "prop1.2": (1 / math.pi, 5 / 12),
    "prop1.3": ((4 - math.pi) / ((SQRT2 - 1) * math.pi), 2 / 3),
    "prop1.4": (3 / (2 * math.pi), 5 / 8),
    "thm5.1": (2 / math.pi, 2 / 3),
    "thm5.2": ((math.pi - 2 * SQRT2) / (SQRT2 * math.pi - 2 * SQRT2), 1 / 4),
    "thm5.3": (2 / math.pi, 2 / 3),
}


class TestRegistry:
    def test_exactly_seven_rows(self):
        assert list(SPECS) == [
            "prop1.1", "prop1.2", "prop1.3", "prop1.4", "thm5.1", "thm5.2", "thm5.3",
        ]

    @pytest.mark.parametrize(
        "spec_id,target,hi,lo,kernel,sub,right,p,q",
        [
            ("prop1.1", "P", "A", "H", "h1", "sin", math.pi / 2, 1.0, 0.0),
            ("prop1.2", "P", "C", "H", "h1", "sin", math.pi / 2, 0.5, 0.0),
            ("prop1.3", "T", "S", "A", "h2", "tan", math.pi / 4, 1.0, 0.0),
            ("prop1.4", "P", "Cbar", "H", "h1", "sin", math.pi / 2, 0.75, 0.0),
            ("thm5.1", "T", "C", "H", "h3", "tan", math.pi / 4, -0.5, 1.0),
            ("thm5.2", "S", "C", "T", "h4", "tan", math.pi / 4, 1.0, 0.0),
            ("thm5.3", "P", "A", "G", "h2", "sin", math.pi / 2, 1.0, 0.0),
        ],
    )
    def test_row_contents(self, spec_id, target, hi, lo, kernel, sub, right, p, q):
        spec = SPECS[spec_id]
        assert spec.target.value == target
        assert spec.hi.value == hi
        assert spec.lo.value == lo
        assert spec.kernel.value == kernel
        assert spec.theta_sub == sub
        assert spec.theta_right == right
        assert spec.p == p and spec.q == q
        assert spec.p != 0.0

    # an unknown substitution used to mean atan silently; p and q feed the
    # exact beta, where a NaN would be a bare ValueError from Fraction
    @pytest.mark.parametrize("changes", [
        {"theta_sub": "cos"}, {"p": math.nan}, {"p": math.inf}, {"q": -math.inf}, {"q": "0"},
        # a kernel or mean given by name or as the wrong enum; sharp_bounds
        # and ratio would fail on it with a bare KeyError
        {"kernel": "h1"}, {"kernel": MeanKind.HARMONIC}, {"target": "P"},
        {"target": HFunctionId.H1}, {"hi": "A"}, {"lo": None},
    ])
    def test_bad_reduction_rejected(self, changes):
        with pytest.raises(DomainError):
            SPECS["prop1.1"]._replace(**changes)


class TestSharpBounds:
    def test_numeric_values_are_the_closed_forms(self):
        for spec_id, (alpha, beta) in EXPECTED_CONSTANTS.items():
            sb = sharp_bounds(SPECS[spec_id])
            assert sb.alpha == approx(alpha, rel=1e-15)
            assert sb.beta == approx(beta, rel=1e-15)

    def test_symbolic_forms(self):
        assert sharp_bounds(SPECS["prop1.1"]).alpha_exact == "2/pi"
        assert sharp_bounds(SPECS["prop1.3"]).alpha_exact == "(4-pi)/((sqrt2-1)*pi)"
        assert sharp_bounds(SPECS["thm5.2"]).alpha_exact == "(pi-2*sqrt2)/(sqrt2*pi-2*sqrt2)"
        assert {spec_id: sharp_bounds(spec).beta_exact for spec_id, spec in SPECS.items()} == {
            "prop1.1": "5/6", "prop1.2": "5/12", "prop1.3": "2/3", "prop1.4": "5/8",
            "thm5.1": "2/3", "thm5.2": "1/4", "thm5.3": "2/3",
        }

    def test_ordering_invariant(self):
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            assert 0.0 < sb.alpha < sb.beta <= 1.0

    def test_constants_are_kernel_images(self):
        # beta = p*h(0+) + q exactly; alpha = p*h(theta_right) + q, whose
        # float image sits at most 4 ulp (thm5.2) from the closed form
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            beta_img = Fraction(spec.p) * H_INFO[spec.kernel].limit_at_zero + Fraction(spec.q)
            assert Fraction(sb.beta_exact) == beta_img
            assert sb.beta == float(beta_img)
            alpha_img = spec.p * h_eval(spec.kernel, spec.theta_right) + spec.q
            assert abs(sb.alpha - alpha_img) <= 16 * math.ulp(sb.alpha)

    def test_alphas_are_correctly_rounded(self):
        # in binary64, thm5.2's pi - 2*sqrt2 cancels and leaves its alpha
        # 6 ulp off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            pi, sqrt2 = mpmath.pi, mpmath.sqrt(2)
            exact = {
                "prop1.1": 2 / pi,
                "prop1.2": 1 / pi,
                "prop1.3": (4 - pi) / ((sqrt2 - 1) * pi),
                "prop1.4": 3 / (2 * pi),
                "thm5.1": 2 / pi,
                "thm5.2": (pi - 2 * sqrt2) / (sqrt2 * pi - 2 * sqrt2),
                "thm5.3": 2 / pi,
            }
            expected = {spec_id: float(value) for spec_id, value in exact.items()}
        assert {spec_id: sharp_bounds(spec).alpha for spec_id, spec in SPECS.items()} == expected

    def test_images_decrease_in_theta(self):
        # beta is the limit at 0+ and alpha the value at theta_right only
        # while p*h + q falls along theta
        for spec in SPECS.values():
            assert H_INFO[spec.kernel].increasing == (spec.p < 0)

    def test_unknown_id(self):
        bogus = SPECS["prop1.1"]._replace(id="prop9.9")
        with pytest.raises(DomainError):
            sharp_bounds(bogus)


class TestRatio:
    def test_prop11_anchor(self):
        pair = PositivePair(2, 1)
        assert ratio(SPECS["prop1.1"], pair) == approx(RATIO_PROP11_2_1, rel=1e-12)
        assert ratio_via_kernel(SPECS["prop1.1"], pair) == approx(RATIO_PROP11_2_1, rel=1e-13)

    def test_thm51_anchor(self):
        pair = PositivePair(2, 1)
        assert ratio(SPECS["thm5.1"], pair) == approx(RATIO_THM51_2_1, rel=1e-12)
        assert ratio_via_kernel(SPECS["thm5.1"], pair) == approx(RATIO_THM51_2_1, rel=1e-13)

    def test_degenerate_pair_rejected(self):
        for fn in (ratio, ratio_via_kernel):
            with pytest.raises(DegeneratePairError):
                fn(SPECS["prop1.3"], PositivePair(1, 1))

    def test_mean_route_equals_kernel_route(self):
        # the reduction identity, checked across the sampling range; x stays
        # >= 1.1 because the mean differences behind the ratio are pure
        # rounding noise closer to a == b than that at this tolerance
        ln_lo, ln_hi = math.log(1.1), math.log(1e8)
        for spec in SPECS.values():
            for i in range(60):
                x = math.exp(ln_lo + (ln_hi - ln_lo) * i / 59.0)
                pair = PositivePair(x, 1.0)
                assert ratio(spec, pair) == approx(ratio_via_kernel(spec, pair), rel=1e-11)

    def test_swap_invariant(self):
        spec = SPECS["prop1.1"]
        assert ratio(spec, PositivePair(7, 2)) == approx(ratio(spec, PositivePair(2, 7)), rel=1e-13)

    def test_strictly_monotone_in_x(self):
        # numerical shadow of the kernel monotonicity: every ratio falls
        # from beta toward alpha as x = a/b grows
        ln_lo, ln_hi = math.log(1.01), math.log(1e12)
        for spec in SPECS.values():
            values = [
                ratio(spec, PositivePair(math.exp(ln_lo + (ln_hi - ln_lo) * i / 999.0), 1.0))
                for i in range(1000)
            ]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_near_diagonal_is_finite_or_refused(self):
        # hi - lo rounds to 0 this close to a == b; that must surface as a
        # MeanBoundError, never as a bare ZeroDivisionError
        for spec in SPECS.values():
            for pair in (PositivePair(1 + 1e-12, 1.0), PositivePair(1.0, 1 + 1e-12)):
                try:
                    value = ratio(spec, pair)
                except MeanBoundError:
                    continue
                assert math.isfinite(value)

    def test_kernel_route_against_mpmath(self):
        # the ratio from the means at 60 digits, on exact binary64 pairs
        # with d = a/b - 1 from 1e-12 up to where 1 + d nears 2^52
        mpmath = pytest.importorskip("mpmath")

        def exact_mean(kind, a, b):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            s = a + b
            return {
                MeanKind.CONTRA_HARMONIC: lambda: (a * a + b * b) / s,
                MeanKind.CENTROIDAL: lambda: 2 * (a * a + a * b + b * b) / (3 * s),
                MeanKind.ARITHMETIC: lambda: s / 2,
                MeanKind.GEOMETRIC: lambda: mpmath.sqrt(a * b),
                MeanKind.HARMONIC: lambda: 2 * a * b / s,
                MeanKind.ROOT_SQUARE: lambda: mpmath.sqrt((a * a + b * b) / 2),
                MeanKind.SEIFFERT_P: lambda: (a - b) / (2 * mpmath.asin((a - b) / s)),
                MeanKind.SEIFFERT_T: lambda: (a - b) / (2 * mpmath.atan((a - b) / s)),
            }[kind]()

        ln_lo, ln_hi = math.log(1e-12), math.log(3.7e15)
        ds = [math.exp(ln_lo + (ln_hi - ln_lo) * i / 99.0) for i in range(100)]
        worst = 0.0
        with mpmath.workdps(60):
            for spec in SPECS.values():
                for d in ds:
                    for a, b in ((1.0 + d, 1.0), (1.0, 1.0 + d)):
                        t, hi, lo = (exact_mean(k, a, b) for k in (spec.target, spec.hi, spec.lo))
                        ref = (t - lo) / (hi - lo)
                        got = ratio_via_kernel(spec, PositivePair(a, b))
                        worst = max(worst, float(abs(got - ref) / abs(ref)))
        assert worst <= 4e-15

    def test_kernel_route_past_the_binary64_ratio_range(self):
        # min/max underflows to 0; theta is then the right end of its range
        for spec in SPECS.values():
            for pair in (PositivePair(1e300, 1e-300), PositivePair(1e-300, 1e300)):
                assert ratio_via_kernel(spec, pair) == approx(sharp_bounds(spec).alpha, rel=1e-14)

    def test_zero_denominator_names_the_spec(self):
        with pytest.raises(DegeneratePairError, match="thm5.2"):
            ratio(SPECS["thm5.2"], PositivePair(1 + 1e-15, 1.0))


class TestNumericExtrema:
    def test_recovers_sharp_constants(self):
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            inf_v, sup_v = numeric_extrema(spec)
            assert abs(inf_v - sb.alpha) <= 1e-8
            assert abs(sup_v - sb.beta) <= 1e-8

    def test_ordering(self):
        for spec in SPECS.values():
            inf_v, sup_v = numeric_extrema(spec)
            assert inf_v < sup_v


def _check_shards_merge(start, stop, shard_bounds):
    checks = [(spec, sharp_bounds(spec).alpha, sharp_bounds(spec).beta) for spec in SPECS.values()]
    whole = _certify_chunk(checks, 1e-12, 5, start, stop)
    shards = [_certify_chunk(checks, 1e-12, 5, i, j) for i, j in shard_bounds]
    for n, check in enumerate(checks):
        violations = sum(shard[n][0] for shard in shards)
        worst, worst_x = math.inf, None
        for _, margin, x in (shard[n] for shard in shards):
            if margin < worst or (margin == worst and (worst_x is None or x < worst_x)):
                worst, worst_x = margin, x
        assert (violations, worst, worst_x) == whole[n]
        assert whole[n] == _reference_chunk(*check, 1e-12, 5, start, stop)


class TestCertify:
    def test_clean_run(self):
        report = certify(SPECS["prop1.1"], 2000, 42, 1e-12)
        assert report.ok
        assert report.violations == 0
        assert report.samples == 2000
        assert report.seed == 42
        assert report.worst_margin > 0.0
        assert report.alpha_probe_gap <= 1e-3
        assert report.beta_probe_gap <= 1e-6

    def test_all_specs_clean(self):
        for spec in SPECS.values():
            assert certify(spec, 1000, 11, 1e-12).ok

    def test_thm52_large_run_seed_7(self):
        assert certify(SPECS["thm5.2"], 100_000, 7, 1e-12).violations == 0

    def test_single_sample(self):
        report = certify(SPECS["prop1.1"], 1, 42, 1e-12)
        assert report.samples == 1
        assert report.ok

    def test_deterministic(self):
        a = certify(SPECS["thm5.2"], 3000, 9, 1e-12)
        b = certify(SPECS["thm5.2"], 3000, 9, 1e-12)
        assert a == b

    def test_shards_merge_to_the_whole_range(self):
        # the stream is keyed by (seed, index), so split index ranges merged
        # with the same worst-margin / smallest-x tiebreak give the whole
        _check_shards_merge(0, 4000, [(0, 1500), (1500, 4000)])

    def test_off_grid_shards_merge_to_the_whole_range(self):
        # shard ends off the block grid start blocks at other indices
        assert 255 % _BLOCK and 513 % _BLOCK
        _check_shards_merge(0, 1000, [(0, 255), (255, 513), (513, 1000)])

    def test_lowered_beta_is_violated(self):
        # beta = 0.83 < 5/6 must fail near x -> 1
        report = certify(SPECS["prop1.1"], 20000, 42, 1e-12, beta=0.83)
        assert not report.ok
        assert report.worst_margin < 0.0
        assert report.worst_x is not None

    def test_violating_x_found_by_scan(self):
        # with beta = 0.83 the upper bound is crossed somewhere in (1, 1.1)
        spec = SPECS["prop1.1"]
        found = False
        for i in range(1, 1000):
            pair = PositivePair(1.0 + i * 1e-4, 1.0)
            if ratio(spec, pair) > 0.83:
                found = True
                break
        assert found

    @pytest.mark.parametrize("p", [0.51, 0.49])
    def test_crooked_p_is_caught(self, p):
        # beta follows p, so the beta probe sees a p that no longer fits
        crooked = SPECS["prop1.2"]._replace(p=p)
        assert not certify(crooked, 2000, 42, 1e-12).ok

    def test_raised_alpha_is_violated(self):
        sb = sharp_bounds(SPECS["thm5.2"])
        report = certify(SPECS["thm5.2"], 20000, 42, 1e-12, alpha=sb.alpha + 0.005)
        assert not report.ok

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            certify(SPECS["prop1.1"], 0, 42, 1e-12)
        with pytest.raises(DomainError):
            certify(SPECS["prop1.1"], 10, 42, 0.0)
        # A tol far above the sharp constants' rounding noise (about 2e-16)
        # would let a 1e-3 perturbation through as ok.
        for big in (math.nextafter(1e-9, 1.0), 1e-3, 0.5, 1e6):
            with pytest.raises(DomainError, match="at most"):
                certify(SPECS["prop1.1"], 10, 42, big)
        assert certify(SPECS["prop1.1"], 10, 42, 1e-9).ok
        with pytest.raises(DomainError):
            certify(SPECS["prop1.1"], 10.5, 1, 1e-12)
        with pytest.raises(DomainError):
            certify(SPECS["prop1.1"], 10, 1.5, 1e-12)
        # bool is an int subclass, but True samples is no sample count
        for n_samples, seed in ((True, 42), (10, True), (True, True), (10, False)):
            with pytest.raises(DomainError):
                certify(SPECS["prop1.1"], n_samples, seed, 1e-12)
        # Non-finite or non-numeric constants and tolerance: a NaN or an
        # infinity would make every sample pass without a real check.
        spec = SPECS["prop1.1"]
        for bad in (math.nan, math.inf, -math.inf, 10**400, "abc", [1.0]):
            for kwargs in ({"alpha": bad}, {"beta": bad}):
                with pytest.raises(DomainError):
                    certify(spec, 1000, 1, 1e-12, **kwargs)
            with pytest.raises(DomainError):
                certify(spec, 1000, 1, bad)


def _splitmix_unit(seed, index):
    """The certify stream's uniform for one (seed, index), written apart
    from the library: the splitmix64 finalizer of the 64-bit state
    seed*0x9E3779B97F4A7C15 + (index + 1)*0xD1B54A32D192ED03, over 2^64."""
    z = (seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xD1B54A32D192ED03) % 2**64
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = ((z ^ (z >> shift)) * mult) % 2**64
    return (z ^ (z >> 31)) / 2.0**64


def _reference_chunk(spec, alpha, beta, tol, seed, start, stop):
    """Reference for _certify_chunk: one scalar draw, a PositivePair, three
    eval_mean dispatches and a min of the two margins per sample."""
    span = _LN_X_HI - _LN_X_LO
    violations, worst, worst_x = 0, math.inf, None
    for i in range(start, stop):
        x = math.exp(_LN_X_LO + span * _splitmix_unit(seed, i))
        pair = PositivePair(x, 1.0)
        t = eval_mean(spec.target, pair)
        h = eval_mean(spec.hi, pair)
        lo_v = eval_mean(spec.lo, pair)
        lower = alpha * h + (1.0 - alpha) * lo_v
        upper = beta * h + (1.0 - beta) * lo_v
        margin = min((t - lower) / t, (upper - t) / t)
        if margin < worst or (margin == worst and worst_x is not None and x < worst_x):
            worst, worst_x = margin, x
        if margin < -tol:
            violations += 1
    return violations, worst, worst_x


class TestStream:
    # _units draws _BLOCK samples as lanes of one int: lengths around and
    # past one block, indices past 2^64 and seeds at the edges of 64 bits
    # check that no lane leaks into the next and that lane i is index i.
    @pytest.mark.parametrize("seed", [0, 1, 42, -7, 2**70, 2**64 - 1, -(2**64)])
    @pytest.mark.parametrize("start, stop", [
        (7, 7), (0, 1), (0, 300), (255, 513), (10**12, 10**12 + 40),
        (0, 255), (0, 256), (0, 257), (100, 612), (2**64 - 5, 2**64 + 300),
    ])
    def test_block_draw_matches_the_scalar_formula(self, seed, start, stop):
        assert _units(seed, start, stop) == [_splitmix_unit(seed, i) for i in range(start, stop)]


def _target_with_zeros(lower_zero, upper_zero):
    """A target of value 1.0 for which t - lower and upper - t are the
    given signed zeros.  In binary64, x - x is +0.0 for every finite x, so
    the two relative margins of a float target can only tie at zeros of
    one sign; this stand-in lets them tie at 0.0 and -0.0."""

    class Target(float):
        def __sub__(self, other):
            return lower_zero

        def __rsub__(self, other):
            return upper_zero

    return Target(1.0)


class TestScan:
    # hand-built blocks: t = 1, hi = 2, lo = 0 puts the lower bound at
    # 2*alpha and the upper at 2*beta, so the margins are 1 - 2*alpha and
    # 2*beta - 1, both exact for alpha and beta in [1/4, 1]
    FRESH = (0, math.inf, None)

    @pytest.mark.parametrize("xs", [[2.0, 1.5, 3.0], [3.0, 2.0, 1.5], [1.5, 3.0, 2.0]])
    def test_equal_worst_margins_keep_the_smaller_x(self, xs):
        result = _scan(xs, [1.0] * 3, [2.0] * 3, [0.0] * 3, 0.375, 0.5, 1e-12, self.FRESH)
        assert result == (0, 0.0, 1.5)

    @pytest.mark.parametrize("first, second", [(2.0, 1.5), (1.5, 2.0)])
    def test_equal_worst_margins_across_blocks(self, first, second):
        state = _scan([first], [1.0], [2.0], [0.0], 0.4375, 0.5625, 1e-12, self.FRESH)
        assert state == (0, 0.125, first)
        assert _scan([second], [1.0], [2.0], [0.0], 0.4375, 0.5625, 1e-12, state) == (0, 0.125, 1.5)

    def test_smaller_margin_wins_over_smaller_x(self):
        # margin 0.125 at x = 1.5 against margin 0.0 at x = 9, in either order
        wide, tight = (0.4375, 0.5625), (0.375, 0.5)
        state = _scan([1.5], [1.0], [2.0], [0.0], *wide, 1e-12, self.FRESH)
        assert _scan([9.0], [1.0], [2.0], [0.0], *tight, 1e-12, state) == (0, 0.0, 9.0)
        state = _scan([9.0], [1.0], [2.0], [0.0], *tight, 1e-12, self.FRESH)
        assert _scan([1.5], [1.0], [2.0], [0.0], *wide, 1e-12, state) == (0, 0.0, 9.0)

    @pytest.mark.parametrize("lower_zero, upper_zero", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_tie_keeps_the_lower_side(self, lower_zero, upper_zero):
        # min(0.0, -0.0) is 0.0 and min(-0.0, 0.0) is -0.0: the first wins
        t = _target_with_zeros(lower_zero, upper_zero)
        _, worst, _ = _scan([2.0], [t], [2.0], [0.0], 0.25, 0.75, 1e-12, self.FRESH)
        assert worst == 0.0
        assert math.copysign(1.0, worst) == math.copysign(1.0, lower_zero)

    def test_margin_of_exactly_minus_tol_is_not_a_violation(self):
        # beta = 1/2 - 2^-30 gives the upper margin -2^-29 exactly
        margin = -(2.0**-29)
        block = ([2.0], [1.0], [2.0], [0.0], 0.25, 0.5 - 2.0**-30)
        assert _scan(*block, -margin, self.FRESH) == (0, margin, 2.0)
        tol = math.nextafter(-margin, 0.0)
        assert math.nextafter(-tol, -math.inf) == margin
        assert _scan(*block, tol, self.FRESH) == (1, margin, 2.0)


class TestFusedLoop:
    @pytest.mark.parametrize("spec_id", sorted(SPECS))
    @pytest.mark.parametrize("seed", [3, 42, 20260808])
    def test_bit_identical_to_reference(self, spec_id, seed):
        spec = SPECS[spec_id]
        sb = sharp_bounds(spec)
        for alpha, beta in ((sb.alpha, sb.beta), (sb.alpha + 1e-3, sb.beta),
                            (sb.alpha, sb.beta - 1e-6)):
            fused = _certify_chunk([(spec, alpha, beta)], 1e-12, seed, 0, 3000)
            assert fused == [_reference_chunk(spec, alpha, beta, 1e-12, seed, 0, 3000)]

    @pytest.mark.parametrize("order", ["registry", "reversed"])
    @pytest.mark.parametrize("seed", [3, 42, 20260808])
    def test_shared_stream_matches_each_reference(self, order, seed):
        specs = list(SPECS.values())
        if order == "reversed":
            specs.reverse()
        checks = [(spec, sharp_bounds(spec).alpha, sharp_bounds(spec).beta) for spec in specs]
        fused = _certify_chunk(checks, 1e-12, seed, 0, 3000)
        assert fused == [_reference_chunk(*check, 1e-12, seed, 0, 3000) for check in checks]

    @pytest.mark.parametrize("perturbed_id", sorted(SPECS))
    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_checks_do_not_leak_into_each_other(self, perturbed_id, side):
        # one check on a crossed constant, the other six at the sharp ones
        checks = []
        for spec in SPECS.values():
            alpha, beta = sharp_bounds(spec).alpha, sharp_bounds(spec).beta
            if spec.id == perturbed_id:
                alpha, beta = (alpha + 1e-3, beta) if side == "alpha" else (alpha, beta - 1e-6)
            checks.append((spec, alpha, beta))
        fused = _certify_chunk(checks, 1e-12, 42, 0, 3000)
        assert fused == [_reference_chunk(*check, 1e-12, 42, 0, 3000) for check in checks]
        for (spec, _, _), (violations, _, _) in zip(checks, fused):
            if spec.id != perturbed_id:
                assert violations == 0

    def test_one_evaluator_call_per_sample_and_mean_kind(self, monkeypatch):
        # the seven checks use all eight kinds; the loop evaluates each kind
        # once per sample and builds no pair and dispatches no eval_mean
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for kind, f in list(bounds._EVALUATORS.items()):
            monkeypatch.setitem(bounds._EVALUATORS, kind, counted(kind, f))
        monkeypatch.setattr(bounds, "PositivePair", counted("PositivePair", bounds.PositivePair))
        monkeypatch.setattr(bounds, "eval_mean", counted("eval_mean", bounds.eval_mean))
        checks = [(spec, sharp_bounds(spec).alpha, sharp_bounds(spec).beta) for spec in SPECS.values()]
        n = 1000
        _certify_chunk(checks, 1e-12, 42, 0, n)
        assert len(bounds._EVALUATORS) == 8
        assert calls == Counter({kind: n for kind in bounds._EVALUATORS})
        assert sum(calls.values()) == 8 * n
        assert calls["PositivePair"] == calls["eval_mean"] == 0


class TestCertifyMany:
    @pytest.mark.parametrize("n_samples", [1, 2000])
    @pytest.mark.parametrize("seed", [3, 42, 20260808])
    def test_equals_one_certify_per_spec(self, n_samples, seed):
        specs = list(SPECS.values())
        assert certify_many(specs, n_samples, seed, 1e-12) == [
            certify(spec, n_samples, seed, 1e-12) for spec in specs
        ]

    def test_shuffled_subset(self):
        specs = [SPECS[i] for i in ("thm5.3", "prop1.2", "thm5.1", "prop1.3")]
        reports = certify_many(specs, 2000, 42, 1e-12)
        assert [r.id for r in reports] == ["thm5.3", "prop1.2", "thm5.1", "prop1.3"]
        assert reports == [certify(spec, 2000, 42, 1e-12) for spec in specs]

    def test_empty_spec_list(self):
        with pytest.raises(DomainError):
            certify_many([], 10, 42, 1e-12)

    @pytest.mark.parametrize("n_samples, seed, tol", [
        (0, 42, 1e-12), (-3, 42, 1e-12), (10.5, 42, 1e-12), (10, 1.5, 1e-12),
        (True, 42, 1e-12), (10, True, 1e-12),
        (10, 42, 0.0), (10, 42, -1e-12), (10, 42, math.nextafter(1e-9, 1.0)),
        (10, 42, 1e-3), (10, 42, math.nan), (10, 42, math.inf), (10, 42, "abc"),
    ])
    def test_argument_validation_shared_with_certify(self, n_samples, seed, tol):
        # the same check refuses both, so the messages are the same
        with pytest.raises(DomainError) as many:
            certify_many(SPECS.values(), n_samples, seed, tol)
        with pytest.raises(DomainError) as one:
            certify(SPECS["prop1.1"], n_samples, seed, tol)
        assert str(many.value) == str(one.value)


class TestEquivalence:
    def test_default_holds(self):
        assert equivalence_check()

    def test_perturbed_map_fails(self, monkeypatch):
        # the factors are read from SPECS, so a crooked p there shows
        for spec_id, p in (("prop1.2", 0.51), ("prop1.4", 0.74)):
            with monkeypatch.context() as m:
                m.setitem(SPECS, spec_id, SPECS[spec_id]._replace(p=p))
                assert not equivalence_check()
        assert equivalence_check()

    def test_exact_proportions_at_3_1(self):
        pair = PositivePair(3, 1)
        r11 = ratio(SPECS["prop1.1"], pair)
        r12 = ratio(SPECS["prop1.2"], pair)
        r14 = ratio(SPECS["prop1.4"], pair)
        assert r12 / r11 == approx(0.5, rel=1e-12)
        assert r14 / r11 == approx(0.75, rel=1e-12)


class TestConsequences:
    def test_half_a_plus_g_special_case(self):
        # (A + G)/2 < P < (2/3) A + (1/3) G
        for i in range(1, 400):
            pair = PositivePair(1.0 + i * i * 1e-3, 1.0)
            a = eval_mean(MeanKind.ARITHMETIC, pair)
            g = eval_mean(MeanKind.GEOMETRIC, pair)
            p = eval_mean(MeanKind.SEIFFERT_P, pair)
            assert 0.5 * (a + g) < p < (2.0 * a + g) / 3.0

    def test_thm51_upper_bound_is_the_centroidal_mean(self):
        for i in range(1, 400):
            pair = PositivePair(1.0 + i * i * 1e-3, 1.0)
            c = eval_mean(MeanKind.CONTRA_HARMONIC, pair)
            h = eval_mean(MeanKind.HARMONIC, pair)
            cbar = eval_mean(MeanKind.CENTROIDAL, pair)
            combo = (2.0 * c + h) / 3.0
            assert abs(combo - cbar) <= 1e-15 * cbar
