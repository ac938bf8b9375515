import math
from collections import Counter
from fractions import Fraction

import pytest
from pytest import approx

from meanbound import (
    H_INFO,
    SPECS,
    ConvergenceError,
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
from meanbound.bounds import (
    _BLOCK, _LANE_END, _LN_D_HI, _LN_D_LO, _M64, _PHI, _RETURNS, _SEED_MIX, _certify_chunk, _lane, _walk,
)
from meanbound.means import _ENDS, _EXCESSES

import _oracle as oracle

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

# Each mean is A*(1 + t^2*e), t = (1-r)/(1+r); the (t^0, t^2) coefficients of
# its excess e, from the Maclaurin series of sqrt(1 - t^2), sqrt(1 + t^2),
# t/asin(t) and t/atan(t); C, Cbar, A and H have only their constant.
EXCESS_T0_T2 = {
    MeanKind.GEOMETRIC: (Fraction(-1, 2), Fraction(-1, 8)),
    MeanKind.ROOT_SQUARE: (Fraction(1, 2), Fraction(-1, 8)),
    MeanKind.SEIFFERT_P: (Fraction(-1, 6), Fraction(-17, 360)),
    MeanKind.SEIFFERT_T: (Fraction(1, 3), Fraction(-4, 45)),
    MeanKind.CONTRA_HARMONIC: (Fraction(1), Fraction(0)),
    MeanKind.CENTROIDAL: (Fraction(1, 3), Fraction(0)),
    MeanKind.ARITHMETIC: (Fraction(0), Fraction(0)),
    MeanKind.HARMONIC: (Fraction(-1), Fraction(0)),
}
# beta - ratio = kappa_beta*t^2 + O(t^4)
KAPPA_BETA = {
    "prop1.1": Fraction(17, 360), "prop1.2": Fraction(17, 720), "prop1.3": Fraction(1, 90),
    "prop1.4": Fraction(17, 480), "thm5.1": Fraction(2, 45), "thm5.2": Fraction(7, 80), "thm5.3": Fraction(1, 90),
}


def _beta_and_kappa_beta(spec):
    """(beta, kappa_beta) from the excesses' t^0 and t^2 coefficients: with
    dT = e_target - e_lo and dH = e_hi - e_lo, the ratio dT/dH is
    beta - kappa_beta*t^2 + O(t^4), beta = dT_0/dH_0 and
    kappa_beta = -(dT_2 - beta*dH_2)/dH_0."""
    (t_0, t_2), (h_0, h_2), (l_0, l_2) = (EXCESS_T0_T2[kind] for kind in (spec.target, spec.hi, spec.lo))
    beta = (t_0 - l_0) / (h_0 - l_0)
    return beta, -((t_2 - l_2) - beta * (h_2 - l_2)) / (h_0 - l_0)


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
        # each printed alpha_exact, evaluated at 50 digits, rounds to the
        # alpha taken from the means; in binary64, thm5.2's pi - 2*sqrt2
        # cancels and leaves its alpha 6 ulp off
        mpmath = pytest.importorskip("mpmath")
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            with mpmath.workdps(50):
                exact = eval(sb.alpha_exact, {"__builtins__": {}, "pi": mpmath.pi, "sqrt2": mpmath.sqrt(2)})
                assert float(exact) == sb.alpha, spec.id

    def test_images_decrease_in_theta(self):
        # beta is the limit at 0+ and alpha the value at theta_right only
        # while p*h + q falls along theta
        for spec in SPECS.values():
            assert H_INFO[spec.kernel].increasing == (spec.p < 0)

    def test_closed_form_follows_the_triple(self):
        # alpha_exact is kept per (target, hi, lo), not per id: prop1.2's
        # triple and reduction under prop1.1's id print prop1.2's 1/pi, a
        # SPECS triple under a new id is accepted, and a triple outside SPECS
        # is refused even with a right reduction
        moved = SPECS["prop1.1"]._replace(hi=MeanKind.CONTRA_HARMONIC, p=0.5)
        assert sharp_bounds(moved) == sharp_bounds(SPECS["prop1.2"])
        assert sharp_bounds(moved).alpha_exact == "1/pi"
        renamed = SPECS["prop1.1"]._replace(id="prop9.9")
        assert sharp_bounds(renamed) == sharp_bounds(SPECS["prop1.1"])
        with pytest.raises(DomainError, match="no closed form is known for T between A and H"):
            sharp_bounds(SPECS["prop1.1"]._replace(target=MeanKind.SEIFFERT_T))

    def test_computed_once_per_reduction(self):
        # the constants do not depend on id, so a renamed spec adds no entry
        spec = SPECS["thm5.2"]
        first = sharp_bounds(spec)
        entries = len(bounds._SHARP)
        assert sharp_bounds(spec) == first
        assert sharp_bounds(spec._replace(id="x")) == first
        assert len(bounds._SHARP) == entries
        assert bounds._SHARP[spec[1:]] == first

    def test_id_must_be_a_str(self):
        for bad in (None, 1.1, ("prop1.1",)):
            with pytest.raises(DomainError, match="id must be a str"):
                SPECS["prop1.1"]._replace(id=bad)


def _crooked_specs():
    """The reduction of prop1.3 with p = 1.1, q = -1/15, whose beta is within
    1 ulp of the sharp 2/3 while its alpha is 7e-4 off; each spec with p
    scaled by 1 + 2^-30 or q raised by 2^-30; and thm5.3 on the tan
    substitution or on h3, which keep its exact beta 2/3 but not its alpha."""
    yield pytest.param(SPECS["prop1.3"]._replace(p=1.1, q=-1 / 15), id="prop1.3-p1.1-q-1/15")
    for spec in SPECS.values():
        yield pytest.param(spec._replace(p=spec.p * (1 + 2.0**-30)), id=f"{spec.id}-p")
        yield pytest.param(spec._replace(q=spec.q + 2.0**-30), id=f"{spec.id}-q")
    yield pytest.param(SPECS["thm5.3"]._replace(theta_sub="tan"), id="thm5.3-tan")
    yield pytest.param(SPECS["thm5.3"]._replace(kernel=HFunctionId.H3), id="thm5.3-h3")


class TestCrookedReduction:
    # the constants come from the means, so a reduction p*h + q that does
    # not reach them is refused wherever they are needed
    @pytest.mark.parametrize("crooked", _crooked_specs())
    def test_sharp_bounds_refuses(self, crooked):
        # on every call: a refusal is not stored
        for _ in range(2):
            with pytest.raises(DomainError, match=f"{crooked.id}: p\\*h"):
                sharp_bounds(crooked)
        assert crooked[1:] not in bounds._SHARP

    @pytest.mark.parametrize("changes", [{"theta_sub": "tan"}, {"kernel": HFunctionId.H3}], ids=["tan", "h3"])
    def test_the_right_beta_with_the_wrong_alpha_is_refused(self, changes):
        crooked = SPECS["thm5.3"]._replace(**changes)
        assert Fraction(crooked.p) * H_INFO[crooked.kernel].limit_at_zero + Fraction(crooked.q) == Fraction(2, 3)
        with pytest.raises(DomainError, match=r"thm5\.3: p\*h\(theta_right\) \+ q is not its alpha"):
            sharp_bounds(crooked)

    def test_an_alpha_25_ulp_off_is_refused(self):
        # beta stays exact, (1 + 2^-46)/4 - 2^-48 = 1/4, while p*h4(pi/4) + q
        # moves to 25 ulp below alpha; the gate is 16 ulp
        crooked = SPECS["thm5.2"]._replace(p=1 + 2.0**-46, q=-(2.0**-48))
        with pytest.raises(DomainError, match=r"thm5\.2: p\*h\(theta_right\) \+ q is not its alpha"):
            sharp_bounds(crooked)

    @pytest.mark.parametrize("crooked", _crooked_specs())
    def test_certify_refuses(self, crooked):
        with pytest.raises(DomainError):
            certify(crooked, 100, 42, 1e-12)
        with pytest.raises(DomainError):
            certify(crooked, 100, 42, 1e-12, alpha=0.5, beta=0.9)

    @pytest.mark.parametrize("crooked", _crooked_specs())
    def test_certify_many_refuses(self, crooked):
        others = [spec for spec in SPECS.values() if spec.id != crooked.id]
        with pytest.raises(DomainError):
            certify_many(others + [crooked], 100, 42, 1e-12)


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

    def test_prop13_rises_at_most_one_ulp_on_a_finer_grid(self):
        # the strict fall above holds on that grid only: near x = 1e12 prop1.3's
        # ratio falls by 1-5 ulp a step here, which its rounding can outweigh
        # (it rises by 1 ulp once, at x = 9.6e11)
        ln_lo, ln_hi = math.log(1.01), math.log(1e12)
        spec = SPECS["prop1.3"]
        values = [ratio(spec, PositivePair(math.exp(ln_lo + (ln_hi - ln_lo) * i / 1999.0), 1.0))
                  for i in range(2000)]
        assert all(b - a <= math.ulp(a) for a, b in zip(values, values[1:]))

    def test_rises_at_most_32_ulp_above_its_running_minimum(self):
        # a bound on the rounding that holds whatever the grid step: ratio is
        # within 16 ulp, so a falling ratio never reads more than twice that
        # above an earlier value (11 ulp at most, for thm5.2), from near a == b
        # to far past the alpha end, x = 1 + d with d log-spaced like certify's
        ln_lo, ln_hi = math.log(2.0**-40), math.log(1e300)
        xs = [1.0 + math.exp(ln_lo + (ln_hi - ln_lo) * i / 19999.0) for i in range(20000)]
        for spec in SPECS.values():
            lowest, worst = math.inf, 0.0
            for x in xs:
                value = ratio(spec, PositivePair(x, 1.0))
                lowest = min(lowest, value)
                worst = max(worst, (value - lowest) / math.ulp(lowest))
            assert worst <= 32, spec.id

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
        # with d = a/b - 1 from 1e-12 to 1e300 (worst 5.6e-16 past 3.7e15),
        # and on pairs whose min/max underflows to 0
        mpmath = pytest.importorskip("mpmath")
        ln_lo, ln_hi = math.log(1e-12), math.log(1e300)
        pairs = [(1.0 + math.exp(ln_lo + (ln_hi - ln_lo) * i / 199.0), 1.0) for i in range(200)]
        pairs += [(1e300, 1e-300), (1.7e308, 5e-324), (2.0, 5e-324), (1e20, 1e-310)]
        worst = 0.0
        with mpmath.workdps(60):
            for pair in pairs:
                for a, b in (pair, pair[::-1]):
                    means = oracle.means(a, b)
                    for spec in SPECS.values():
                        ref = oracle.ratio(spec, means)
                        got = ratio_via_kernel(spec, PositivePair(a, b))
                        worst = max(worst, float(abs(got - ref) / abs(ref)))
        assert worst <= 4e-15

    def test_a_kernel_ratio_that_overflows_is_refused(self):
        # p and q are finite, but p*h + q is not: 1e308*(0.83 + 1) > 1.8e308
        spec = SPECS["prop1.1"]._replace(p=1e308, q=1e308)
        with pytest.raises(DomainError, match=r"prop1\.1: p\*h\(theta\) \+ q = inf is not finite at theta=0\.33983"):
            ratio_via_kernel(spec, PositivePair(2.0, 1.0))

    def test_only_a_equal_b_is_refused_and_the_error_names_the_spec(self):
        # hi - lo used to round to 0 here, and thm5.2 refused; the excesses
        # cancel nothing, so only a == b is 0/0
        for spec in SPECS.values():
            beta = sharp_bounds(spec).beta
            for d in (2.0**-52, 1e-15, 1e-10, 1e-8):
                for pair in (PositivePair(1.0 + d, 1.0), PositivePair(1.0, 1.0 + d)):
                    assert ratio(spec, pair) == approx(beta, abs=1e-15)
        with pytest.raises(DegeneratePairError, match="thm5.2"):
            ratio(SPECS["thm5.2"], PositivePair(1.0, 1.0))

    @pytest.mark.parametrize("spec_id", list(SPECS))
    def test_beta_end_follows_the_excesses_t2_terms(self, spec_id):
        # an oracle free of mpmath: beta and kappa_beta from the excesses'
        # series, against ratio at d = 1e-3, where O(t^4) is about 1.5e-7 of
        # kappa_beta*t^2
        spec = SPECS[spec_id]
        beta, kappa = _beta_and_kappa_beta(spec)
        assert str(beta) == sharp_bounds(spec).beta_exact
        assert kappa == KAPPA_BETA[spec_id]
        x = 1.0 + 1e-3
        t = (x - 1.0) / (x + 1.0)
        assert (float(beta) - ratio(spec, PositivePair(x, 1.0))) / (t * t) == approx(float(kappa), rel=1e-6)

    def test_against_mpmath_per_decade(self):
        # the ratio of the means at 100 digits, on exact binary64 pairs with
        # d = a/b - 1 three per decade from 2^-52 to 1e300 and on the mean
        # oracle's whole-domain pairs, subnormal r and r == 0 among them;
        # swapping a and b leaves every bit of ratio alone.  Worst measured
        # 8 ulp here, 8.45 against the unrounded ratio (thm5.2 at a/b = 1.0000283)
        mpmath = pytest.importorskip("mpmath")
        ln_lo, ln_hi = math.log(2.0**-52), math.log(1e300)
        pairs = [PositivePair(1.0 + math.exp(ln_lo + (ln_hi - ln_lo) * i / 959), 1.0) for i in range(960)]
        worst = 0.0
        with mpmath.workdps(100):
            for pair in pairs + oracle.pairs():
                means = oracle.means(pair.a, pair.b)
                for spec in SPECS.values():
                    got = ratio(spec, pair)
                    assert got == ratio(spec, PositivePair(pair.b, pair.a)), (spec.id, pair)
                    ref = float(oracle.ratio(spec, means))
                    worst = max(worst, abs(got - ref) / math.ulp(ref))
        assert worst <= 16.0

    def test_ratio_range_past_binary64_gives_alpha(self):
        # min/max underflows to 0 (or below the normal range): t is 1 and the
        # ratio is its limit alpha, not a refusal
        for spec in SPECS.values():
            alpha = sharp_bounds(spec).alpha
            for pair in (PositivePair(1e300, 1e-300), PositivePair(1e-300, 1e300), PositivePair(1e300, 1e-10)):
                assert ratio(spec, pair) == approx(alpha, abs=1e-15)

    @pytest.mark.parametrize("changes", [
        {"hi": MeanKind.HARMONIC},  # hi == lo
        {"target": MeanKind.ROOT_SQUARE, "hi": MeanKind.GEOMETRIC},  # e_G rounds to -1 = e_H far out
    ], ids=["hi-is-lo", "G-meets-H"])
    def test_a_vanishing_hi_minus_lo_is_a_domain_error(self, changes):
        # only specs outside SPECS can make e_hi - e_lo round to 0, and certify
        # refuses those by their triple before any end quotient is taken
        spec = SPECS["prop1.1"]._replace(**changes)
        with pytest.raises(DegeneratePairError, match="hi - lo rounds to 0"):
            ratio(spec, PositivePair(1e300, 1.0))
        with pytest.raises(DomainError, match="no closed form"):
            certify(spec, 1000, 42, 1e-12)

    def test_excess_route_is_the_mean_route_where_well_conditioned(self):
        # (P; A, H) and (T; S, A) from eval_mean at d >= 1, where hi - lo
        # is at least 5% of the means and their quotient loses a few bits
        for spec in (SPECS["prop1.1"], SPECS["prop1.3"]):
            for d in (1.0, 3.0, 10.0, 1e3, 1e6, 1e12):
                pair = PositivePair(1.0 + d, 1.0)
                t, hi, lo = (eval_mean(kind, pair) for kind in (spec.target, spec.hi, spec.lo))
                assert ratio(spec, pair) == approx((t - lo) / (hi - lo), rel=1e-13)


def _bump(fn_id, x):
    # h1 falls from 5/6 to 2/pi on (0, pi/2); a narrow bump near 0.8
    # rises faster than h1 falls but stays inside (2/pi, 5/6), so no
    # interior value beats an end value and only the scan sees it
    return 0.02 * math.exp(-(((x - 0.8) / 0.03) ** 2))


def _wrap_h_eval(monkeypatch, shift):
    """Make bounds.h_eval return h(x) + shift(fn_id, x)."""
    monkeypatch.setattr(bounds, "h_eval", lambda fn_id, x: h_eval(fn_id, x) + shift(fn_id, x))


class TestNumericExtrema:
    def test_recovers_sharp_constants(self):
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            inf_v, sup_v = numeric_extrema(spec)
            assert abs(inf_v - sb.alpha) <= 2.5e-16, spec.id
            assert abs(sup_v - sb.beta) <= math.ulp(sb.beta), spec.id

    def test_ordering(self):
        for spec in SPECS.values():
            inf_v, sup_v = numeric_extrema(spec)
            assert inf_v < sup_v

    @pytest.mark.parametrize("spec_id", sorted(SPECS))
    def test_kernel_call_budget(self, monkeypatch, spec_id):
        calls = []

        def count(fn_id, x):
            calls.append(x)
            return 0.0

        _wrap_h_eval(monkeypatch, count)
        numeric_extrema(SPECS[spec_id])
        assert len(calls) <= 66

    @pytest.mark.parametrize("spec_id", sorted(SPECS))
    def test_the_limit_probes_have_settled(self, spec_id):
        # the settle gate allows 4 ulp between theta = 2^-27 and 2^-26; the
        # ratio moves by at most 1 ulp per halving from 2^-26 down to 2^-44
        spec = SPECS[spec_id]
        values = [spec.p * h_eval(spec.kernel, 2.0**-k) + spec.q for k in range(26, 45)]
        for coarse, fine in zip(values, values[1:]):
            assert abs(coarse - fine) <= math.ulp(fine)

    def test_the_bump_stays_between_the_end_values(self):
        bumped = [h_eval(HFunctionId.H1, x) + _bump(HFunctionId.H1, x) for x in (0.7, 0.75, 0.8, 0.85, 0.9)]
        assert bumped[2] > bumped[0] and 2 / math.pi < max(bumped) < 5 / 6

    @pytest.mark.parametrize("shift", [
        _bump,
        # a NaN on the scan grid: it compares False both ways
        lambda fn_id, x: math.nan if x == SPECS["prop1.1"].theta_right * 36 / 64 else 0.0,
        # h1 at 36/64 of the grid 1e-12 above its value at 35/64
        lambda fn_id, x: h_eval(fn_id, x * 35 / 36) - h_eval(fn_id, x) + 1e-12
        if x == SPECS["prop1.1"].theta_right * 36 / 64 else 0.0,
    ], ids=["gaussian-bump", "nan-at-36/64", "rise-of-1e-12-at-36/64"])
    def test_interior_bump_between_the_ends_is_caught(self, monkeypatch, shift):
        _wrap_h_eval(monkeypatch, shift)
        with pytest.raises(ConvergenceError, match=r"prop1\.1: the ratio is not decreasing"):
            numeric_extrema(SPECS["prop1.1"])

    @pytest.mark.parametrize("spec_id", [i for i, s in SPECS.items() if s.kernel is HFunctionId.H1])
    def test_wrong_monotonicity_direction_is_caught(self, monkeypatch, spec_id):
        monkeypatch.setitem(H_INFO, HFunctionId.H1, H_INFO[HFunctionId.H1]._replace(increasing=True))
        with pytest.raises(ConvergenceError, match=f"{spec_id}: the ratio is not increasing"):
            numeric_extrema(SPECS[spec_id])

    @pytest.mark.parametrize("shift", [
        # +-1e-6, alternating in sign over the probes theta = 2^-27 and 2^-26
        lambda fn_id, x: 0.0 if x >= 0.1 else 1e-6 if math.frexp(x)[1] % 2 else -1e-6,
        # a bias that keeps the ratio decreasing, so only the limit can show it
        lambda fn_id, x: -1e-3 * math.sqrt(x),
        # a NaN at the probe read as the limit makes the gap NaN
        lambda fn_id, x: math.nan if x == 2.0**-27 else 0.0,
    ], ids=["alternating-1e-6", "monotone-sqrt-bias", "nan-at-2^-27"])
    def test_unsettled_limit_at_zero_is_caught(self, monkeypatch, shift):
        _wrap_h_eval(monkeypatch, shift)
        with pytest.raises(ConvergenceError, match=r"prop1\.1: the limit at 0\+ did not settle"):
            numeric_extrema(SPECS["prop1.1"])

    @pytest.mark.parametrize("field, extrema", [
        ("p", (6.366197723675814e+307, 8.333333333333334e+307)),  # 1e308 times (2/pi, 5/6)
        ("q", (1e308, 1e308)),  # h is under half an ulp of 1e308
    ], ids=["p", "q"])
    def test_a_large_coefficient_gives_finite_extrema(self, field, extrema):
        assert numeric_extrema(SPECS["prop1.1"]._replace(**{field: 1e308})) == extrema

    def test_an_overflowing_ratio_is_a_domain_error(self):
        # both at 1e308 the ratio overflows at the first probe, theta = 2^-27;
        # the limit did settle, so this is not a ConvergenceError
        spec = SPECS["prop1.1"]._replace(p=1e308, q=1e308)
        with pytest.raises(DomainError, match=r"prop1\.1: p\*h\(theta\) \+ q overflows to inf at theta=7\.45058"):
            numeric_extrema(spec)


def _rotated(seed, start):
    """The seed whose sample i is sample start + i of seed: seeds are
    rotations of one Weyl sequence, seed*_SEED_MIX + (i + 1)*_PHI mod 2^64."""
    return (seed + start * _PHI * pow(_SEED_MIX, -1, 2**64)) % 2**64


def _check_shards_merge(n_samples, cuts):
    """The run of seed 5 cut at the sample indices cuts, each shard a run of
    the seed rotated to its first index."""
    checks = [(spec, sharp_bounds(spec).alpha, sharp_bounds(spec).beta) for spec in SPECS.values()]
    whole = _certify_chunk(checks, 1e-12, 5, n_samples)
    ends = [0, *cuts, n_samples]
    shards = [_certify_chunk(checks, 1e-12, _rotated(5, i), j - i) for i, j in zip(ends, ends[1:])]
    for n, check in enumerate(checks):
        # shards in index order; a later shard's extreme wins only when
        # strictly beyond, so ties keep the earliest sample
        violations, lo, lo_x, hi, hi_x = 0, math.inf, None, -math.inf, None
        for v, shard_lo, shard_lo_x, shard_hi, shard_hi_x in (shard[n] for shard in shards):
            violations += v
            if shard_lo < lo:
                lo, lo_x = shard_lo, shard_lo_x
            if shard_hi > hi:
                hi, hi_x = shard_hi, shard_hi_x
        assert (violations, lo, lo_x, hi, hi_x) == whole[n]
        assert whole[n] == _reference_chunk(*check, 1e-12, 5, n_samples)


class TestCertify:
    def test_clean_run(self):
        report = certify(SPECS["prop1.1"], 2000, 42, 1e-12)
        assert report.ok
        assert report.violations == 0
        assert report.samples == 2000
        assert report.seed == 42
        # the samples reach both ends, so the ratio meets a sharp constant
        # to within rounding
        assert abs(report.worst_margin) <= 1e-15
        assert ratio(SPECS["prop1.1"], PositivePair(report.worst_x, 1.0)) in (
            sharp_bounds(SPECS["prop1.1"]).alpha + report.worst_margin,
            sharp_bounds(SPECS["prop1.1"]).beta - report.worst_margin,
        )
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
        _check_shards_merge(4000, [1500])

    def test_off_grid_shards_merge_to_the_whole_range(self):
        # shard ends off the block grid start blocks at other indices; the
        # middle shard crosses both block edges of the whole range
        _check_shards_merge(2 * _BLOCK + 500, [_BLOCK - 1, 2 * _BLOCK + 1])

    def test_lowered_beta_is_violated(self):
        # beta = 0.83 < 5/6 must fail near x -> 1
        report = certify(SPECS["prop1.1"], 20000, 42, 1e-12, beta=0.83)
        assert not report.ok
        assert report.worst_margin < 0.0
        assert isinstance(report.worst_x, float)

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
        # beta comes from the means, so a p that no longer reaches it is
        # refused before any sample is drawn
        crooked = SPECS["prop1.2"]._replace(p=p)
        with pytest.raises(DomainError, match=r"prop1\.2: p\*h\(0\+\) \+ q is not its beta 5/12"):
            certify(crooked, 2000, 42, 1e-12)

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


def _weyl_lane(seed, index):
    """The certify stream's 64-bit value for one (seed, index), written apart
    from the library: the Weyl sequence (seed*0xBF58476D1CE4E5B9 mod 2^64) +
    (index + 1)*0x9E3779B97F4A7C15 mod 2^64; its uniform is the value over
    2^64."""
    return (seed * 0xBF58476D1CE4E5B9 % 2**64 + (index + 1) * 0x9E3779B97F4A7C15) % 2**64


def _stream_lanes(seed, n_samples):
    """The library's 64-bit values for the seed's first samples, from _lane."""
    return [_lane(seed, i) for i in range(n_samples)]


def _reference_chunk(spec, alpha, beta, tol, seed, n_samples):
    """Reference for _certify_chunk: one scalar draw, a PositivePair and a
    ratio call per sample, folded on the ratio one sample at a time; ties
    keep the first sample."""
    span = _LN_D_HI - _LN_D_LO
    violations, lo, lo_x, hi, hi_x = 0, math.inf, None, -math.inf, None
    for i in range(n_samples):
        x = 1.0 + math.exp(_LN_D_LO + span * (_weyl_lane(seed, i) / 2.0**64))
        rho = ratio(spec, PositivePair(x, 1.0))
        if rho < lo:
            lo, lo_x = rho, x
        if rho > hi:
            hi, hi_x = rho, x
        if rho - alpha < -tol or beta - rho < -tol:
            violations += 1
    return violations, lo, lo_x, hi, hi_x


class TestStream:
    def test_a_rotated_seed_is_the_stream_moved_on(self):
        # sample i of _rotated(seed, start) is sample start + i of seed, so a
        # run over the indices start, start + 1, ... is a run of the rotated seed;
        # indices past 2^64 and seeds at the edges of 64 bits check that every
        # value is reduced mod 2^64
        for seed in (0, 5, 42, -7, 2**64 - 1, 2**70 + 3):
            for start in (1, 86, _BLOCK - 1, 10**12, 2**64 - 5, 2**70):
                rotated = _rotated(seed, start)
                assert [_lane(rotated, i) for i in range(3)] == [_weyl_lane(seed, start + i) for i in range(3)]

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 20260808, -1, -7, -(2**64), 2**64, 2**64 - 1, 2**70 + 3])
    def test_widest_gap_is_under_two_over_n(self, seed):
        # the first n values of the golden-ratio Weyl sequence cut [0, 2^64)
        # into gaps of at most 2*2^64/n, both ends of the range included
        # (measured: at most 1.89*2^64/n); any rotation, so any seed, keeps them
        def widest(lanes):
            ordered = sorted(lanes)
            return max(ordered[0], 2**64 - ordered[-1], *(b - a for a, b in zip(ordered, ordered[1:])))

        first = _stream_lanes(seed, 400)
        for n in range(2, 401):
            assert widest(first[:n]) * n <= 2 * 2**64, (seed, n)
        for n in (2000, 100_000):
            assert widest(_stream_lanes(seed, n)) * n <= 2 * 2**64, (seed, n)

    @pytest.mark.parametrize("start", [_LANE_END, _M64, 2**40, 0, 2**63, _M64 - 2**40],
                             ids=["lane-end", "M64", "2^40", "0", "2^63", "M64-2^40"])
    @pytest.mark.parametrize("first", [0, _BLOCK, 10**6])
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 2000, _BLOCK])
    def test_walk_is_the_full_draw_and_split(self, monkeypatch, start, first, size):
        # every lane, then one comparison per lane: the lanes <= _LANE_END and
        # the first lane past it in its place; the others past it are left out.
        # The block begins on the lane start (edges of both sides of _LANE_END)
        # for one seed, and anywhere for the others; at _LANE_END and, as
        # _ratio_is raises it, at _M64
        on_start = (start - (first + 1) * _PHI) * pow(_SEED_MIX, -1, 2**64) % 2**64
        assert _lane(on_start, first) == start
        for lane_end in (_LANE_END, _M64):
            monkeypatch.setattr(bounds, "_LANE_END", lane_end)
            for seed in [on_start, 0, 1, 42, -7, 2**64 - 1, 2**70 + 3]:
                lanes = [_weyl_lane(seed, first + i) for i in range(size)]
                kept = [lane for lane in lanes if lane <= lane_end]
                end = next((i for i, lane in enumerate(lanes) if lane > lane_end), size)
                if end < size:
                    kept.insert(end, lanes[end])
                assert _walk(seed, first, size) == (kept, end), (lane_end, seed)

    def test_the_first_steps_that_can_land_are_3_5_8(self):
        # exactly, on integer intervals: with d the hop g*_PHI mod 2^64 as a
        # signed integer, a lane L <= _LANE_END lands on another g samples
        # later when 0 <= L + d <= _LANE_END.  No g up to the last of
        # _RETURNS lands but theirs, listed in increasing g, and their landing
        # intervals cover [0, _LANE_END], so the first of them that lands
        # gives the next lane <= _LANE_END
        def hop(g):
            d = g * _PHI & _M64
            return d - 2**64 if d >= 2**63 else d

        steps = [g for g, _ in _RETURNS]
        assert _RETURNS == [(g, g * _PHI & _M64) for g in steps]
        assert [g for g in range(1, steps[-1] + 1) if abs(hop(g)) <= _LANE_END] == steps
        covered = 0  # [0, covered) lands
        for lo, hi in sorted((max(0, -hop(g)), min(_LANE_END, _LANE_END - hop(g))) for g in steps):
            assert lo <= covered, (lo, covered)
            covered = max(covered, hi + 1)
        assert covered == _LANE_END + 1

    def test_at_most_three_candidates_per_kept_lane(self, monkeypatch):
        # over a 100 000-sample run, each kept lane past a block's first one
        # tries steps 3, 5, 8 in turn and one of them lands
        tried = []

        class Counted(list):
            def __iter__(self):
                tried.append(0)
                for step in super().__iter__():
                    tried[-1] += 1
                    yield step

        n = 100_000
        live = sum(_weyl_lane(42, i) <= _LANE_END for i in range(n))
        monkeypatch.setattr(bounds, "_RETURNS", Counted(_RETURNS))
        kept = sum(len(_walk(42, first, min(_BLOCK, n - first))[0]) - 1 for first in range(0, n, _BLOCK))
        assert kept == live
        # a block's first sample, when kept, needs no step; no two neighbouring
        # samples are both kept
        assert live - len(range(0, n, _BLOCK)) <= len(tried) <= live
        assert sorted(Counter(tried)) == [1, 2, 3]

    def test_lanes_past_lane_end_have_ended(self):
        # certify lets one sample past _LANE_END stand for the rest of its
        # block.  The check also passes at a threshold 2^56 lanes lower (it
        # then reaches 2^57 lanes below _LANE_END) and fails at one 2^58
        # lanes lower, where r is 2^-104
        assert _moved_lanes(_LANE_END) == []
        assert _moved_lanes(_LANE_END - 2**56) == []
        assert _moved_lanes(_LANE_END - 2**58) != []

    def test_end_values_are_the_far_means(self):
        # the ended excesses are those of G, S, P and T, each the t = 1
        # excess 2*M(1, 0) - 1 to 1 ulp
        for kind, excess in _EXCESSES.items():
            if callable(excess):
                want = float(2 * _ENDS[kind][1] - 1)
                assert abs(excess(0.0) - want) <= math.ulp(want), kind


def _moved_lanes(lane_end):
    """The lanes where an excess of G, S, P or T is not its r = 0 value, among
    lane_end + 1, 2^64 - 1, 4096 lanes spread between them, the 1024 lanes
    next to lane_end and 4096 spread over the 2^56 lanes below it."""
    step = (_M64 - lane_end) // 4096
    lanes = [lane_end + 1, _M64, *range(lane_end + step, _M64, step), *range(lane_end - 511, lane_end + 513),
             *range(lane_end - 2**56, lane_end, 2**44)]
    ends = {e: e(0.0) for e in _EXCESSES.values() if callable(e)}
    span = _LN_D_HI - _LN_D_LO
    moved = []
    for lane in lanes:
        r = 1.0 / (1.0 + math.exp(_LN_D_LO + span * (lane / 2.0**64)))
        if any(e(r) != end for e, end in ends.items()):
            moved.append(lane)
    return moved


def _ratio_is(monkeypatch, rho):
    """Make prop1.3's ratio e_T/e_S the given function of r: e_S is 1.  rho
    need not end past _LANE_END, so certify keeps every lane."""
    monkeypatch.setattr(bounds, "_LANE_END", _M64)
    monkeypatch.setitem(_EXCESSES, MeanKind.ROOT_SQUARE, lambda r: 1.0)
    monkeypatch.setitem(_EXCESSES, MeanKind.SEIFFERT_T, rho)
    return SPECS["prop1.3"]


def _log_ratio(r):
    return 0.5 - math.log(r) / 2800


def _stream_xs(seed, n_samples):
    span = _LN_D_HI - _LN_D_LO
    return [1.0 + math.exp(_LN_D_LO + span * (_weyl_lane(seed, i) / 2.0**64)) for i in range(n_samples)]


class TestFold:
    # hand-made ratios through prop1.3, whose ratio is e_T/e_S
    @pytest.mark.parametrize("n", [200, _BLOCK, _BLOCK + 200])
    def test_ties_keep_the_first_sample(self, monkeypatch, n):
        # a constant ratio ties every sample, within a block and across blocks
        spec = _ratio_is(monkeypatch, lambda r: 0.5)
        report = certify(spec, n, 3, 1e-12, alpha=0.25, beta=0.875)
        assert (report.worst_margin, report.worst_x) == (0.25, _stream_xs(3, 1)[0])

    def test_smaller_ratio_wins_over_an_earlier_sample(self, monkeypatch):
        # rho = 1/2 - ln(r)/2800 lies in [1/2, 3/4] and grows with x
        spec = _ratio_is(monkeypatch, _log_ratio)
        xs = _stream_xs(11, 600)
        rhos = [_log_ratio(1.0 / x) for x in xs]
        lo_x, hi_x = xs[rhos.index(min(rhos))], xs[rhos.index(max(rhos))]
        assert xs.index(lo_x) > 0 and xs.index(hi_x) > 0
        assert certify(spec, 600, 11, 1e-12, alpha=0.375, beta=1.0).worst_x == lo_x
        assert certify(spec, 600, 11, 1e-12, alpha=0.0, beta=0.875).worst_x == hi_x

    @pytest.mark.parametrize("nudge, side", [(0, "lower"), (1, "upper")])
    def test_a_tie_between_the_sides_keeps_the_lower_side(self, monkeypatch, nudge, side):
        # rho in [1/2, 3/4], so rho -/+ 1/8 and both margins are exact
        spec = _ratio_is(monkeypatch, _log_ratio)
        xs = _stream_xs(11, 600)
        rhos = [_log_ratio(1.0 / x) for x in xs]
        lo, hi = min(rhos), max(rhos)
        alpha, beta = lo - 0.125, hi + 0.125
        assert lo - alpha == beta - hi == 0.125
        beta = math.nextafter(beta, 0.0) if nudge else beta
        report = certify(spec, 600, 11, 1e-12, alpha=alpha, beta=beta)
        assert report.worst_x == xs[rhos.index(lo if side == "lower" else hi)]
        assert report.worst_margin == (0.125 if side == "lower" else beta - hi)

    def test_margin_of_exactly_minus_tol_is_not_a_violation(self, monkeypatch):
        # rho = 1/2 against alpha = 1/2 + 2^-29 gives the margin -2^-29
        # exactly; the samples with r <= 1e-100 sit 2^-27 lower, so only they
        # violate once any does
        spec = _ratio_is(monkeypatch, lambda r: 0.5 if r > 1e-100 else 0.5 - 2.0**-27)
        lower = sum(x >= 1e100 for x in _stream_xs(5, 300))
        assert 0 < lower < 300
        margin = -(2.0**-29)
        checks = [(spec, 0.5 - margin, 0.75)]
        assert _certify_chunk(checks, -margin, 5, 300)[0][0] == lower
        tol = math.nextafter(-margin, 0.0)
        assert math.nextafter(-tol, -math.inf) == margin
        assert _certify_chunk(checks, tol, 5, 300)[0][0] == 300


class TestProbes:
    @pytest.mark.parametrize("beta_miss, alpha_miss", [
        (0.0, 0.0), (1e-5, 0.0), (0.0, 1e-2), (1e-5, 1e-2),
        # misses that gates of 1e-6 and 1e-3 would pass; each gate is 4x the
        # worst gap over SPECS
        (1e-8, 0.0), (0.0, 5e-4),
    ])
    def test_each_failed_probe_is_one_violation(self, monkeypatch, beta_miss, alpha_miss):
        # prop1.3's ratio is beta - beta_miss near a == b (the probe at x = 1 +
        # 1e-4, tolerance 8.7e-10) and alpha + alpha_miss elsewhere (x = 1e8,
        # tolerance 3.2e-4); the one sample lies well inside [0, 1]
        sb = sharp_bounds(SPECS["prop1.3"])
        spec = _ratio_is(monkeypatch, lambda r: sb.beta - beta_miss if r > 0.5 else sb.alpha + alpha_miss)
        report = certify(spec, 1, 42, 1e-12, alpha=0.0, beta=1.0)
        assert (report.beta_probe_gap, report.alpha_probe_gap) == (approx(beta_miss), approx(alpha_miss))
        assert report.worst_margin > 0.25
        assert report.violations == (beta_miss > 0) + (alpha_miss > 0)


class TestSensitivity:
    def test_sharp_constants_hold_on_ten_seeds(self):
        for seed in range(10):
            for report in certify_many(SPECS.values(), 100_000, seed, 1e-14):
                assert report.violations == 0, (seed, report)
                assert abs(report.worst_margin) <= 1e-15

    def test_shifts_of_1e_12_are_caught_on_every_spec(self):
        # both ends are sampled: beta - 1e-12 near a == b and alpha + 1e-12
        # toward a/b -> inf, on one shared pass over the stream
        checks = []
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            checks += [(spec, sb.alpha, sb.beta - 1e-12), (spec, sb.alpha + 1e-12, sb.beta)]
        results = _certify_chunk(checks, 1e-14, 42, 100_000)
        caught = [violations for violations, *_ in results]
        assert min(caught) > 1000, dict(zip(((s.id, a, b) for s, a, b in checks), caught))


class TestFusedLoop:
    @pytest.mark.parametrize("spec_id", sorted(SPECS))
    @pytest.mark.parametrize("seed", [3, 42, 20260808])
    def test_bit_identical_to_reference(self, spec_id, seed):
        spec = SPECS[spec_id]
        sb = sharp_bounds(spec)
        for alpha, beta in ((sb.alpha, sb.beta), (sb.alpha + 1e-3, sb.beta),
                            (sb.alpha, sb.beta - 1e-6)):
            fused = _certify_chunk([(spec, alpha, beta)], 1e-12, seed, 3000)
            assert fused == [_reference_chunk(spec, alpha, beta, 1e-12, seed, 3000)]

    @pytest.mark.parametrize("order", ["registry", "reversed"])
    @pytest.mark.parametrize("seed", [3, 42, 20260808])
    def test_shared_stream_matches_each_reference(self, order, seed):
        specs = list(SPECS.values())
        if order == "reversed":
            specs.reverse()
        checks = [(spec, sharp_bounds(spec).alpha, sharp_bounds(spec).beta) for spec in specs]
        fused = _certify_chunk(checks, 1e-12, seed, 3000)
        assert fused == [_reference_chunk(*check, 1e-12, seed, 3000) for check in checks]

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
        fused = _certify_chunk(checks, 1e-12, 42, 3000)
        assert fused == [_reference_chunk(*check, 1e-12, 42, 3000) for check in checks]
        for (spec, _, _), (violations, *_) in zip(checks, fused):
            assert (violations > 0) == (spec.id == perturbed_id)

    def test_four_excess_evaluations_per_live_sample(self, monkeypatch):
        # the seven checks use all eight kinds; the loop evaluates each of
        # the four varying excesses once per sample on a lane <= _LANE_END and
        # once per block for its first sample past it, which the block's other
        # such samples copy; it builds no pair and dispatches no eval_mean
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        varying = [kind for kind, e in _EXCESSES.items() if callable(e)]
        for kind in varying:
            monkeypatch.setitem(_EXCESSES, kind, counted(kind, _EXCESSES[kind]))
        monkeypatch.setattr(bounds, "PositivePair", counted("PositivePair", bounds.PositivePair))
        monkeypatch.setattr(bounds, "eval_mean", counted("eval_mean", bounds.eval_mean))
        checks = [(spec, sharp_bounds(spec).alpha, sharp_bounds(spec).beta) for spec in SPECS.values()]
        n = 2 * _BLOCK + 500  # three blocks
        lanes = _stream_lanes(42, n)
        live = sum(lane <= _LANE_END for lane in lanes)
        evaluated = live + sum(max(lanes[i:i + _BLOCK]) > _LANE_END for i in range(0, n, _BLOCK))
        assert 0 < live < evaluated < n
        _certify_chunk(checks, 1e-12, 42, n)
        assert sorted(kind.value for kind in varying) == ["G", "P", "S", "T"]
        assert calls == Counter({kind: evaluated for kind in varying})
        assert calls["PositivePair"] == calls["eval_mean"] == 0

    @pytest.mark.parametrize("start, stop, ended", [
        # the stream steps by 0.618 of the range, and the lanes <= _LANE_END
        # are its lowest 16%, so no two neighbouring samples are both on them
        (5, 6, "none"),  # one sample on a lane <= _LANE_END
        (6, 13, "all"),  # the seven samples between two such
        (0, 3000, "some"),
        (86, 300, "some"),  # sample 86 is live, but its P excess is already the end value
        (5, 7, "one"),  # one ended sample, so no copies
        (7, 7 + _BLOCK + 1, "none in the last block"),  # a one-sample block after one with copies
    ])
    def test_ended_samples_fold_like_the_reference(self, start, stop, ended):
        # seed 42's samples start, ..., stop - 1, as the run of the rotated
        # seed.  An ended sample's ratio is the end ratio; it ties with a live
        # sample that rounds to it, and the first in the stream stays.  At
        # alpha + 1e-3 every ended sample is a violation
        seed, n = _rotated(42, start), stop - start
        xs = _stream_xs(seed, n)
        flags = [lane > _LANE_END for lane in _stream_lanes(seed, n)]
        assert {"none": not any(flags), "all": all(flags), "some": any(flags) and not all(flags),
                "one": sum(flags) == 1,
                "none in the last block": sum(flags[:_BLOCK]) > 1 and not any(flags[_BLOCK:])}[ended]
        checks = []
        for spec in SPECS.values():
            sb = sharp_bounds(spec)
            checks += [(spec, sb.alpha, sb.beta), (spec, sb.alpha + 1e-3, sb.beta)]
        fused = _certify_chunk(checks, 1e-12, seed, n)
        assert fused == [_reference_chunk(*check, 1e-12, seed, n) for check in checks]
        for (spec, alpha, _), (violations, *_) in zip(checks, fused):
            assert (violations >= sum(flags)) if alpha > sharp_bounds(spec).alpha else (violations == 0)
        if start == 86:
            e_p = _EXCESSES[MeanKind.SEIFFERT_P]
            assert not flags[0] and e_p(1.0 / xs[0]) == e_p(0.0) and any(flags)
            assert fused[0][2] == xs[0]  # prop1.1's lowest ratio, shared by the ended samples after it


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

    def test_sharp_bounds_is_called_once_per_spec(self, monkeypatch):
        calls = Counter()

        def counted(spec):
            calls[spec.id] += 1
            return sharp_bounds(spec)

        monkeypatch.setattr(bounds, "sharp_bounds", counted)
        certify_many(SPECS.values(), 100, 42, 1e-12)
        assert calls == dict.fromkeys(SPECS, 1)
        for spec in SPECS.values():
            calls.clear()
            certify(spec, 100, 42, 1e-12, alpha=0.1)
            assert calls == {spec.id: 1}


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

    @pytest.mark.parametrize("spec_id", sorted(SPECS))
    def test_p_off_by_1e_13_fails(self, monkeypatch, spec_id):
        # the routes agree to 2.3e-15 on 20 000 pairs; a 1e-12 gate let this through
        spec = SPECS[spec_id]
        monkeypatch.setitem(SPECS, spec_id, spec._replace(p=spec.p * (1 + 1e-13)))
        assert not equivalence_check()

    @pytest.mark.parametrize("crooked", _crooked_specs())
    def test_crooked_reduction_fails(self, monkeypatch, crooked):
        # ratio_via_kernel follows the reduction in SPECS and ratio does not
        monkeypatch.setitem(SPECS, crooked.id, crooked)
        assert not equivalence_check()

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
