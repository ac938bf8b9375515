import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from meanbound import (
    H_INFO,
    X_SWITCH,
    DomainError,
    HFunctionId,
    bernoulli_table,
    csc_coefficients,
    cot_coefficients,
    csc_sq_coefficients,
    csc_series,
    cot_series,
    csc_sq_series,
    default_table,
    h1_coefficients,
    h3_coefficients,
    h_eval,
    h_limit,
)
from meanbound.maclaurin import _H2_DEN, _H2_NUM, _H4_DEN, _H4_NUM, _PI_LOW, _QUOT_TERMS

import _oracle as oracle
from _child import child_env

H1, H2, H3, H4 = HFunctionId.H1, HFunctionId.H2, HFunctionId.H3, HFunctionId.H4

# 60-digit reference value at an exact binary64 argument.
H4_GAP_AT_PI_MINUS_1E4 = 6.366697665319936e-05  # h4(pi - 1e-4) + 1


class TestReciprocalSineSeries:
    def test_special_points(self):
        assert csc_series(math.pi / 2).value == approx(1.0, rel=1e-14)
        assert cot_series(math.pi / 4).value == approx(1.0, rel=1e-13)
        assert csc_sq_series(math.pi / 2).value == approx(1.0, rel=1e-14)

    def test_odd_even_symmetry(self):
        assert csc_series(-0.7).value == approx(-csc_series(0.7).value, rel=1e-15)
        assert cot_series(-0.7).value == approx(-cot_series(0.7).value, rel=1e-15)
        assert csc_sq_series(-0.7).value == approx(csc_sq_series(0.7).value, rel=1e-15)

    # 1e-310 and 5e-324 have an infinite 1/x; "0.3", 1j and None are not
    # real numbers
    @pytest.mark.parametrize("bad", [0.0, math.pi, -math.pi, 3.2, 4.0, -3.5,
                                     math.nan, 1e-310, -1e-310, 5e-324, "0.3", 1j, None])
    def test_domain_errors(self, bad):
        for fn in (csc_series, cot_series, csc_sq_series):
            with pytest.raises(DomainError):
                fn(bad)

    def test_leading_term_must_be_finite(self):
        # 1/x^2 overflows below x ~ 7.5e-155, and x*x underflows to 0 at 1e-200
        for tiny in (1e-200, -1e-200, 1e-160):
            with pytest.raises(DomainError):
                csc_sq_series(tiny)
        assert csc_sq_series(1e-150).value == approx(1e300, rel=1e-15)
        assert csc_series(1e-300).value == approx(1e300, rel=1e-15)
        assert cot_series(-1e-300).value == approx(-1e300, rel=1e-15)

    def test_csc_sq_is_negated_cot_derivative(self):
        # probe points stay >= 0.4: the h^2/6 * cot''' truncation of the
        # central difference grows like x^-4 and passes 1e-8 below that
        h = 1e-5
        for x in (0.4, 0.5, 0.9, 1.2):
            fd = (cot_series(x - h).value - cot_series(x + h).value) / (2.0 * h)
            assert abs(csc_sq_series(x).value - fd) <= 1e-8

    def test_truncation_metadata(self):
        out = csc_series(0.1)
        assert 1 <= out.terms_used <= 32
        assert 0.0 <= out.truncation_bound <= 1e-18 * abs(out.value)
        near_pi = csc_series(3.0)
        assert near_pi.terms_used <= 32
        assert near_pi.truncation_bound >= 0.0

    # From x ~ 1.6 on, all 32 coefficients are used and the omitted tail
    # outgrows the last term: 10x it for csc and cot at x = 3.0, 82x for
    # cscsq at 3.1.  The tail is the exact function less the exact sum of
    # the terms used, so the float rounding of the value, which dominates
    # below x ~ 2, does not enter.  The value is within the bound plus k ulp
    # of max(1, |f(x)|), f the exact function, one k below pi/2 and one
    # from there on, each twice the worst measured on 20 000 random x (csc
    # 4.4 and 21, cot 3.5 and 21, cscsq 5.3 and 24).
    @pytest.mark.parametrize("name, series, coefficients, exact, power, ks", [
        ("csc", csc_series, csc_coefficients, lambda x: 1 / oracle.mpmath.sin(x), 1, (9, 42)),
        ("cot", cot_series, cot_coefficients, lambda x: oracle.mpmath.cot(x), 1, (7, 42)),
        ("cscsq", csc_sq_series, csc_sq_coefficients, lambda x: 1 / oracle.mpmath.sin(x) ** 2, 2, (11, 48)),
    ], ids=["csc", "cot", "cscsq"])
    def test_truncation_bound_covers_the_exact_tail(self, name, series, coefficients, exact, power, ks):
        mpmath = pytest.importorskip("mpmath")
        # at 1.535 (cot, cscsq) and 1.62 (csc) the series stops after 31 of its 32 terms
        xs = [1e-9, *(0.05 * i for i in range(1, 63)), 1.535, 1.62, -2.9, math.nextafter(math.pi, 0.0),
              *(math.pi * (1.0 - 2.0**-k) for k in range(1, 50, 4))]
        with mpmath.workdps(60):
            terms = [(p, mpmath.mpf(c.numerator) / c.denominator)
                     for p, c in coefficients(32)]
            for x in xs:
                out = series(x)
                mx = mpmath.mpf(x)
                f = exact(mx)
                tail = abs(f - 1 / mx**power - sum(c * mx**p for p, c in terms[:out.terms_used]))
                # tight to the rounding of the bound's own arithmetic
                assert tail <= out.truncation_bound * (1 + 1e-13), (x, out)
                assert out.truncation_bound <= 1.5 * tail, (x, out)
                if out.terms_used == 32:  # capped: measured within 3e-15 of the tail
                    assert out.truncation_bound <= tail * (1 + 1e-13), (x, out)
                k = ks[abs(x) >= math.pi / 2]
                assert abs(out.value - f) <= out.truncation_bound + k * math.ulp(max(1.0, abs(float(f)))), (x, out)


class TestCoefficients:
    def test_h1_leading_terms(self):
        assert h1_coefficients(3) == [
            (0, Fraction(5, 6)),
            (2, Fraction(-17, 360)),
            (4, Fraction(-43, 5040)),
        ]

    def test_h3_leading_terms(self):
        assert h3_coefficients(3) == [
            (0, Fraction(2, 3)),
            (2, Fraction(4, 45)),
            (4, Fraction(4, 315)),
        ]

    def test_reciprocal_sine_leading_terms(self):
        assert csc_coefficients(2) == [(1, Fraction(1, 6)), (3, Fraction(7, 360))]
        assert cot_coefficients(2) == [(1, Fraction(-1, 3)), (3, Fraction(-1, 45))]
        assert csc_sq_coefficients(2) == [(0, Fraction(1, 3)), (2, Fraction(1, 15))]

    def test_sign_structure(self):
        # every raw h1 coefficient is negative, every h3 coefficient positive
        table = bernoulli_table(64)
        for n in range(1, 33):
            assert ((1 - n) * 2 ** (2 * n + 1) - 2) * table.abs_b2n(n) < 0
            assert n * 2 ** (2 * n + 1) * table.abs_b2n(n) > 0

    def test_order_validation(self):
        # 33 is past the 32 terms of the one table, refused by the order check
        # itself rather than by the table's own index check
        for fn in (csc_coefficients, cot_coefficients, csc_sq_coefficients,
                   h1_coefficients, h3_coefficients):
            for bad in (0, 33, True, False, 2.0, "2", None):
                with pytest.raises(DomainError, match=re.escape(f"order must be an integer in [1, 32], got {bad!r}")):
                    fn(bad)

    def test_all_five_match_an_independent_expansion(self):
        # Each series from the Taylor series of sin and cos by exact power
        # series division, in w = x^2 with S = sin(x)/x and C = cos(x); no
        # Bernoulli number is used.
        order = 32
        terms = order + 2

        def mul(a, b):
            return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(terms)]

        def div(a, b):
            q = []
            for k in range(terms):
                q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])
            return q

        S = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(terms)]
        C = [Fraction((-1) ** k, math.factorial(2 * k)) for k in range(terms)]
        one = [Fraction(1)] + [Fraction(0)] * (terms - 1)
        S2 = mul(S, S)
        # x/sin x, x cot x and x^2/sin^2 x: drop the constant 1 (the pole)
        csc = div(one, S)[1:order + 1]
        cot = div(C, S)[1:order + 1]
        csc_sq = div(one, S2)[1:order + 1]
        # h1 = (S - C^2)/(w S^2) and h3 = (1 - S C)/(w S^2); both numerators
        # vanish at w = 0, so dividing by w drops their constant term
        h1 = div([a - b for a, b in zip(S, mul(C, C))][1:] + [0], S2)[:order]
        h3 = div([a - b for a, b in zip(one, mul(S, C))][1:] + [0], S2)[:order]

        odd = [2 * n - 1 for n in range(1, order + 1)]
        even = [2 * n - 2 for n in range(1, order + 1)]
        assert csc_coefficients(order) == list(zip(odd, csc))
        assert cot_coefficients(order) == list(zip(odd, cot))
        assert csc_sq_coefficients(order) == list(zip(even, csc_sq))
        assert h1_coefficients(order) == list(zip(even, h1))
        assert h3_coefficients(order) == list(zip(even, h3))


class TestHEval:
    def test_h2_continuity_point(self):
        assert h_eval(H2, math.pi) == approx(0.5, rel=1e-15)

    def test_h4_value_at_half_pi(self):
        assert h_eval(H4, math.pi / 2) == approx(0.0, abs=1e-16)

    @pytest.mark.parametrize(
        "fn_id,bad",
        [
            (H1, 0.0), (H1, math.pi), (H1, 3.2), (H1, -0.5),
            (H2, 0.0), (H2, math.tau), (H2, 7.0),
            (H3, math.pi), (H4, math.pi), (H4, -1.0),
            ("h1", 0.3), (None, 0.3), (1, 0.3), ([H1], 0.3),
            (H1, "0.3"), (H2, None), (H3, 1j), (H4, [0.3]),
        ],
    )
    def test_domain_errors(self, fn_id, bad):
        with pytest.raises(DomainError):
            h_eval(fn_id, bad)

    def test_half_angle_identity(self):
        # sin x = 2 sin(x/2) cos(x/2) and 1 - cos x = 2 sin^2(x/2) give
        # h2(x) = 1 - h3(x/2)/2 on (0, 2 pi).  The points cross h2's switch at
        # X_SWITCH and h3's at 2*X_SWITCH; on 200 000 uniform points the gap was
        # at most 6.5 ulp of max(1, |h2(x)|), near x = 0.53 (h3 on its series)
        xs = [math.tau * i / 4200 for i in range(1, 4200)]
        xs += [k * X_SWITCH + j * 1e-9 for k in (1, 2) for j in range(-100, 101)]
        assert {(x < X_SWITCH, x / 2 < X_SWITCH) for x in xs} == {(True, True), (False, True), (False, False)}
        for x in xs:
            h2 = h_eval(H2, x)
            assert abs(h2 - (1.0 - h_eval(H3, x / 2) / 2)) <= 8 * math.ulp(max(1.0, abs(h2))), x

    def test_h2_defined_beyond_pi(self):
        s, c = math.sin(5.0), math.cos(5.0)
        assert h_eval(H2, 5.0) == approx((s - 5.0 * c) / (5.0 * (1.0 - c)), rel=1e-13)

    @given(x=st.floats(min_value=1e-3, max_value=3.14))
    @settings(max_examples=200, derandomize=True)
    def test_h1_below_its_limit(self, x):
        assert h_eval(H1, x) < 5.0 / 6.0

    @given(x=st.floats(min_value=1e-3, max_value=3.14))
    @settings(max_examples=200, derandomize=True)
    def test_h3_above_its_limit(self, x):
        assert h_eval(H3, x) > 2.0 / 3.0

    def test_monotone_around_switch_point(self):
        # strictness must survive the series/direct handoff at 1/2
        for fn_id in HFunctionId:
            values = [h_eval(fn_id, 0.4 + i / 1000.0) for i in range(201)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            if H_INFO[fn_id].increasing:
                assert all(d > 0 for d in diffs)
            else:
                assert all(d < 0 for d in diffs)

    @pytest.mark.parametrize("table, c", [
        (_H2_NUM, lambda k: 2 * k), (_H2_DEN, lambda k: 2 * k + 1), (_H4_NUM, lambda k: 1), (_H4_DEN, lambda k: 4**k),
    ], ids=["h2-num", "h2-den", "h4-num", "h4-den"])
    def test_quotient_tables_truncate_below_2_to_the_minus_60(self, table, c):
        # exact terms (-1)^(k+1) c(k)/(2k+1)! w^(k-1), k = 1..40, at x = X_SWITCH:
        # alternating and falling past the table, the first omitted term bounds the rest
        w = Fraction(X_SWITCH) ** 2
        coefficients = [Fraction((-1) ** (k + 1) * c(k), math.factorial(2 * k + 1)) for k in range(1, 41)]
        assert table == tuple(float(a) for a in coefficients[:_QUOT_TERMS])
        terms = [a * w**k for k, a in enumerate(coefficients)]
        assert all(u * v < 0 for u, v in zip(terms, terms[1:]))
        omitted = terms[_QUOT_TERMS:]
        assert all(abs(v) < abs(u) for u, v in zip(omitted, omitted[1:]))
        assert abs(omitted[0]) < abs(sum(terms[:_QUOT_TERMS])) / 2**60


class TestHLimit:
    def test_left_limits(self):
        assert h_limit(H1, "left") == 5 / 6
        assert h_limit(H2, "left") == 2 / 3
        assert h_limit(H3, "left") == 2 / 3
        assert h_limit(H4, "left") == 1 / 4

    def test_right_limits(self):
        assert h_limit(H1, "right") == -math.inf
        assert h_limit(H2, "right") == -math.inf
        assert h_limit(H3, "right") == math.inf
        assert h_limit(H4, "right") == -1.0

    def test_bad_endpoint(self):
        with pytest.raises(DomainError):
            h_limit(H1, "middle")
        for bad_id in ("h1", None, [H1]):
            with pytest.raises(DomainError, match="HFunctionId.H1, HFunctionId.H2"):
                h_limit(bad_id, "left")

    def test_left_probes_approach_limits(self):
        for fn_id in HFunctionId:
            assert abs(h_eval(fn_id, 1e-4) - h_limit(fn_id, "left")) <= 1e-6

    def test_h4_right_approach_rate(self):
        # h4(pi - eps) = -1 + 2 eps/pi + O(eps^2): first-order approach
        gap = h_eval(H4, math.pi - 1e-4) - h_limit(H4, "right")
        assert gap == approx(H4_GAP_AT_PI_MINUS_1E4, rel=1e-6)
        assert abs(h_eval(H4, math.pi - 1e-6) - h_limit(H4, "right")) <= 1e-6


class TestDefaultTable:
    def test_cache_clear_rebuilds_the_same_table(self):
        expected = h_eval(H1, 0.49)
        default_table.cache_clear()
        assert default_table().max_index == 64
        assert h_eval(H1, 0.49) == expected

    def test_import_leaves_table_unbuilt(self):
        # the table is built on first use; building it at import would tax every CLI call
        code = "import meanbound.cli, meanbound.kernels as k; print(k.default_table.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "0"


class TestKernelOracle:
    # worst error of h_eval against the oracle, in ulp, on the grids below
    # (Python 3.11, x86-64):
    #        series (0, 1/2)   direct [1/2, 1)   rest of the domain
    #   h1   3.0               6.5               4.0
    #   h2   1.5               11.6              4.7
    #   h3   2.6               6.4               3.3
    #   h4   2.2               16.8              2.9
    # Each bound is at most twice that.  Within 1/4 of a root of h (h1's at
    # 2.2154, h2's at 4.4934), where relative accuracy is not attainable in
    # binary64, the error is counted in ulp of max(1, |h|)
    BOUNDS = {"h1": (5, 12, 7), "h2": (3, 16, 8), "h3": (5, 12, 6), "h4": (4, 32, 5)}
    ROOTS = {"h1": 2.2154, "h2": 4.4934}

    @staticmethod
    def grid(fn_id, region):
        if region == "series":  # log-spaced from 1e-10, then evenly spaced, below 1/2
            return [10.0 ** (-10 + 9.69 * i / 400) for i in range(401)] + [0.5 * i / 400 for i in range(1, 400)]
        if region == "direct":
            return [0.5 + 0.5 * i / 800 for i in range(800)]
        right = H_INFO[fn_id].domain_right
        return [1.0 + (right - 1.0) * i / 1200 for i in range(1200)] + [right - 10.0**-k for k in range(3, 15)]

    @pytest.mark.parametrize("region", ["series", "direct", "rest"])
    @pytest.mark.parametrize("fn", ["h1", "h2", "h3", "h4"])
    def test_worst_ulp_error(self, fn, region):
        mpmath = pytest.importorskip("mpmath")
        fn_id = HFunctionId(fn)
        worst = 0.0
        for x in self.grid(fn_id, region):
            with mpmath.workdps(50):
                ref = oracle.h(fn_id, x)
                error = float(abs(h_eval(fn_id, x) - ref))
            scale = abs(float(ref))
            if abs(x - self.ROOTS.get(fn, math.inf)) < 0.25:
                scale = max(1.0, scale)
            worst = max(worst, error / math.ulp(scale))
        assert worst <= self.BOUNDS[fn][("series", "direct", "rest").index(region)], worst


class TestH2Oracle:
    # h2's direct numerator sin x - x cos x has a simple root at
    # tan x = x; relative accuracy there is not attainable in binary64
    ROOT = 4.493409457909064
    ULP_BOUND = 16.0  # away from the root; the worst measured is ~13, near x = 0.55
    NEAR_TAU_ULP_BOUND = 4.0  # within 1e-3 of 2 pi; the worst measured is ~2.2

    def test_direct_branch_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def ulp_error(x):
            with mpmath.workdps(50):
                ref = oracle.h(H2, x)
                return float(abs(h_eval(H2, x) - ref) / math.ulp(float(ref)))

        grid = [0.5 + i * (math.tau - 0.5) / 2000 for i in range(2000)]
        near_tau = [math.tau - 10.0**-k for k in range(3, 16)]
        near_tau += [math.tau - i * 1e-10 for i in range(1, 10)]
        near_tau.append(math.nextafter(math.tau, 0.0))
        assert max(ulp_error(x) for x in grid if abs(x - self.ROOT) >= 0.05) <= self.ULP_BOUND
        assert max(ulp_error(x) for x in near_tau) <= self.NEAR_TAU_ULP_BOUND


def test_pi_low_is_the_rest_of_pi():
    # the package's one typed digit string of pi: the series' tail bound, means'
    # pi/2 and pi/4 constants and proof's enclosure of pi all rest on it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        assert _PI_LOW == float(mpmath.pi - math.pi)
