"""The mutant table: small, deliberate bugs in src/meanbound, each with the
tests that must catch it.

    python tests/mutants.py

copies src/, tests/ and pyproject.toml into a temporary directory once per
worker, min(available CPUs, 4) of them, and checks that every named test
passes in one copy.  Then, for each mutant, a worker takes a copy no other
mutant holds, replaces the old text, which must occur exactly once in its
file, by the new text, runs the mutant's tests and restores the file.  A
mutant is killed when pytest exits 1 (a test failed); a collection or usage
error (exit 2 to 5), or a run past the timeout, is not a kill.  It prints
one line per mutant, in table order, and exits 1 when any mutant survives.
It writes nothing outside the temporary directory, and runs at most one
pytest child per worker at a time.

Stdlib only, and pytest does not collect it (its name does not start with
test_); test_mutant_table.py checks the table against the source in tier-1.
Before deleting a test, run the table: every mutant must still be killed.
A test named here is re-pointed to another that kills the same mutant,
never deleted with it.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # under src/meanbound
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_BE = "tests/test_bernoulli.py::"
_K = "tests/test_kernels.py::"
_M = "tests/test_means.py::"
_B = "tests/test_bounds.py::"
_C = "tests/test_cli.py::"

MUTANTS = [
    Mutant("bernoulli: the B_4 check dropped, so a wrong B_4 is refused unnamed", "bernoulli.py",
           '    if n_max >= 4 and values[1] != Fraction(-1, 30):\n'
           '        raise ArithmeticError(f"B_4 must be -1/30, recurrence produced {values[1]}")\n',
           "", (_BE + "TestConstructionChecks::test_wrong_b4_is_refused_by_its_own_check",)),
    Mutant("bernoulli: the B_2 check never fails", "bernoulli.py",
           "if values[0] != Fraction(1, 6):", "if False:",
           (_BE + "TestConstructionChecks::test_wrong_b4_is_refused_by_its_own_check",)),
    Mutant("bernoulli: zeta summed over 10 terms", "bernoulli.py",
           "_ZETA_TERMS = 100", "_ZETA_TERMS = 10", (_BE + "TestExactValues::test_leading_values",)),
    Mutant("kernels: h2 direct with 1 - cos x", "kernels.py",
           "return (s - x * c) / (x * (2.0 * h * h))", "return (s - x * c) / (x * (1.0 - c))",
           (_K + "TestH2Oracle::test_direct_branch_against_mpmath",)),
    Mutant("kernels: h4 series off by 2^-51", "kernels.py",
           "return math.cos(x) * num / den", "return math.cos(x) * num / den * (1 + 2.0**-51)",
           (_K + "TestKernelOracle::test_worst_ulp_error[h4-series]",)),
    # h2's denominator without its w^6 term: dropping its w^8 or w^9 term
    # instead moves at most one of 200 000 random x < 1/2, too few to catch
    Mutant("kernels: h2's denominator without its w^6 term", "kernels.py",
           "_quotient_sums(_H2_NUM, _H2_DEN, x)", "_quotient_sums(_H2_NUM, (*_H2_DEN[:6], 0.0, *_H2_DEN[7:]), x)",
           (_M + "TestExcesses::test_straight_line_horner_matches_the_loop_bitwise[h2]",
            _K + "TestKernelOracle::test_worst_ulp_error[h2-series]")),
    Mutant("kernels: the quotient's numerator and denominator sums swapped", "kernels.py",
           "= num\n    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = den\n",
           "= den\n    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = num\n",
           (_K + "TestKernelOracle::test_worst_ulp_error[h2-series]",
            _M + "TestExcesses::test_straight_line_horner_matches_the_loop_bitwise[h4]")),
    Mutant("kernels: h3 direct off by 2^-48", "kernels.py",
           "return (x - s * c) / (x * s * s)", "return (x - s * c) / (x * s * s) * (1 + 2.0**-48)",
           (_K + "TestKernelOracle::test_worst_ulp_error[h3-direct]",)),
    Mutant("kernels: series stop at 1e-12 of the sum", "kernels.py",
           "_REL_STOP = 1e-18", "_REL_STOP = 1e-12", (_K + "TestReciprocalSineSeries::test_truncation_metadata",)),
    Mutant("kernels: tail bound without its 1/(1 - 4^-i)", "kernels.py",
           "return term / ((1.0 - 0.25**i) * gap)", "return term / gap",
           (_K + "TestReciprocalSineSeries::test_truncation_bound_covers_the_exact_tail[csc]",)),
    Mutant("kernels: the cscsq tail bound capped from i = n_coeffs", "kernels.py",
           "        if i > n_coeffs:\n            term *= y * (2 * i - 1)",
           "        if i >= n_coeffs:\n            term *= y * (2 * i - 1)",
           (_K + "TestReciprocalSineSeries::test_truncation_bound_covers_the_exact_tail[cscsq]",)),
    Mutant("kernels: the csc and cot tail bound capped from i = n_coeffs", "kernels.py",
           "    if i > n_coeffs:  # i = 33", "    if i >= n_coeffs:  # i = 33",
           (_K + "TestReciprocalSineSeries::test_truncation_bound_covers_the_exact_tail[csc]",
            _K + "TestReciprocalSineSeries::test_truncation_bound_covers_the_exact_tail[cot]")),
    Mutant("kernels: the cscsq cap step's ratio 3% high", "kernels.py",
           "term *= y * (2 * i - 1) / (2 * i - 3)", "term *= y * (2 * i + 1) / (2 * i - 3)",
           (_K + "TestReciprocalSineSeries::test_truncation_bound_covers_the_exact_tail[cscsq]",)),
    Mutant("kernels: h1 series off by 2^-49", "kernels.py",
           '["h1"], 1.0, x * x).value', '["h1"], 1.0, x * x).value * (1 + 2.0**-49)',
           (_K + "TestKernelOracle::test_worst_ulp_error[h1-series]",)),
    Mutant("kernels: the three series' values off by 2^-48", "kernels.py",
           "return out._replace(truncation_bound=", "return out._replace(value=out.value * (1 + 2.0**-48), truncation_bound=",
           (_K + "TestReciprocalSineSeries::test_truncation_bound_covers_the_exact_tail[cot]",)),
    Mutant("kernels: h1's constant term without the standalone 1", "kernels.py",
           "out[0] = (0, out[0][1] + 1)", "out[0] = (0, out[0][1])",
           (_K + "TestCoefficients::test_h1_leading_terms",)),
    Mutant("kernels: the order check without its upper bound, so the table's own check refuses 33", "kernels.py",
           "not 1 <= order <= n_terms:", "not 1 <= order:", (_K + "TestCoefficients::test_order_validation",)),
    Mutant("kernels: h_limit's left limits one ulp high", "kernels.py",
           "        return float(info.limit_at_zero)\n", "        return math.nextafter(float(info.limit_at_zero), 1.0)\n",
           (_K + "TestHLimit::test_left_limits",)),
    Mutant("kernels: h3's limit at 0+ raised by 2^-60", "kernels.py",
           "HFunctionInfo(math.pi, True, Fraction(2, 3), math.inf)",
           "HFunctionInfo(math.pi, True, Fraction(2, 3) + Fraction(1, 2**60), math.inf)",
           (_B + "TestCrookedReduction::test_each_kernel_in_theta_starts_at_its_limit[h3]",)),
    Mutant("kernels: HFunctionId hashed by name", "kernels.py",
           "    __hash__ = object.__hash__  # an identity hash, as means.MeanKind's, for C-speed lookups\n", "",
           (_B + "TestKindKeys::test_dispatch_calls_no_enum_hash",)),
    Mutant("means: MeanKind hashed by name", "means.py",
           "    __hash__ = object.__hash__\n", "", (_B + "TestKindKeys::test_dispatch_calls_no_enum_hash",)),
    Mutant("means: P's excess times 1 + 1e-11 for t >= 0.9", "means.py",
           "return (_ONE_MINUS_HALF_PI + 2.0 * (v - r / s)) / ((_HALF_PI - 2.0 * v) * t * t)",
           "return (_ONE_MINUS_HALF_PI + 2.0 * (v - r / s)) / ((_HALF_PI - 2.0 * v) * t * t) * (1 + 1e-11)",
           (_M + "TestExcesses::test_against_mpmath",)),
    Mutant("means: P's excess times 1 - 1e-11 for t >= 0.9", "means.py",
           "return (_ONE_MINUS_HALF_PI + 2.0 * (v - r / s)) / ((_HALF_PI - 2.0 * v) * t * t)",
           "return (_ONE_MINUS_HALF_PI + 2.0 * (v - r / s)) / ((_HALF_PI - 2.0 * v) * t * t) * (1 - 1e-11)",
           (_M + "TestExcesses::test_against_mpmath",)),
    Mutant("means: P's series with its last two coefficients swapped", "means.py",
           "c0, c1, c2, c3, c4, c5, c6, c7, c8 = _SINE_GAP", "c0, c1, c2, c3, c4, c5, c6, c8, c7 = _SINE_GAP",
           (_M + "TestExcesses::test_straight_line_horner_matches_the_loop_bitwise[P]",
            _M + "TestExcesses::test_against_mpmath")),
    Mutant("means: G's excess times 1 + 1e-13 for t >= 0.99", "means.py",
           "return -(1.0 + r) / (g * g)",
           "return -(1.0 + r) / (g * g) * (1 + 1e-13 * ((1.0 - r) / (1.0 + r) >= 0.99))",
           (_M + "TestExcesses::test_against_mpmath",)),
    Mutant("means: S's excess times 1 - 1e-12 for t >= 0.3", "means.py",
           "return (1.0 + r) / (1.0 + r + math.sqrt(2.0 * (1.0 + r * r)))",
           "return (1.0 + r) / (1.0 + r + math.sqrt(2.0 * (1.0 + r * r))) * (1 - 1e-12 * ((1.0 - r) / (1.0 + r) >= 0.3))",
           (_M + "TestExcesses::test_against_mpmath",)),
    Mutant("means: T's excess times 1 + 1e-12 for t >= 0.9", "means.py",
           "return (_ONE_MINUS_QUARTER_PI + (v - 2.0 * r / s)) / ((_QUARTER_PI - v) * t * t)",
           "return (_ONE_MINUS_QUARTER_PI + (v - 2.0 * r / s)) / ((_QUARTER_PI - v) * t * t) * (1 + 1e-12)",
           (_M + "TestExcesses::test_against_mpmath",)),
    Mutant("means: 1 - pi/2 without its _PI_LOW term", "means.py",
           "1.0 - math.pi / 2 - _PI_LOW / 2", "1.0 - math.pi / 2", (_M + "TestExcesses::test_against_mpmath",)),
    Mutant("means: the excess form off by 2^-50", "means.py",
           "return a + a * t * t * excess(r)", "return (a + a * t * t * excess(r)) * (1 + 2.0**-50)",
           (_M + "TestMeanOracle::test_eval_mean_against_mpmath[C-3.6]",
            _M + "TestMeanOracle::test_eval_mean_against_mpmath[Cbar-2.8]",
            _M + "TestMeanOracle::test_eval_mean_against_mpmath[T-3.2]")),
    Mutant("means: the sin substitution's theta without its 2", "means.py",
           "math.atan2(1.0 - r, 2.0 * math.sqrt(r))", "math.atan2(1.0 - r, math.sqrt(r))",
           (_B + "TestRatio::test_kernel_route_against_mpmath",)),
    Mutant("means: r == 0 refused again", "means.py",
           "    m, r = _reduce(pair)\n    try:\n",
           '    m, r = _reduce(pair)\n    if r == 0.0:\n        raise DomainError("r underflows")\n    try:\n',
           (_M + "TestMeanOracle::test_eval_mean_against_mpmath[P-3.2]",
            _M + "TestEvalMean::test_refuses_a_ratio_beyond_the_binary64_range[MeanKind.SEIFFERT_P]")),
    Mutant("means: r one ulp low when a < b", "means.py",
           "    return b, a / b", "    return b, math.nextafter(a / b, 0.0)",
           (_M + "TestReferenceForms::test_eval_mean_matches_the_two_argument_forms_bitwise",)),
    Mutant("means: G and H from r down to the subnormal r", "means.py",
           "_SUBNORMAL_R = 2.0**-1022", "_SUBNORMAL_R = 2.0**-1074",
           (_M + "TestMeanOracle::test_eval_mean_against_mpmath[G-3.5]",)),
    Mutant("means: half_sum_ratio reaches 1.0", "means.py",
           "    if t >= 1.0:\n        t = _ONE_INSIDE", "    if t > 1.0:\n        t = _ONE_INSIDE",
           (_M + "TestReferenceForms::test_ratio_forms_match_the_two_argument_forms_bitwise",)),
    Mutant("means: P's arctan form off by 2^-50", "means.py",
           "w = (1.0 - r) / (1.0 + r + 2.0 * math.sqrt(r))",
           "w = (1.0 - r) / (1.0 + r + 2.0 * math.sqrt(r)) * (1 + 2.0**-50)",
           (_M + "TestMeanOracle::test_seiffert_p_arctan_form_against_mpmath",)),
    Mutant("proof: s^2 read as 1 + c^2", "proof.py",
           "out.get((theta, 0, c + 2), 0) - a * b", "out.get((theta, 0, c + 2), 0) + a * b",
           ("tests/test_acceptance.py::test_criterion_9_form_equivalence",
            _B + "TestEquivalence::test_perturbed_map_fails")),
    Mutant("proof: the exact check always holds", "proof.py",
           "    means = _MEANS_IN_THETA[spec.theta_sub]\n", "    return True\n",
           (_B + "TestCrookedReduction::test_the_right_beta_with_the_wrong_alpha_is_refused[tan]",)),
    Mutant("proof: the exact check holds when hi - lo vanishes", "proof.py",
           "return bool(span) and not ", "return not ", (_B + "TestEquivalence::test_a_triple_of_one_mean_fails",)),
    Mutant("proof: tan's right end at pi/2", "proof.py",
           '"tan": [(pi / 4,', '"tan": [(pi / 2,', (_B + "TestSharpBounds::test_alphas_are_correctly_rounded",)),
    Mutant("proof: alpha's rounding check skipped", "proof.py",
           "    if len(alphas) != 1:\n", "    if False:\n",
           (_B + "TestSharpBounds::test_an_enclosure_too_wide_to_round_alpha_is_refused[prop1.1]",
            _B + "TestSharpBounds::test_an_enclosure_too_wide_to_round_alpha_is_refused[thm5.2]")),
    Mutant("proof: _enclose ignoring the coefficient's sign", "proof.py",
           "return value(pos, low) + value(neg, high), value(pos, high) + value(neg, low)",
           "return value(pos, low) + value(neg, low), value(pos, high) + value(neg, high)",
           (_B + "TestSharpBounds::test_enclose_splits_each_coefficient_by_sign",)),
    Mutant("proof: pi's bracket without its half-ulp margin", "proof.py",
           "+ side * Fraction(math.ulp(_PI_LOW)) / 2", "+ 0 * Fraction(math.ulp(_PI_LOW)) / 2",
           (_B + "TestSharpBounds::test_each_alpha_is_decided_on_the_enclosures",)),
    Mutant("proof: sqrt(2)'s bracket one step low", "proof.py",
           "Fraction(math.isqrt(2 << 128) + side, 2**65)", "Fraction(math.isqrt(2 << 128) - 1 + side, 2**65)",
           (_B + "TestSharpBounds::test_each_alpha_is_decided_on_the_enclosures",)),
    Mutant("proof: beta without q", "proof.py",
           "beta = p * H_INFO[spec.kernel].limit_at_zero + q", "beta = p * H_INFO[spec.kernel].limit_at_zero",
           (_B + "TestSharpBounds::test_symbolic_forms",)),
    # a cut point one lane low or high; _CUT_5 one lane high leaves the walk's
    # output as it was (the hop of 5 from _CUT_5 + 1 lands on _LANE_END + 1,
    # and single steps reach the right lane 3 samples on), so only the exact
    # intervals see it
    Mutant("bounds: _CUT_3 one lane high", "bounds.py",
           "_CUT_3, _CUT_5 = -_HOP_3,", "_CUT_3, _CUT_5 = -_HOP_3 + 1,",
           (_B + "TestStream::test_the_first_steps_that_can_land_are_3_5_8",
            _B + "TestStream::test_a_hop_from_each_end_of_each_rule_interval[cut-3]")),
    Mutant("bounds: _CUT_3 one lane low", "bounds.py",
           "_CUT_3, _CUT_5 = -_HOP_3,", "_CUT_3, _CUT_5 = -_HOP_3 - 1,",
           (_B + "TestStream::test_the_first_steps_that_can_land_are_3_5_8",
            _B + "TestStream::test_a_hop_from_each_end_of_each_rule_interval[cut-3-1]")),
    Mutant("bounds: _CUT_5 one lane low", "bounds.py",
           "_LANE_END - _HOP_5\n", "_LANE_END - _HOP_5 - 1\n",
           (_B + "TestStream::test_the_first_steps_that_can_land_are_3_5_8",
            _B + "TestStream::test_a_hop_from_each_end_of_each_rule_interval[cut-5]",
            _B + "TestStream::test_a_later_lane_on_lane_end_is_kept[hop]")),
    Mutant("bounds: _CUT_5 one lane high", "bounds.py",
           "_LANE_END - _HOP_5\n", "_LANE_END - _HOP_5 + 1\n",
           (_B + "TestStream::test_the_first_steps_that_can_land_are_3_5_8",)),
    Mutant("bounds: sharp_bounds' store never read", "bounds.py",
           "    if key in _SHARP:\n", "    if False:\n",
           (_B + "TestSharpBounds::test_computed_once_per_reduction",)),
    Mutant("bounds: numeric_extrema returns every ratio as falling", "bounds.py",
           "return (right_end, lim_left) if decreasing else", "return (right_end, lim_left) if True else",
           (_B + "TestNumericExtrema::test_ordering",)),
    Mutant("bounds: the old beta probe gate, 1e-6", "bounds.py",
           "_BETA_PROBE_TOL = 8.7e-10", "_BETA_PROBE_TOL = 1e-6",
           (_B + "TestProbes::test_each_failed_probe_is_one_violation[1e-08-0.0]",)),
    Mutant("bounds: the old alpha probe gate, 1e-3", "bounds.py",
           "_ALPHA_PROBE_TOL = 3.2e-4", "_ALPHA_PROBE_TOL = 1e-3",
           (_B + "TestProbes::test_each_failed_probe_is_one_violation[0.0-0.0005]",)),
    Mutant("bounds: numeric_extrema's settle gate 2^40 ulp", "bounds.py",
           "_SETTLE_ULP = 4", "_SETTLE_ULP = 2**40",
           (_B + "TestNumericExtrema::test_unsettled_limit_at_zero_is_caught",)),
    Mutant("bounds: numeric_extrema's settle gate 5 ulp", "bounds.py",
           "_SETTLE_ULP = 4", "_SETTLE_ULP = 5",
           (_B + "TestNumericExtrema::test_unsettled_limit_at_zero_is_caught[5-ulp-at-2^-26]",)),
    Mutant("bounds: numeric_extrema's settle gate 3 ulp", "bounds.py",
           "_SETTLE_ULP = 4", "_SETTLE_ULP = 3", (_B + "TestNumericExtrema::test_a_gap_of_4_ulp_settles",)),
    Mutant("bounds: _LANE_END at x = 2^100", "bounds.py",
           "_LANE_END = int((math.log(2.0**120)", "_LANE_END = int((math.log(2.0**100)",
           (_B + "TestStream::test_lanes_past_lane_end_have_ended",)),
    Mutant("bounds: the copies of an ended sample not counted", "bounds.py",
           "(crossed[end] * copies if copies else 0)", "0",
           (_B + "TestFusedLoop::test_ended_samples_fold_like_the_reference",)),
    Mutant("bounds: a tie moves the worst sample on", "bounds.py",
           "if lo < lo_0:", "if lo <= lo_0:", (_B + "TestFold::test_ties_keep_the_first_sample",)),
    Mutant("bounds: a shared extreme's sample taken as its column's argmin", "bounds.py",
           "at = lambda rho: next(i for i, e in enumerate(e_t) if (e - e_l) / d == rho)",
           "at = lambda rho: e_t.index(min(e_t) if rho == lo else max(e_t))",
           (_B + "TestFusedLoop::test_shared_stream_matches_each_reference[3-registry]",
            _B + "TestFusedLoop::test_a_rounding_tie_keeps_the_first_sample_not_the_columns_minimum")),
    Mutant("bounds: the shared-extreme branch taken for e_hi != e_lo", "bounds.py",
           "and e_h > e_l:", "and e_h != e_l:",
           (_B + "TestFusedLoop::test_triples_outside_specs_fold_like_the_reference[swapped-span]",)),
    Mutant("bounds: certify ignores its alpha", "bounds.py",
           "sharp.alpha if alpha is None else float(alpha)", "sharp.alpha",
           (_B + "TestCertify::test_raised_alpha_is_violated",)),
    Mutant("bounds: a ratio at a == b not refused", "bounds.py",
           "    if r == 1.0:  # exactly when a == b\n", "    if False:\n",
           (_B + "TestRatio::test_degenerate_pair_rejected",)),
    Mutant("bounds: the lane formula a step short", "bounds.py",
           "(seed * _SEED_MIX + (index + 1) * _PHI) & _M64", "(seed * _SEED_MIX + index * _PHI) & _M64",
           (_B + "TestStream::test_walk_is_the_full_draw_and_split",)),
    Mutant("bounds: the lane formula not reduced mod 2^64", "bounds.py",
           "(seed * _SEED_MIX + (index + 1) * _PHI) & _M64", "(seed * _SEED_MIX + (index + 1) * _PHI)",
           (_B + "TestStream::test_a_rotated_seed_is_the_stream_moved_on",)),
    Mutant("bounds: the walk drops a lane on _LANE_END", "bounds.py",
           "        if lane <= _LANE_END:\n", "        if lane < _LANE_END:\n",
           (_B + "TestStream::test_a_later_lane_on_lane_end_is_kept[step]",)),
    Mutant("bounds: the walk's hop of 8 a sample short", "bounds.py",
           "i, lane = i + 8,", "i, lane = i + 7,",
           (_B + "TestStream::test_walk_is_the_full_draw_and_split[2000-0-0]",
            _B + "TestStream::test_a_hop_from_each_end_of_each_rule_interval[cut-5+1]")),
    Mutant("bounds: the walk's step not reduced mod 2^64", "bounds.py",
           "lane = (lane + _PHI) & _M64", "lane = lane + _PHI",
           (_B + "TestStream::test_walk_is_the_full_draw_and_split[2000-0-0]",)),
    Mutant("bounds: the hop of 3 without its wrap", "bounds.py",
           "(3 * _PHI & _M64) - 2**64", "(3 * _PHI & _M64)",
           (_B + "TestStream::test_the_first_steps_that_can_land_are_3_5_8",
            _B + "TestStream::test_walk_is_the_full_draw_and_split[2000-0-0]")),
    Mutant("bounds: the hop of 8 without its wrap", "bounds.py",
           "(8 * _PHI & _M64) - 2**64", "(8 * _PHI & _M64)",
           (_B + "TestStream::test_the_first_steps_that_can_land_are_3_5_8",
            _B + "TestStream::test_a_hop_from_each_end_of_each_rule_interval[cut-3-1]")),
    Mutant("bounds: the walk hops before the block's first ended lane", "bounds.py",
           "if end < size:", "if end <= size:",
           (_B + "TestStream::test_walk_is_the_full_draw_and_split[2000-0-0]",)),
    Mutant("bounds: the walk's end recorded one lane late", "bounds.py",
           "            end = len(kept)\n", "            end = len(kept) + 1\n",
           (_B + "TestStream::test_walk_is_the_full_draw_and_split[1-0-0]",)),
    Mutant("bounds: the walk runs a sample past its block", "bounds.py",
           "while i < size:", "while i <= size:",
           (_B + "TestStream::test_walk_is_the_full_draw_and_split[1-0-0]",)),
    Mutant("bounds: the monotonicity scan forgives a rise of 1e-9", "bounds.py",
           "all(later >= earlier for", "all(later >= earlier - 1e-9 for",
           (_B + "TestNumericExtrema::test_interior_bump_between_the_ends_is_caught",)),
    Mutant("cli: certify's default tol 1e-13", "cli.py",
           'parser.add_argument("--tol", type=float, default=1e-12,',
           'parser.add_argument("--tol", type=float, default=1e-13,',
           (_C + "TestCertifyCommand::test_pinned_stdout",)),
    Mutant("cli: a violated certify exits 0", "cli.py",
           "0 if all(report.ok for report in reports) else 1", "0",
           (_C + "TestPinnedTranscripts::test_pinned_violation_bytes",)),
    Mutant("cli: a closed stdout's BrokenPipeError escapes", "cli.py",
           "    except BrokenPipeError:\n", "    except ZeroDivisionError:\n",
           (_C + "TestModuleEntryPoint::test_closed_stdout_exits_quietly",)),
    Mutant("cli: an unknown attribute not refused", "cli.py",
           '    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")\n', "    pass\n",
           ("tests/test_api.py::test_unknown_attributes_are_refused[meanbound.cli]",)),
    Mutant("cli: every attribute served as bounds.certify", "cli.py",
           '    if name == "certify":\n', "    if True:\n",
           ("tests/test_api.py::test_unknown_attributes_are_refused[meanbound.cli]",)),
    Mutant("cli: series orders up to 32", "cli.py",
           "_SERIES_MAX_ORDER = 16", "_SERIES_MAX_ORDER = 32", (_C + "TestSeriesCommand::test_order_out_of_range",)),
    Mutant("cli: JSON schema version 2", "cli.py",
           "SCHEMA_VERSION = 1", "SCHEMA_VERSION = 2", (_C + "TestMeanCommand::test_json_round_trip",)),
    Mutant("__init__: __version__ left out of __all__", "__init__.py",
           '        value.append("__version__")\n', "", ("tests/test_api.py::test_public_names_are_pinned",)),
    Mutant("__init__: meanbound.cli found by searching every module", "__init__.py",
           'if name in _MODULES or name == "cli":', "if name in _MODULES:",
           (_C + "TestImportFootprint::test_only_bounds_commands_load_bounds",)),
    Mutant("__init__: an unknown attribute not refused", "__init__.py",
           '            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")\n', "            pass\n",
           ("tests/test_api.py::test_unknown_attributes_are_refused[meanbound]",)),
]


def _pytest(root: Path, tests) -> int | None:
    """pytest's exit code on the tests in the copy at root; None past the timeout."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests], cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:  # run() has killed the child
        return None


def _copy(root: Path) -> Path:
    """A private copy of src/, tests/ and pyproject.toml at root."""
    # no bytecode is copied or written, so no stale .pyc can stand in for a mutated file
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", root / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
    return root


def main() -> int:
    workers = min(len(os.sched_getaffinity(0)), 4)
    with tempfile.TemporaryDirectory() as tmp:
        copies = [_copy(Path(tmp) / str(n)) for n in range(workers)]
        code = _pytest(copies[0], sorted({test for mutant in MUTANTS for test in mutant.tests}))
        if code != 0:
            print(f"the named tests do not all pass unmutated (pytest exit {code})")
            return 1
        roots: queue.SimpleQueue[Path] = queue.SimpleQueue()  # the copies no mutant holds
        for root in copies:
            roots.put(root)

        def run(mutant: Mutant) -> tuple[int | None, str]:
            root = roots.get()
            try:
                path = root / "src" / "meanbound" / mutant.file
                text = path.read_text()
                found = text.count(mutant.old)
                if found != 1:
                    return None, f"old text found {found} times"
                path.write_text(text.replace(mutant.old, mutant.new))
                code = _pytest(root, mutant.tests)
                path.write_text(text)
                return code, f"pytest exit {code}"
            finally:
                roots.put(root)

        survivors = 0
        with ThreadPoolExecutor(workers) as pool:
            for mutant, (code, why) in zip(MUTANTS, pool.map(run, MUTANTS)):  # in table order
                if code == 1:
                    print(f"killed    {mutant.name}")
                else:
                    survivors += 1
                    print(f"SURVIVED  {mutant.name} ({why})")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
