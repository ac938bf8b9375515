"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import json
import math
import random
import time

from meanbound import (
    SPECS,
    HFunctionId,
    MeanKind,
    PositivePair,
    bernoulli_table,
    certify,
    cot_series,
    csc_series,
    csc_sq_series,
    equivalence_check,
    eval_mean,
    h_eval,
    h_limit,
    numeric_extrema,
    ratio,
    seiffert_p_arctan_form,
    sharp_bounds,
)
from meanbound.cli import main

H1, H2, H3, H4 = HFunctionId.H1, HFunctionId.H2, HFunctionId.H3, HFunctionId.H4
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


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")


def test_criterion_1_sharp_constant_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["bounds-table", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    rows = {r["id"]: r for r in json.loads(out)["results"]}
    worst = 0.0
    for spec_id, (alpha, beta) in EXPECTED_CONSTANTS.items():
        worst = max(worst, abs(rows[spec_id]["alpha"] - alpha) / alpha)
        worst = max(worst, abs(rows[spec_id]["beta"] - beta) / beta)
    ok = code == 0 and len(rows) == 7 and worst <= 1e-15 and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"14 constants, worst relative error {worst:.2e}, {elapsed * 1e3:.1f} ms")
    assert code == 0
    assert len(rows) == 7
    assert worst <= 1e-15
    assert elapsed < 1.0


def test_criterion_2_independent_recovery(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for spec in SPECS.values():
        sb = sharp_bounds(spec)
        inf_v, sup_v = numeric_extrema(spec)
        worst = max(worst, abs(inf_v - sb.alpha), abs(sup_v - sb.beta))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    with capsys.disabled():
        report(2, ok, f"7 specs, worst absolute gap {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_3_certification(capsys):
    t0 = time.perf_counter()
    code = main(["certify", "--id", "all", "--samples", "100000", "--seed", "42"])
    capsys.readouterr()
    perturbed_failures = []
    for spec in SPECS.values():
        sb = sharp_bounds(spec)
        down = certify(spec, 20000, 42, 1e-12, beta=sb.beta - 0.005)
        up = certify(spec, 20000, 42, 1e-12, alpha=sb.alpha + 0.005)
        if down.violations == 0:
            perturbed_failures.append(f"{spec.id} beta-0.005 undetected")
        if up.violations == 0:
            perturbed_failures.append(f"{spec.id} alpha+0.005 undetected")
    elapsed = time.perf_counter() - t0
    ok = code == 0 and not perturbed_failures and elapsed < 30.0
    with capsys.disabled():
        report(
            3,
            ok,
            f"clean run exit {code}; 14/14 perturbations detected"
            f"{' (' + ', '.join(perturbed_failures) + ')' if perturbed_failures else ''}; "
            f"{elapsed:.1f} s",
        )
    assert code == 0
    assert not perturbed_failures
    assert elapsed < 30.0


def test_criterion_4_kernel_endpoint_values(capsys):
    cases = [
        ("h1(pi/2)", h_eval(H1, math.pi / 2), 2 / math.pi),
        ("h2(pi/4)", h_eval(H2, math.pi / 4), (4 - math.pi) / ((SQRT2 - 1) * math.pi)),
        ("h2(pi/2)", h_eval(H2, math.pi / 2), 2 / math.pi),
        ("h3(pi/4)", h_eval(H3, math.pi / 4), 2 - 4 / math.pi),
        ("h4(pi/4)", h_eval(H4, math.pi / 4),
         (math.pi - 2 * SQRT2) / (SQRT2 * math.pi - 2 * SQRT2)),
    ]
    worst = max(abs(got - want) / abs(want) for _, got, want in cases)
    ok = worst <= 1e-14
    with capsys.disabled():
        report(4, ok, f"5 endpoint values, worst relative error {worst:.2e}")
    assert worst <= 1e-14


def test_criterion_5_limit_probes(capsys):
    probes = [
        ("h1 at 0+", h_eval(H1, 1e-4), h_limit(H1, "left")),
        ("h2 at 0+", h_eval(H2, 1e-4), h_limit(H2, "left")),
        ("h3 at 0+", h_eval(H3, 1e-4), h_limit(H3, "left")),
        ("h4 at 0+", h_eval(H4, 1e-4), h_limit(H4, "left")),
        ("h4 at pi-", h_eval(H4, math.pi - 1e-4), h_limit(H4, "right")),
    ]
    failures = [(name, abs(got - want)) for name, got, want in probes if abs(got - want) > 1e-6]
    ok = not failures
    detail = "5 probes at distance 1e-4, tolerance 1e-6"
    if failures:
        detail += "; " + ", ".join(f"{name} off by {gap:.2e}" for name, gap in failures)
    with capsys.disabled():
        report(5, ok, detail)
    assert not failures, (
        "the h4 right-endpoint approach is first order, (h4(pi - eps) + 1) ~ 2*eps/pi, "
        "so at eps = 1e-4 the gap is ~6.4e-5; no correct implementation can land "
        "within 1e-6 at that distance"
    )


def test_criterion_6_monotonicity_grids(capsys):
    checks = [
        (H1, 3141, False),
        (H2, 6283, False),
        (H3, 3141, True),
        (H4, 3141, False),
    ]
    exceptions = 0
    for fn_id, n_points, increasing in checks:
        values = [h_eval(fn_id, k * 1e-3) for k in range(1, n_points + 1)]
        for a, b in zip(values, values[1:]):
            good = b > a if increasing else b < a
            exceptions += not good
    ok = exceptions == 0
    with capsys.disabled():
        report(6, ok, f"1e-3-step grids over full domains, {exceptions} exceptions")
    assert exceptions == 0


def test_criterion_7_algebraic_identity_suite(capsys):
    rng = random.Random(20250808)
    n = 100_000
    worst_identity = 0.0
    chain_breaks = 0
    for _ in range(n):
        x = math.exp(rng.uniform(math.log(1.01), math.log(1e8)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        pair = PositivePair(x * b, b)
        c = eval_mean(MeanKind.CONTRA_HARMONIC, pair)
        cbar = eval_mean(MeanKind.CENTROIDAL, pair)
        a = eval_mean(MeanKind.ARITHMETIC, pair)
        g = eval_mean(MeanKind.GEOMETRIC, pair)
        h = eval_mean(MeanKind.HARMONIC, pair)
        s = eval_mean(MeanKind.ROOT_SQUARE, pair)
        p = eval_mean(MeanKind.SEIFFERT_P, pair)
        t = eval_mean(MeanKind.SEIFFERT_T, pair)
        worst_identity = max(
            worst_identity,
            abs(c - (2 * a - h)) / c,
            abs(cbar - (2 * c + h) / 3) / cbar,
            abs(s * s - a * c) / (s * s),
            abs(g * g - a * h) / (g * g),
        )
        if not (h < g < p < a < t < cbar < c and t < s < c):
            chain_breaks += 1
    ok = worst_identity <= 1e-13 and chain_breaks == 0
    with capsys.disabled():
        report(
            7,
            ok,
            f"{n} pairs, worst identity error {worst_identity:.2e}, {chain_breaks} chain breaks",
        )
    assert worst_identity <= 1e-13
    assert chain_breaks == 0


def test_criterion_8_series_fidelity(capsys):
    worst_rel = 0.0
    for k in range(1, 158):
        for x in (k / 100.0, -k / 100.0):
            s = math.sin(x)
            worst_rel = max(worst_rel, abs(csc_series(x).value - 1 / s) / abs(1 / s))
            worst_rel = max(worst_rel, abs(csc_sq_series(x).value - 1 / s**2) / (1 / s**2))
            if abs(x) <= 1.56:  # cot crosses zero at pi/2; relative error is ill-posed there
                worst_rel = max(
                    worst_rel, abs(cot_series(x).value - math.cos(x) / s) / abs(math.cos(x) / s)
                )
    for x in (math.pi / 2, -math.pi / 2):
        s = math.sin(x)
        worst_rel = max(worst_rel, abs(csc_series(x).value - 1 / s) / abs(1 / s))
        worst_rel = max(worst_rel, abs(csc_sq_series(x).value - 1 / s**2) / (1 / s**2))

    worst_fd = 0.0
    step = 1e-5
    for x in (0.4, 0.5, 0.9, 1.2):
        fd = (cot_series(x - step).value - cot_series(x + step).value) / (2 * step)
        worst_fd = max(worst_fd, abs(csc_sq_series(x).value - fd))

    table = bernoulli_table(64)  # the signs and zeta magnitudes are checked here, not in construction
    signs_ok = all((-1) ** (n - 1) * table.b2n(n) > 0 for n in range(1, 33))
    zeta_gap = max(
        abs(table.abs_b2n_float(n) - 2 * math.factorial(2 * n) * z / (2 * math.pi) ** (2 * n))
        / table.abs_b2n_float(n)
        for n, z in ((1, math.pi**2 / 6), (2, math.pi**4 / 90), (3, math.pi**6 / 945))
    )

    ok = worst_rel <= 1e-12 and worst_fd <= 1e-8 and signs_ok and zeta_gap <= 1e-12
    with capsys.disabled():
        report(
            8,
            ok,
            f"series vs direct {worst_rel:.2e}, cot-derivative gap {worst_fd:.2e}, "
            f"signs {'ok' if signs_ok else 'BAD'}, zeta gap {zeta_gap:.2e}",
        )
    assert worst_rel <= 1e-12
    assert worst_fd <= 1e-8
    assert signs_ok
    assert zeta_gap <= 1e-12


def test_criterion_9_form_equivalence(capsys):
    ln_lo, ln_hi = math.log1p(1e-6), math.log(1e10)
    worst = 0.0
    for i in range(1000):
        x = math.exp(ln_lo + (ln_hi - ln_lo) * i / 999.0)
        pair = PositivePair(x, 1.0)
        arcsin_form = eval_mean(MeanKind.SEIFFERT_P, pair)
        arctan_form = seiffert_p_arctan_form(pair)
        worst = max(worst, abs(arctan_form - arcsin_form) / arcsin_form)
    equiv = equivalence_check()
    pair = PositivePair(3, 1)
    r11 = ratio(SPECS["prop1.1"], pair)
    prop_gap = max(
        abs(ratio(SPECS["prop1.2"], pair) / r11 - 0.5),
        abs(ratio(SPECS["prop1.4"], pair) / r11 - 0.75),
    )
    ok = worst <= 1e-13 and equiv and prop_gap <= 1e-12
    with capsys.disabled():
        report(
            9,
            ok,
            f"P-form agreement {worst:.2e} over [1+1e-6, 1e10], equivalence_check {equiv}, "
            f"proportion gap {prop_gap:.2e}",
        )
    assert worst <= 1e-13
    assert equiv
    assert prop_gap <= 1e-12
