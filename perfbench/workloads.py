"""Seeded inputs, timed loops and correctness gates of the three workloads.

Loops look up every public meanbound call through a module attribute when
they start, and each operation that is not itself a single public call
(a point query, a CLI subprocess) goes through a function of this module.
The tracer (tracing.py, installed by layers.py) wraps those attributes for
a traced run, so the traced and the untraced run execute the same loop code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import meanbound.bounds as bounds
import meanbound.kernels as kernels
import meanbound.means as means
from meanbound.errors import MeanBoundError

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

KINDS = tuple(means.MeanKind)
SPECS = tuple(bounds.SPECS.values())
SHARP = {spec.id: bounds.sharp_bounds(spec) for spec in SPECS}
FORMATS = ("text", "csv", "json")

# Sizes. A certify_all repetition is one `certify --id all` call of
# CERTIFY_SAMPLES samples (about 0.1 s on a 2-core Xeon); a point_sweep
# repetition is SWEEP_BATCH queries plus one numeric_extrema sweep; a
# cli_oneshot repetition is one cycle of the five commands.
CERTIFY_SAMPLES = 2000
SWEEP_BATCH = 100
CLI_CERTIFY_SAMPLES = 200
WARMUP_REPS = 1
MIN_REPS = WARMUP_REPS + 3
# The point_sweep set-up ends after this many queries, so that the lazy
# Bernoulli table build (first series query) always falls inside it.
SETUP_QUERIES = 16
CHILD_TIMEOUT_S = 60

# Gate tolerances fixed by the workload definitions.
KERNEL_RATIO_SLACK = 1e-12
EXTREMA_TOL = 1e-8
DISAGREE_REL = 1e-9
PERTURBATION = 1e-3


@dataclass
class Tally:
    """Public calls attempted, failed and refused, plus gate findings.

    A call fails when it raises anything but a MeanBoundError or when its
    output fails a gate; a MeanBoundError is a documented refusal.
    ``problems`` holds gate findings only: a known defect that raises
    (ratio's ZeroDivisionError) counts as failed without being one.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    raised: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def raised_error(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.raised[name] = self.raised.get(name, 0) + 1
        self.failed += 1


@dataclass
class Run:
    """What one timed loop measured: per repetition, the operations done,
    the wall seconds and the latency of each operation. Warm-up
    repetitions are already dropped.

    ``scales`` holds each repetition's hostspeed.scale, from a reference
    timed just before and just after it. ``counted`` is (attempted,
    failed) of the first ``min_reps`` repetitions, which every run makes
    whatever its length, so two runs of one seed report the same counts;
    ``tally`` covers the whole run.
    """

    reps: list[tuple[int, float, list[float]]]
    tally: Tally
    extra: dict[str, float] = field(default_factory=dict)
    counted: tuple[int, int] = (0, 0)
    scales: list[float] = field(default_factory=list)

    def end_repetition(self, reps: int, min_reps: int) -> None:
        """Book-keeping after repetition number ``reps`` (from 0) is gated."""
        if reps + 1 == min_reps:
            self.counted = (self.tally.attempted, self.tally.failed)


def _keep_measuring(start: float, seconds: float, reps: int, min_reps: int) -> bool:
    return reps < min_reps or perf_counter() - start < seconds


# ---------------------------------------------------------------------------
# inputs


def sweep_pairs(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """Point-query pairs: d = a/b - 1 log-uniform on [1e-12, 1e6], a common
    scale 10^U(-150, 150), and a and b swapped with probability 1/2."""
    pairs = []
    for _ in range(n):
        d = 10.0 ** rng.uniform(-12.0, 6.0)
        b = 10.0 ** rng.uniform(-150.0, 150.0)
        a = b * (1.0 + d)
        pairs.append((b, a) if rng.random() < 0.5 else (a, b))
    return pairs


def certify_seed(seed: int) -> int:
    return random.Random(seed).randrange(1 << 31)


def certify_argv(seed: int, samples: int = CERTIFY_SAMPLES) -> list[str]:
    return ["certify", "--id", "all", "--samples", str(samples), "--seed", str(certify_seed(seed)),
            "--format", "json"]


def cli_cycle(rng: random.Random, index: int) -> list[list[str]]:
    """One cycle of CLI argv lists; ``index`` rotates bounds-table's format.

    series comes first so the first invocation of a run builds the
    Bernoulli table; about half the hfun arguments fall below x = 1/2.
    """
    h_id = rng.choice(list(kernels.HFunctionId))
    if rng.random() < 0.5:
        x = 0.5 * (1.0 - rng.random())
    else:
        x = 0.5 + (kernels.H_INFO[h_id].domain_right - 0.5) * 0.999 * rng.random()
    a, b = sweep_pairs(rng, 1)[0]
    return [
        ["series", "--fn", rng.choice(["csc", "cot", "cscsq", "h1", "h3"]),
         "--order", str(rng.randint(1, 16)), "--format", rng.choice(FORMATS)],
        ["hfun", "--id", h_id.value, "--x", repr(x), "--format", rng.choice(FORMATS)],
        ["mean", "--kind", rng.choice([k.value for k in KINDS]), "--a", repr(a), "--b", repr(b),
         "--format", rng.choice(FORMATS)],
        ["bounds-table", "--format", FORMATS[index % len(FORMATS)]],
        ["certify", "--id", rng.choice([s.id for s in SPECS]), "--samples",
         str(CLI_CERTIFY_SAMPLES), "--seed", str(rng.randrange(1 << 31)),
         "--format", rng.choice(FORMATS)],
    ]


# ---------------------------------------------------------------------------
# one operation each


def call_main(argv: list[str]) -> tuple[int, str]:
    """meanbound.cli.main in-process, with stdout captured."""
    import meanbound.cli as cli  # point_sweep's set-up probe does not pay for the CLI

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def query(a: float, b: float, tally: Tally) -> tuple[list[float], list[float | None], list[float | None]]:
    """One point query: the pair, all eight means, and both ratio forms of
    all seven specs. Returns (means, kernel ratios, mean ratios); None marks
    a call that raised."""
    pair_new = means.PositivePair
    eval_mean = means.eval_mean
    ratio = bounds.ratio
    ratio_via_kernel = bounds.ratio_via_kernel
    tally.attempted += 1 + len(KINDS) + 2 * len(SPECS)
    try:
        pair = pair_new(a, b)
        mean_values = [eval_mean(kind, pair) for kind in KINDS]
    except MeanBoundError:
        tally.refused += 1
        return [], [], []
    except Exception as exc:  # any other exception is a failed call, counted and reported
        tally.raised_error(exc)
        return [], [], []
    kernel_ratios: list[float | None] = []
    mean_ratios: list[float | None] = []
    for spec in SPECS:
        try:
            kernel_ratios.append(ratio_via_kernel(spec, pair))
        except MeanBoundError:
            tally.refused += 1
            kernel_ratios.append(None)
        except Exception as exc:
            tally.raised_error(exc)
            kernel_ratios.append(None)
        try:
            mean_ratios.append(ratio(spec, pair))
        except MeanBoundError:
            tally.refused += 1
            mean_ratios.append(None)
        except Exception as exc:
            tally.raised_error(exc)
            mean_ratios.append(None)
    return mean_values, kernel_ratios, mean_ratios


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(cmd: list[str]) -> tuple[int, str, str]:
    """Run one fresh interpreter to completion and return (code, stdout, stderr)."""
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return done.returncode, done.stdout, done.stderr


def cli_command(argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(CHILD), "trace", *argv]
    return [sys.executable, "-m", "meanbound", *argv]


# ---------------------------------------------------------------------------
# gates: each returns the problems it found, an empty list when the output is right


def check_certify(code: int, stdout: str, first_stdout: str | None) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"certify exited {code}")
    try:
        rows = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return problems + ["certify stdout is not the JSON report"]
    if sorted(r.get("id") for r in rows) != sorted(s.id for s in SPECS):
        problems.append("certify report does not cover the seven specs")
    problems += [f"{r.get('id')}: {r.get('violations')} violations" for r in rows if r.get("violations")]
    if first_stdout is not None and stdout != first_stdout:
        problems.append("certify stdout differs between repetitions")
    return problems


def check_query(a: float, b: float, mean_values: list[float],
                kernel_ratios: list[float | None]) -> list[str]:
    lo, hi = min(a, b), max(a, b)
    problems = [
        f"{kind.value}({a!r}, {b!r}) = {v!r} outside [min, max]"
        for kind, v in zip(KINDS, mean_values)
        if not lo <= v <= hi
    ]
    for spec, r in zip(SPECS, kernel_ratios):
        if r is None:
            continue
        sb = SHARP[spec.id]
        if not min(sb.alpha, sb.beta) - KERNEL_RATIO_SLACK <= r <= max(sb.alpha, sb.beta) + KERNEL_RATIO_SLACK:
            problems.append(f"ratio_via_kernel {spec.id}({a!r}, {b!r}) = {r!r} outside [alpha, beta]")
    return problems


def check_extrema(spec_id: str, lo: float, hi: float) -> list[str]:
    sb = SHARP[spec_id]
    if abs(lo - min(sb.alpha, sb.beta)) > EXTREMA_TOL or abs(hi - max(sb.alpha, sb.beta)) > EXTREMA_TOL:
        return [f"numeric_extrema {spec_id} = ({lo!r}, {hi!r}) disagrees with sharp_bounds"]
    return []


def check_cli(argv: list[str], code: int, stdout: str, expected: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"meanbound {' '.join(argv)} exited {code}")
    if stdout != expected:
        problems.append(f"meanbound {' '.join(argv)}: stdout differs from in-process cli.main")
    return problems


def perturbed_caught(seed: int, samples: int = CERTIFY_SAMPLES) -> int:
    """Specs on which certify flags alpha + PERTURBATION; all 7 must be."""
    return sum(
        bounds.certify(spec, samples, certify_seed(seed), 1e-12, alpha=SHARP[spec.id].alpha + PERTURBATION).violations > 0
        for spec in SPECS
    )


# ---------------------------------------------------------------------------
# timed loops


def run_certify_all(seed: int, seconds: float, min_reps: int = MIN_REPS,
                    samples: int = CERTIFY_SAMPLES) -> Run:
    argv = certify_argv(seed, samples)
    ops = samples * len(SPECS)
    run = Run([], Tally())
    first = None
    reference = hostspeed.compute_s
    ref_before = reference()
    start = perf_counter()
    reps = 0
    while _keep_measuring(start, seconds, reps, min_reps):
        t0 = perf_counter()
        code, out = call_main(argv)
        dt = perf_counter() - t0
        run.tally.attempted += 1
        problems = check_certify(code, out, first)
        first = out if first is None else first
        for problem in problems[:1]:
            run.tally.fail(problem)
        ref_after = reference()
        if reps >= WARMUP_REPS:
            run.reps.append((ops, dt, [dt / ops]))
            run.scales.append(hostspeed.scale(reference, ref_before, ref_after))
        ref_before = ref_after
        run.end_repetition(reps, min_reps)
        reps += 1
    return run


def run_point_sweep(seed: int, seconds: float, min_reps: int = MIN_REPS,
                    batch: int = SWEEP_BATCH) -> Run:
    rng = random.Random(seed)
    run = Run([], Tally(), {"extrema_s": 0.0, "query_s": 0.0, "ratio_calls": 0,
                                    "ratio_disagree": 0})
    one_query = query
    numeric_extrema = bounds.numeric_extrema
    reference = hostspeed.compute_s
    ref_before = reference()
    start = perf_counter()
    reps = 0
    while _keep_measuring(start, seconds, reps, min_reps):
        pairs = sweep_pairs(rng, batch)
        lat: list[float] = []
        outputs = []
        t_rep = perf_counter()
        for a, b in pairs:
            t0 = perf_counter()
            result = one_query(a, b, run.tally)
            lat.append(perf_counter() - t0)
            outputs.append(result)
        dt = perf_counter() - t_rep

        t_ext = perf_counter()
        extrema = []
        for spec in SPECS:
            run.tally.attempted += 1
            try:
                extrema.append((spec.id, numeric_extrema(spec)))
            except MeanBoundError:
                run.tally.refused += 1
            except Exception as exc:
                run.tally.raised_error(exc)
        dt_ext = perf_counter() - t_ext

        for (a, b), (mean_values, kernel_ratios, mean_ratios) in zip(pairs, outputs):
            for problem in check_query(a, b, mean_values, kernel_ratios):
                run.tally.fail(problem)
            for r_kernel, r_mean in zip(kernel_ratios, mean_ratios):
                if r_kernel is not None and r_mean is not None:
                    run.extra["ratio_calls"] += 1
                    run.extra["ratio_disagree"] += abs(r_mean - r_kernel) > DISAGREE_REL * abs(r_kernel)
        for spec_id, (lo, hi) in extrema:
            for problem in check_extrema(spec_id, lo, hi):
                run.tally.fail(problem)
        ref_after = reference()
        if reps >= WARMUP_REPS:
            run.reps.append((batch, dt, lat))
            run.scales.append(hostspeed.scale(reference, ref_before, ref_after))
            run.extra["query_s"] += dt
            run.extra["extrema_s"] += dt_ext
        ref_before = ref_after
        run.end_repetition(reps, min_reps)
        reps += 1
    return run


def run_cli_oneshot(seed: int, seconds: float, min_reps: int = MIN_REPS,
                    traced: bool = False) -> Run:
    rng = random.Random(seed)
    run = Run([], Tally())
    run_child = invoke
    reference = hostspeed.spawn_s
    start = perf_counter()
    reps = 0
    while _keep_measuring(start, seconds, reps, min_reps):
        cycle = cli_cycle(rng, reps)
        lat = []
        results = []
        ref_before = reference()
        t_rep = perf_counter()
        for argv in cycle:
            t0 = perf_counter()
            results.append(run_child(cli_command(argv, traced)))
            lat.append(perf_counter() - t0)
        dt = perf_counter() - t_rep
        ref_after = reference()
        for argv, (code, out, _err) in zip(cycle, results):
            run.tally.attempted += 1
            expected_code, expected = call_main(argv)
            problems = check_cli(argv, code, out, expected)
            if expected_code != 0:
                problems.append(f"in-process meanbound {' '.join(argv)} exited {expected_code}")
            for problem in problems[:1]:
                run.tally.fail(problem)
        if reps >= WARMUP_REPS:
            run.reps.append((len(cycle), dt, lat))
            run.scales.append(hostspeed.scale(reference, ref_before, ref_after))
        run.end_repetition(reps, min_reps)
        reps += 1
    return run


RUNNERS = {
    "certify_all": run_certify_all,
    "point_sweep": run_point_sweep,
    "cli_oneshot": run_cli_oneshot,
}


def first_operation(workload: str, seed: int) -> None:
    """The work that ends a fresh interpreter's set-up for ``workload``."""
    if workload == "certify_all":
        code, out = call_main(certify_argv(seed, samples=1))
        problems = check_certify(code, out, None)
    elif workload == "point_sweep":
        tally = Tally()
        for a, b in sweep_pairs(random.Random(seed), SETUP_QUERIES):
            query(a, b, tally)
        problems = tally.problems
    else:
        argv = cli_cycle(random.Random(seed), 0)[0]
        code, _ = call_main(argv)
        problems = [] if code == 0 else [f"meanbound {' '.join(argv)} exited {code}"]
    if problems:
        raise RuntimeError(f"{workload} set-up operation failed: {problems[0]}")
