"""Per-layer metrics of the traced run (``--trace 1``).

Two sources. ``layer_metrics`` times public calls of each module on
inputs drawn by the workloads' own generators. ``traced_metrics`` runs a
short fixed load of one workload untraced and then traced, and splits the
traced wall time into self time per layer; the difference between the two
wall times is the tracing overhead.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

import meanbound.bernoulli as bernoulli
import meanbound.bounds as bounds
import meanbound.kernels as kernels
import meanbound.means as means
from meanbound.errors import MeanBoundError

import tracing
import workloads

LAYER_PAIRS = 200
SERIES_CALLS = 200
PASSES = 3
# means' Seiffert series branch: |a - b|/(a + b) below this cutoff
SEIFFERT_CUTOFF = 1e-4
LAYERS = ("bench", "process", "cli", "bounds", "means", "kernels", "bernoulli")
SEIFFERT = (means.MeanKind.SEIFFERT_P, means.MeanKind.SEIFFERT_T)

# Repetitions in each fixed traced load.
TRACE_LOADS = {
    "certify_all": 2,
    "point_sweep": 10,
    "cli_oneshot": 1,
}


def _per_call_us(fn, arg_lists: list[tuple]) -> float:
    per_call = []
    for _ in range(PASSES):
        t0 = perf_counter()
        for args in arg_lists:
            fn(*args)
        per_call.append((perf_counter() - t0) / len(arg_lists))
    return statistics.median(per_call) * 1e6


def _median_ms(fn, *args, passes: int = PASSES) -> float:
    times = []
    for _ in range(passes):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def _theta(spec: bounds.InequalitySpec, u: float) -> float:
    # the reduction ratio_via_kernel documents: t = sin(theta) or tan(theta)
    return math.asin(u) if spec.theta_sub == "sin" else math.atan(u)


def _means_metrics(pairs: list[means.PositivePair], raw: list[tuple[float, float]]) -> dict:
    m = {"means.pair_new_us": (_per_call_us(means.PositivePair, raw), "us")}
    near = [p for p in pairs if abs(means.half_sum_ratio(p)) < SEIFFERT_CUTOFF]
    far = [p for p in pairs if abs(means.half_sum_ratio(p)) >= SEIFFERT_CUTOFF]
    for kind in workloads.KINDS:
        if kind in SEIFFERT:
            for branch, group in (("series", near), ("direct", far)):
                m[f"means.eval_mean.{kind.value}.{branch}_us"] = (
                    _per_call_us(means.eval_mean, [(kind, p) for p in group]), "us")
        else:
            m[f"means.eval_mean.{kind.value}_us"] = (
                _per_call_us(means.eval_mean, [(kind, p) for p in pairs]), "us")
    m["means.half_sum_ratio_us"] = (_per_call_us(means.half_sum_ratio, [(p,) for p in pairs]), "us")
    m["means.seiffert_series_share"] = (len(near) / len(pairs), "share")
    return m


def _kernels_metrics(pairs: list[means.PositivePair]) -> dict:
    groups: dict[tuple[kernels.HFunctionId, str], list[float]] = {
        (h, branch): [] for h in kernels.HFunctionId for branch in ("series", "direct")
    }
    for spec in workloads.SPECS:
        for p in pairs:
            theta = _theta(spec, abs(means.half_sum_ratio(p)))
            groups[spec.kernel, "series" if theta < kernels.X_SWITCH else "direct"].append(theta)
    m = {
        f"kernels.h_eval.{h.value}.{branch}_us": (_per_call_us(kernels.h_eval, [(h, x) for x in xs]), "us")
        for (h, branch), xs in groups.items()
    }
    series_x = [x for (_, branch), xs in groups.items() if branch == "series" for x in xs]
    calls = [(x,) for x in series_x[:SERIES_CALLS]]
    m["kernels.csc_series_us"] = (_per_call_us(kernels.csc_series, calls), "us")
    m["kernels.cot_series_us"] = (_per_call_us(kernels.cot_series, calls), "us")
    m["kernels.csc_sq_series_us"] = (_per_call_us(kernels.csc_sq_series, calls), "us")
    m["kernels.default_table_us"] = (_per_call_us(kernels.default_table, [()] * 1000), "us")
    m["kernels.series_share"] = (len(series_x) / (len(pairs) * len(workloads.SPECS)), "share")
    return m


def _bounds_metrics(seed: int, pairs: list[means.PositivePair]) -> dict:
    n = workloads.CERTIFY_SAMPLES
    m = {}
    for spec in workloads.SPECS:
        ms = _median_ms(bounds.certify, spec, n, workloads.certify_seed(seed), 1e-12)
        m[f"bounds.certify.{spec.id}.sample_us"] = (ms * 1e3 / n, "us")
    for spec in workloads.SPECS:
        m[f"bounds.numeric_extrema.{spec.id}_ms"] = (_median_ms(bounds.numeric_extrema, spec), "ms")

    failed = disagree = 0
    for p in pairs:
        for spec in workloads.SPECS:
            try:
                r = bounds.ratio(spec, p)
            except MeanBoundError:
                continue
            except Exception:  # ratio's bare ZeroDivisionError near a == b is a failure
                failed += 1
                continue
            k = bounds.ratio_via_kernel(spec, p)
            disagree += abs(r - k) > workloads.DISAGREE_REL * abs(k)
    m["bounds.ratio_us"] = (_per_call_us(_ratio_or_none, [(s, p) for s in workloads.SPECS for p in pairs]), "us")
    for h in kernels.HFunctionId:
        args = [(s, p) for s in workloads.SPECS if s.kernel is h for p in pairs]
        m[f"bounds.ratio_via_kernel.{h.value}_us"] = (_per_call_us(bounds.ratio_via_kernel, args), "us")
    m["bounds.ratio.failed"] = (failed, "count")
    m["bounds.ratio.disagree"] = (disagree, "count")
    m["bounds.ratio.calls"] = (len(pairs) * len(workloads.SPECS), "count")
    m["bounds.certify.perturbed_caught"] = (workloads.perturbed_caught(seed), "count")
    return m


def _ratio_or_none(spec, pair):
    try:
        return bounds.ratio(spec, pair)
    except Exception:  # counted in bounds.ratio.failed; here only the time matters
        return None


def _cli_metrics(seed: int) -> dict:
    m = {}
    for argv in workloads.cli_cycle(random.Random(seed), 0):
        workloads.call_main(argv)  # warm
        m[f"cli.main.{argv[0]}_ms"] = (_median_ms(workloads.call_main, argv, passes=5), "ms")
    return m


def layer_metrics(seed: int) -> dict[str, tuple[float, str]]:
    """Every per-layer timing except cli.import_ms, which needs a fresh
    interpreter and comes from the set-up probes."""
    raw = workloads.sweep_pairs(random.Random(seed), LAYER_PAIRS)
    pairs = [means.PositivePair(a, b) for a, b in raw]
    m = {}
    m.update(_means_metrics(pairs, raw))
    m.update(_kernels_metrics(pairs))
    m["bernoulli.table_ms"] = (_median_ms(bernoulli.bernoulli_table, bernoulli.MAX_INDEX), "ms")
    m.update(_bounds_metrics(seed, pairs))
    m.update(_cli_metrics(seed))
    return m


def _targets(workload: str) -> list[tuple]:
    if workload == "cli_oneshot":
        # the parent only gates here; the layers run in the traced children
        return [(workloads, "invoke", None)]
    targets = tracing.library_targets()
    if workload == "point_sweep":
        targets.append((workloads, "query", "bench.query"))
    return targets


def traced_metrics(workload: str, seed: int) -> tuple[dict, workloads.Tally, list]:
    """Self time per layer of one traced fixed load, and the tracing overhead.

    Returns (metrics, tally of the traced load, the five names with the
    largest self time as (name, self ms, spans)).
    """
    reps = TRACE_LOADS[workload]
    runner = workloads.RUNNERS[workload]
    runner(seed, 0.0, reps)  # warm caches, so both timed loads start alike
    t0 = perf_counter()
    runner(seed, 0.0, reps)
    untraced_s = perf_counter() - t0

    tracer = tracing.Tracer()
    extra = {"traced": True} if workload == "cli_oneshot" else {}
    with tracer.installed(_targets(workload)):
        t0 = perf_counter()
        run = runner(seed, 0.0, reps, **extra)
        traced_s = perf_counter() - t0

    by_name = tracing.self_times(tracer.spans)
    total = sum(s for s, _ in by_name.values())
    m = {}
    for layer in LAYERS:
        entries = [v for name, v in by_name.items() if tracing.layer_of(name) == layer]
        m[f"trace.{layer}.self_ms"] = (sum(s for s, _ in entries) * 1e3, "ms")
        m[f"trace.{layer}.spans"] = (sum(c for _, c in entries), "count")
    hot = sum(by_name.get(f"kernels.h_eval.{h}.series", (0.0, 0))[0] for h in ("h1", "h3"))
    m["trace.h_eval_h1h3_series.self_share"] = (hot / total if total else 0.0, "share")
    m["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms")
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    top = sorted(by_name.items(), key=lambda kv: -kv[1][0])[:5]
    return m, run.tally, [(name, round(s * 1e3, 3), c) for name, (s, c) in top]
