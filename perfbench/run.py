"""meanbound benchmark: one workload per run, its result as the last stdout line.

    python3 perfbench/run.py --workload point_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, untraced and traced

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures the per-layer metrics and the traced layer split. Every metric is
printed as a line of name, value and unit, then a one-line JSON report
(environment, sample counts, tail percentile, call tallies, top spans),
then the result line {"correct", "attempted", "failed", "metrics"}.
"attempted" and "failed" count the public calls of the repetitions every
run makes (the fixed traced load, or the first workloads.MIN_REPS timed
repetitions), so they depend on the seed alone; every repetition is gated,
and the whole run's counts are in the report line.
A failed correctness gate prints correct=false and exits 1; a checkout
without meanbound's sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("certify_all", "point_sweep", "cli_oneshot")
SETUP_PROBES = 15


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    """Python version, CPUs this process may use, CPU model and load average,
    read from /proc at the start of the run."""
    status = _read("/proc/self/status")
    allowed = next((line.split(":", 1)[1].strip() for line in status.splitlines()
                    if line.startswith("Cpus_allowed_list")), "")
    nproc = 0
    for part in filter(None, allowed.split(",")):
        lo, _, hi = part.partition("-")
        nproc += int(hi or lo) - int(lo) + 1
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    return {
        "python": sys.version.split()[0],
        "nproc": nproc,
        "cpu": model,
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probes(workload: str, seed: int, count: int) -> tuple[list[tuple[float, float]], list[float]]:
    """(set-up seconds and their host scale, import ms) of ``count`` fresh
    interpreters."""
    import workloads

    setups, imports = [], []
    for _ in range(count):
        code, out, err = workloads.invoke([sys.executable, str(workloads.CHILD), "setup", workload, str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        probe = json.loads(out.splitlines()[-1])
        setups.append((probe["setup_s"], probe["scale"]))
        imports.append(probe["import_ms"])
    return setups, imports


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, object, tuple[int, int]]:
    import workloads

    run = workloads.RUNNERS[workload](seed, seconds)
    # read before the set-up probes, which are children too
    usage = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setups, _ = setup_probes(workload, seed, SETUP_PROBES)
    if workloads.perturbed_caught(seed) != len(workloads.SPECS):
        run.tally.problems.append("certify missed a perturbed alpha")
    # Per repetition: throughput, median latency and tail latency, each
    # scaled to the reference host speed; the run reports their medians.
    rates = [ops / secs for ops, secs, _ in run.reps]
    p50s = [statistics.median(latencies) for _, _, latencies in run.reps]
    tails = [tail(latencies) for _, _, latencies in run.reps]
    scales = run.scales
    metrics = {
        "setup_s": (statistics.median(secs * k for secs, k in setups), "s"),
        "ops_per_s": (statistics.median(r / k for r, k in zip(rates, scales)), "1/s"),
        "op_p50_ms": (statistics.median(p * k for p, k in zip(p50s, scales)) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(v * k for (v, _), k in zip(tails, scales)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    t = run.tally
    report = {
        "repetitions": len(run.reps),
        "warmup_discarded": workloads.WARMUP_REPS,
        "ops_per_repetition": run.reps[0][0],
        "latencies_per_repetition": len(run.reps[0][2]),
        "op_tail_percentile_in_repetition": round(tails[0][1], 3),
        "setup_probes": SETUP_PROBES,
        "host_scale_median": statistics.median(scales),
        "unscaled": {"setup_s": statistics.median(secs for secs, _ in setups), "ops_per_s": statistics.median(rates), "op_p50_ms": statistics.median(p50s) * 1e3,
                     "op_tail_ms": statistics.median(v for v, _ in tails) * 1e3},
        "attempted_whole_run": t.attempted,
        "failed_whole_run": t.failed,
        "error_rate": t.failed / t.attempted,
        "refused": t.refused,
        "raised": t.raised,
    }
    if workload == "point_sweep":
        report["ratio_disagree_share"] = run.extra["ratio_disagree"] / max(1, run.extra["ratio_calls"])
        report["numeric_extrema_share"] = run.extra["extrema_s"] / (run.extra["extrema_s"] + run.extra["query_s"])
    return metrics, report, t, run.counted


def per_layer(workload: str, seed: int) -> tuple[dict, dict, object, tuple[int, int]]:
    import layers
    import workloads

    _, imports = setup_probes("cli_oneshot", seed, SETUP_PROBES)
    metrics = layers.layer_metrics(seed)
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    traced, tally, top = layers.traced_metrics(workload, seed)
    metrics.update(traced)
    if metrics["bounds.certify.perturbed_caught"][0] != len(workloads.SPECS):
        tally.problems.append("certify missed a perturbed alpha")
    # the traced load is fixed, so its whole tally depends on the seed alone
    return metrics, {"top_self_ms": top, "setup_probes": SETUP_PROBES}, tally, (tally.attempted, tally.failed)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    env = environment()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so that the host-speed
        # loop and the work it scales run on the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if trace:
        metrics, report, tally, (attempted, failed) = per_layer(workload, seed)
    else:
        metrics, report, tally, (attempted, failed) = end_to_end(workload, seed, seconds)
    correct = not tally.problems
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    report.update({"workload": workload, "seed": seed, "trace": trace, "env": env,
                   "attempted": attempted, "failed": failed, "problems": tally.problems})
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(f"# {workload} trace={trace}\n{done.stdout}")
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not done.stdout.strip():
                code = 1
                merged["correct"] = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meanbound" / "__init__.py").is_file():
        print(f"perfbench: no meanbound sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meanbound

    if Path(meanbound.__file__).resolve().parent != (SRC / "meanbound").resolve():
        print(f"perfbench: imported meanbound from {meanbound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
