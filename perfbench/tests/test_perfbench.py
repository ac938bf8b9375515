"""The benchmark's own tests, at tiny sizes and without timing asserts.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import meanbound.bounds as bounds  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_IDS = [s.id for s in workloads.SPECS]

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = (
    ["means.pair_new_us", "means.half_sum_ratio_us", "means.seiffert_series_share"]
    + [f"means.eval_mean.{k}_us" for k in ("C", "Cbar", "A", "G", "H", "S")]
    + [f"means.eval_mean.{k}.{b}_us" for k in ("P", "T") for b in ("series", "direct")]
    + [f"kernels.h_eval.{h}.{b}_us" for h in ("h1", "h2", "h3", "h4") for b in ("series", "direct")]
    + [f"kernels.{s}_series_us" for s in ("csc", "cot", "csc_sq")]
    + ["kernels.default_table_us", "kernels.series_share", "bernoulli.table_ms"]
    + [f"bounds.certify.{i}.sample_us" for i in SPEC_IDS]
    + [f"bounds.numeric_extrema.{i}_ms" for i in SPEC_IDS]
    + [f"bounds.ratio_via_kernel.{h}_us" for h in ("h1", "h2", "h3", "h4")]
    + ["bounds.ratio_us", "bounds.ratio.failed", "bounds.ratio.disagree",
       "bounds.certify.perturbed_caught", "cli.import_ms"]
    + [f"cli.main.{c}_ms" for c in ("mean", "hfun", "series", "bounds-table", "certify")]
    + ["trace.kernels.spans", "trace.h_eval_h1h3_series.self_share", "trace.overhead_ms"]
    + [f"trace.{layer}.self_ms" for layer in ("cli", "bounds", "means", "kernels", "bernoulli")]
)


def _bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"], lines


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report, lines = _bench(workload, trace)
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"]) for line in lines)
    names = END_TO_END if not trace else dict.fromkeys(PER_LAYER)
    assert set(names) <= set(result["metrics"])
    if not trace:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
        assert report["warmup_discarded"] >= 1 and 0 < report["op_tail_percentile_in_repetition"] <= 100
        assert report["env"]["nproc"] >= 1 and report["env"]["python"]
    else:
        assert result["metrics"]["bounds.certify.perturbed_caught"]["value"] == 7
        if workload == "certify_all":
            assert result["metrics"]["trace.kernels.spans"]["value"] == 0


def test_cli_gate_rejects_a_mismatched_stdout():
    argv = ["hfun", "--id", "h1", "--x", "0.25"]
    code, expected = workloads.call_main(argv)
    assert code == 0
    assert workloads.check_cli(argv, 0, expected, expected) == []
    assert workloads.check_cli(argv, 0, expected + " ", expected)
    assert workloads.check_cli(argv, 2, expected, expected)


def test_cli_loop_counts_a_wrong_child_output_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "invoke", lambda cmd: (0, "0.5\n", ""))
    run_ = workloads.run_cli_oneshot(SEED, 0.0, min_reps=1)
    assert run_.tally.failed == run_.tally.attempted == 5
    assert run_.tally.problems


def test_certify_gate_rejects_violations_and_nondeterminism():
    code, out = workloads.call_main(workloads.certify_argv(SEED, samples=20))
    assert workloads.check_certify(code, out, out) == []
    record = json.loads(out)
    record["results"][2]["violations"] = 1
    assert workloads.check_certify(1, json.dumps(record, indent=2), None)
    assert workloads.check_certify(code, out.replace(record["results"][0]["id"], "x", 1), out)
    assert workloads.check_certify(code, "not json", None)


def test_query_gate_rejects_a_perturbed_alpha_and_a_mean_out_of_range():
    a, b = 3.0, 1.0
    mean_values, kernel_ratios, _ = workloads.query(a, b, workloads.Tally())
    assert workloads.check_query(a, b, mean_values, kernel_ratios) == []
    bad = list(kernel_ratios)
    bad[0] = workloads.SHARP[SPEC_IDS[0]].alpha - 1e-3
    assert workloads.check_query(a, b, mean_values, bad)
    assert workloads.check_query(a, b, [4.0] + mean_values[1:], kernel_ratios)
    sb = workloads.SHARP["thm5.2"]
    assert workloads.check_extrema("thm5.2", sb.alpha, sb.beta) == []
    assert workloads.check_extrema("thm5.2", sb.alpha + 1e-3, sb.beta)


def test_sensitivity_check_catches_a_weakened_certify(monkeypatch):
    assert workloads.perturbed_caught(SEED, samples=300) == 7
    real = bounds.certify
    monkeypatch.setattr(bounds, "certify", lambda spec, n, seed, tol, **_: real(spec, n, seed, tol))
    assert workloads.perturbed_caught(SEED, samples=300) == 0


def test_point_sweep_counts_ratio_zero_division_as_failed():
    run_ = workloads.run_point_sweep(SEED, 0.0, min_reps=1, batch=200)
    t = run_.tally
    assert t.problems == []
    assert t.raised.get("ZeroDivisionError", 0) > 0
    assert t.failed == sum(t.raised.values())


def test_reported_counts_do_not_depend_on_run_length():
    short = workloads.run_point_sweep(SEED, 0.0, min_reps=2, batch=100)
    longer = workloads.run_point_sweep(SEED, 0.3, min_reps=2, batch=100)
    assert len(longer.reps) > len(short.reps)
    assert short.counted == longer.counted
    assert short.counted[1] > 0
    assert longer.tally.attempted > longer.counted[0]


def test_host_scale_is_nominal_over_measured():
    assert hostspeed.scale(hostspeed.compute_s, hostspeed.COMPUTE_S) == 1.0
    assert hostspeed.scale(hostspeed.startup_s, hostspeed.STARTUP_S, 3 * hostspeed.STARTUP_S) == 0.5
    assert hostspeed.compute_s() > 0 and hostspeed.startup_s() > 0 and hostspeed.spawn_s() > 0


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
