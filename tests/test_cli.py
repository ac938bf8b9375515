import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from meanbound import bounds, cli
from meanbound.bounds import certify, sharp_bounds
from meanbound.cli import main

P_2_1_REPR = "1.4712939827611637"  # repr of eval_mean(SEIFFERT_P, (2, 1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeanCommand:
    def test_seiffert_p(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "P", "--a", "2", "--b", "1")
        assert code == 0
        assert out.strip() == P_2_1_REPR

    def test_arithmetic(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "A", "--a", "3", "--b", "1")
        assert code == 0
        assert out.strip() == "2.0"

    def test_rejects_negative(self, capsys):
        code, out, err = run_cli(capsys, "mean", "--kind", "G", "--a", "-1", "--b", "2")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_rejects_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mean", "--kind", "X", "--a", "1", "--b", "2"])
        assert exc.value.code == 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "P", "--a", "2", "--b", "1",
                               "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["schema_version"] == 1
        assert record["command"] == "mean"
        assert record["results"][0]["value"] == float(P_2_1_REPR)
        assert json.loads(json.dumps(record)) == record


class TestBoundsTableCommand:
    def test_csv_has_seven_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds-table", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8  # header + 7 rows
        assert lines[0].startswith("id,target,hi,lo,alpha_exact,alpha,beta_exact,beta,kernel")

    def test_constants_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds-table", "--format", "json")
        assert code == 0
        rows = {r["id"]: r for r in json.loads(out)["results"]}
        assert rows["prop1.1"]["alpha"] == 2 / math.pi
        assert rows["prop1.1"]["beta"] == 5 / 6
        assert rows["prop1.3"]["alpha_exact"] == "(4-pi)/((sqrt2-1)*pi)"
        assert rows["thm5.1"]["kernel"] == "h3"
        assert rows["thm5.2"]["target"] == "S"

    def test_csv_json_payloads_match(self, capsys):
        _, csv_out, _ = run_cli(capsys, "bounds-table", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "bounds-table", "--format", "json")
        rows = json.loads(json_out)["results"]
        csv_lines = csv_out.strip().split("\n")[1:]
        for line, row in zip(csv_lines, rows):
            cells = line.split(",")
            assert cells[5] == repr(row["alpha"])
            assert cells[7] == repr(row["beta"])

    def test_text_lists_all_ids(self, capsys):
        code, out, _ = run_cli(capsys, "bounds-table")
        assert code == 0
        for spec_id in ("prop1.1", "prop1.4", "thm5.1", "thm5.3"):
            assert spec_id in out

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "bounds-table", "--format", "json")
        _, second, _ = run_cli(capsys, "bounds-table", "--format", "json")
        assert first == second


class TestCertifyCommand:
    def test_single_spec_ok(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--id", "prop1.1", "--samples", "2000",
                               "--seed", "42", "--format", "json")
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["violations"] == 0
        assert result["samples"] == 2000
        # the samples reach a sharp constant to within rounding
        assert abs(result["worst_margin"]) <= 1e-15

    def test_one_sample(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--id", "prop1.1", "--samples", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["results"][0]["samples"] == 1

    def test_all_runs_every_spec(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--id", "all", "--samples", "500",
                               "--seed", "3", "--format", "json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)["results"]] == [
            "prop1.1", "prop1.2", "prop1.3", "prop1.4", "thm5.1", "thm5.2", "thm5.3",
        ]

    def test_unknown_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--id", "nosuch"])
        assert exc.value.code == 2

    def test_bad_samples_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--id", "prop1.1", "--samples", "0")
        assert code == 2
        assert "error" in err

    def test_infinite_tol_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--id", "prop1.1", "--samples", "10",
                                 "--tol", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_large_tol_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--id", "prop1.1", "--samples", "10",
                                 "--tol", "1e-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol must be at most")

    def test_deterministic_output(self, capsys):
        args = ("certify", "--id", "thm5.2", "--samples", "1500", "--seed", "8",
                "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    # SHA-256 of the stdout of `meanbound certify --id all --samples <samples>
    # --seed 42 --format <fmt>`; any change to a report's bits changes these.
    # 100 000 samples span many draw blocks, 2000 fit in one.
    @pytest.mark.parametrize("fmt, samples, digest", [
        ("json", 2000, "3b6f08c002893a4d3536242772a44eca2939cc4219d83fae27ef5c76a0a730e5"),
        ("text", 2000, "534c3812943aa3832f0a2030c3caa877639109b4c91eaedf04e7fbdf1f8321ea"),
        ("csv", 2000, "75bda99c02947213e49c29f59cbd4608cd02839d18f9e7002b4eece9e42b1bed"),
        ("json", 100_000, "df9d3f5ba2cc7f35c47c79ab7b1d1b3cbdb2b131777e39e28a65a653824df477"),
    ])
    def test_pinned_stdout(self, capsys, fmt, samples, digest):
        code, out, _ = run_cli(capsys, "certify", "--id", "all", "--samples", str(samples),
                               "--seed", "42", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_FORMATS = ("text", "csv", "json")

# Every command in every format, error exits included; each argv runs
# once per format with `--format <fmt>` appended.
_TRANSCRIPT_ARGVS = {
    "mean": [
        ("mean", "--kind", kind, "--a", a, "--b", b)
        for kind in ("C", "Cbar", "A", "G", "H", "S", "P", "T")
        for a, b in (("2", "1"), ("1", "1e6"), ("-1", "2"))
    ],
    "hfun": [
        ("hfun", "--id", fn, "--x", x)
        for fn in ("h1", "h2", "h3", "h4")
        for x in ("0.25", "1.0", "3.2", "7.0")
    ],
    "bounds-table": [("bounds-table",)],
    "series": [
        ("series", "--fn", fn, "--order", order)
        for fn in ("csc", "cot", "cscsq", "h1", "h3")
        for order in ("0", "1", "16", "17")
    ],
    "certify": [
        ("certify", "--id", "thm5.1", "--samples", "700", "--seed", "5"),
        ("certify", "--id", "all", "--samples", "300", "--seed", "9"),
        ("certify", "--id", "prop1.1", "--samples", "0"),
        ("certify", "--id", "prop1.1", "--samples", "10", "--tol", "0"),
    ],
}


def _transcript_digest(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        for fmt in _FORMATS:
            full = [*argv, "--format", fmt]
            code, out, err = run_cli(capsys, *full)
            digest.update(json.dumps([full, code, out, err]).encode())
    return digest.hexdigest()


class TestPinnedTranscripts:
    # SHA-256 over (argv, exit code, stdout, stderr) of every argv above,
    # in all three formats: any change to the bytes a command writes
    # changes its digest.
    @pytest.mark.parametrize("command, digest", [
        ("mean", "04aebd89f6c4d3b9d76508107439bbe446a790eced4acb7f1d0f25e18c03465a"),
        ("hfun", "82bfc65532f021ad70c42bf42642ba183cc2bf885bf99c66ef88d1b1877873bd"),
        ("bounds-table", "9cd789ef2d0da11c4c045669d1f843a2ce26a86c3c800f090ce3730f55451239"),
        ("series", "3ba4ab74ebb52e02865bcbbb62c1be4524497e1f56617b6b7f8bde81008e7171"),
        ("certify", "03f20b5c432b375bf8c4c98172a94ec54142aa30f69a091051c435698246f769"),
    ])
    def test_pinned_bytes(self, capsys, command, digest):
        assert _transcript_digest(capsys, _TRANSCRIPT_ARGVS[command]) == digest

    # argparse alone writes these: --help (exit 0) at the top level and for
    # each subcommand, and one usage error (exit 2) per subcommand and at the
    # top level.  Help text wraps at the terminal width, read from COLUMNS;
    # its layout is one for Python 3.10-3.12 and another for 3.13.
    @pytest.mark.parametrize("argvs, digests", [
        ([("--help",), *((command, "--help") for command in _TRANSCRIPT_ARGVS)],
         ("1f61e7aa971b38130e1f7be749e783e5f6f604dc15430888fbb0e865d6272d3c",
          "acb5be90083affe5de99b4f2bbb4c8587e18ee7cd2952d345f056b62710eb512")),
        ([(), ("nosuch",), ("mean", "--kind", "X", "--a", "1", "--b", "2"),
          ("bounds-table", "--format", "xml"), ("certify", "--id", "nosuch"),
          ("series", "--fn", "h1"), ("hfun", "--x", "1.0")],
         ("380339977a68023296eef80a7d8f2b0cddcaa3e0ed4d3fd3c1329fc446dd406c",
          "8a66d4ba2dd5e74345bb977c10f1af41e71f549ed0703c73778092d70435ca5c")),
    ], ids=["help", "usage"])
    def test_pinned_parser_bytes(self, capsys, monkeypatch, argvs, digests):
        if sys.version_info >= (3, 14):
            pytest.skip("no digest pinned for this Python's argparse layout")
        monkeypatch.setenv("COLUMNS", "80")
        transcript = hashlib.sha256()
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            captured = capsys.readouterr()
            transcript.update(json.dumps([argv, exc.value.code, captured.out, captured.err]).encode())
        assert transcript.hexdigest() == digests[sys.version_info >= (3, 13)]

    def test_pinned_violation_bytes(self, capsys, monkeypatch):
        # Sharp constants pass on every sample, so a violation needs a
        # raised alpha, which certify reports on every spec.
        def raised_alpha(specs, n_samples, seed, tol):
            return [certify(spec, n_samples, seed, tol, alpha=sharp_bounds(spec).alpha + 1e-3)
                    for spec in specs]

        monkeypatch.setattr(bounds, "certify_many", raised_alpha)
        argv = ("certify", "--id", "all", "--samples", "300", "--seed", "9")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out.count("VIOLATED") == 7
        assert _transcript_digest(capsys, [argv]) == (
            "79cc2f15dedb49540ad8e4a4555c22a878c7517b148e068dbce3904fe467ff31"
        )


class TestSeriesCommand:
    def test_h1_order_2(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--fn", "h1", "--order", "2",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        assert rows[0] == {"n": 1, "power": 0, "exact": "5/6", "value": 5 / 6}
        assert rows[1]["exact"] == "-17/360"
        assert rows[1]["value"] == -17 / 360

    def test_h3_order_1(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--fn", "h3", "--order", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["results"][0]["exact"] == "2/3"

    def test_csc_order_1(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--fn", "csc", "--order", "1",
                               "--format", "json")
        row = json.loads(out)["results"][0]
        assert row["power"] == 1 and row["exact"] == "1/6"

    def test_cot_and_cscsq(self, capsys):
        _, out, _ = run_cli(capsys, "series", "--fn", "cot", "--order", "1", "--format", "json")
        assert json.loads(out)["results"][0]["exact"] == "-1/3"
        _, out, _ = run_cli(capsys, "series", "--fn", "cscsq", "--order", "1", "--format", "json")
        assert json.loads(out)["results"][0]["exact"] == "1/3"

    @pytest.mark.parametrize("order", ["0", "17", "-3"])
    def test_order_out_of_range(self, capsys, order):
        code, _, err = run_cli(capsys, "series", "--fn", "h1", "--order", order)
        assert code == 2
        assert "order" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--fn", "h1", "--order", "2")
        assert code == 0
        assert "5/6" in out and "-17/360" in out


class TestHfunCommand:
    def test_h1_at_half_pi(self, capsys):
        code, out, _ = run_cli(capsys, "hfun", "--id", "h1", "--x", "1.5707963267948966")
        assert code == 0
        assert float(out.strip()) == 2 / math.pi

    def test_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "hfun", "--id", "h1", "--x", "3.2")
        assert code == 2
        assert "error" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "hfun", "--id", "h3", "--x", "0.25", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "id,x,value"
        assert row.startswith("h3,0.25,")


class TestParserReuse:
    def test_parser_is_built_once_and_reused(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ("certify", "--id", "all", "--samples", "300", "--seed", "9", "--format", "json")
        before = run_cli(capsys, *argv)
        built_by_first_call = len(built)

        with pytest.raises(SystemExit) as usage:
            main(["certify", "--id", "nope"])
        assert usage.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "certify", "--id", "all", "--tol", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: tol must be positive")
        after = run_cli(capsys, *argv)

        assert len(built) == built_by_first_call
        assert after == before


def _fresh_interpreter(code):
    """stdout lines of ``code`` run in a fresh interpreter that sees this
    checkout's src first: -I -S keeps the environment and site .pth files
    from importing anything first, and -B writes no bytecode into src."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.strip().split("\n")


class TestImportFootprint:
    # Every CLI call is a fresh interpreter, so each of these stdlib modules
    # would cost every call its import time.
    HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
    PROBE = """
from meanbound import cli
cli.main(["mean", "--kind", "P", "--a", "2", "--b", "1"])
cli.main(["hfun", "--id", "h3", "--x", "0.7"])
print(sorted(name for name in {heavy!r} if name in sys.modules))
cli.main(["mean", "--kind", "P", "--a", "2", "--b", "1", "--format", "json"])
print("json" in sys.modules)
"""

    def test_text_calls_leave_heavy_modules_unloaded(self):
        lines = _fresh_interpreter(self.PROBE.format(heavy=self.HEAVY))
        assert lines[:3] == [P_2_1_REPR, "0.7134834077705436", "[]"]
        assert lines[-1] == "True"

    # bounds is the largest module; only the two commands that state or
    # check the inequalities import it
    @pytest.mark.parametrize("argv, loads_bounds", [
        (["series", "--fn", "h1", "--order", "3"], False),
        (["hfun", "--id", "h3", "--x", "0.7"], False),
        (["mean", "--kind", "P", "--a", "2", "--b", "1"], False),
        (["bounds-table", "--format", "csv"], True),
        (["certify", "--id", "prop1.1", "--samples", "10"], True),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_only_bounds_commands_load_bounds(self, argv, loads_bounds):
        lines = _fresh_interpreter(f"from meanbound import cli\ncli.main({argv!r})\n"
                                   f"print('meanbound.bounds' in sys.modules)")
        assert lines[-1] == str(loads_bounds)

    def test_dir_lists_every_public_name(self):
        lines = _fresh_interpreter("import meanbound\nlisted = set(dir(meanbound))\n"
                                   "print(set(meanbound.__all__) <= listed)")
        assert lines == ["True"]


class TestModuleEntryPoint:
    # `python -m meanbound` (meanbound/__main__.py) is the CLI's only -m
    # entry; it must behave exactly like cli.main in process.
    @pytest.mark.parametrize("argv", [
        ("certify", "--id", "prop1.1", "--samples", "50", "--seed", "3"),
        ("bounds-table", "--format", "csv"),
        ("mean", "--kind", "P", "--a", "2", "--b", "1", "--format", "json"),
        ("hfun", "--id", "h1", "--x", "4.0"),
    ])
    def test_matches_in_process_main(self, capsys, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "meanbound", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        code, out, _ = run_cli(capsys, *argv)
        assert (done.returncode, done.stdout) == (code, out)

    @pytest.mark.parametrize("argv", [
        ("series", "--fn", "h1", "--order", "16"),
        ("bounds-table",),
        ("certify", "--id", "all", "--samples", "200", "--format", "json"),
    ])
    def test_closed_stdout_exits_quietly(self, capsys, argv):
        # stdout is a pipe whose reader has already gone, as under `| head`
        # once head has exited: no traceback, and the command's own exit code
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "meanbound", *argv], env=env, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        code, _, _ = run_cli(capsys, *argv)
        assert (done.returncode, done.stderr) == (code, "")
