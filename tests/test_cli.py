import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from meanbound import bounds, cli
from meanbound.bounds import certify, sharp_bounds
from meanbound.cli import main

from _child import child_env

P_2_1_REPR = "1.4712939827611637"  # repr of eval_mean(SEIFFERT_P, (2, 1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeanCommand:
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


class TestCertifyCommand:
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
        ("mean", "5274e21dca28638ae7b3e6dcfc7fa1931e8fe91adf3dce02a49d251f0d93728a"),
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
    @pytest.mark.parametrize("order", ["0", "17", "-3"])
    def test_order_out_of_range(self, capsys, order):
        code, _, err = run_cli(capsys, "series", "--fn", "h1", "--order", order)
        assert code == 2
        assert "order" in err


class TestHfunCommand:
    def test_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "hfun", "--id", "h1", "--x", "3.2")
        assert code == 2
        assert "error" in err


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

    # Each call compiles every module it imports, so a command loads only
    # what it runs: `mean` loads means and not kernels; `hfun` and `series`
    # load kernels and its Bernoulli table (with fractions and decimal) and
    # not means; only the two commands that state or check the inequalities
    # load bounds, the largest module.  Each row: argv, and the meanbound
    # modules it loads besides cli, errors and maclaurin
    _WITH_BOUNDS = ("bernoulli", "bounds", "kernels", "means", "proof")
    FOOTPRINTS = [
        (["series", "--fn", "h1", "--order", "3"], ("bernoulli", "kernels")),
        (["hfun", "--id", "h3", "--x", "0.7"], ("bernoulli", "kernels")),
        (["mean", "--kind", "P", "--a", "2", "--b", "1"], ("means",)),
        (["bounds-table", "--format", "csv"], _WITH_BOUNDS),
        (["certify", "--id", "prop1.1", "--samples", "10"], _WITH_BOUNDS),
    ]

    @pytest.mark.parametrize("argv, loads", FOOTPRINTS, ids=[argv[0] for argv, _ in FOOTPRINTS])
    def test_each_command_loads_only_what_it_runs(self, argv, loads):
        lines = _fresh_interpreter(
            f"from meanbound import cli\ncli.main({argv!r})\n"
            "print(sorted(name for name in sys.modules if name.startswith('meanbound.')))\n"
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
        exact = "kernels" in loads
        assert lines[-2:] == [str(sorted(f"meanbound.{name}" for name in ("cli", "errors", "maclaurin", *loads))),
                              f"{exact} {exact}"]

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
        done = subprocess.run([sys.executable, "-m", "meanbound", *argv], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        code, out, _ = run_cli(capsys, *argv)
        assert (done.returncode, done.stdout) == (code, out)

    # MeanKind and HFunctionId hash by address, and str hashes are salted per
    # process: no output may depend on either
    @pytest.mark.parametrize("argv, digest", [
        (("certify", "--id", "all", "--samples", "2000", "--seed", "42", "--format", "json"),
         "3b6f08c002893a4d3536242772a44eca2939cc4219d83fae27ef5c76a0a730e5"),
        (("bounds-table", "--format", "json"),
         "569fa1844bb15f8d821de4ad5162f74bbf98f4aa3f0ddbd41cc07503ba9d269d"),
    ], ids=["certify", "bounds-table"])
    def test_stdout_is_independent_of_the_hash_seed(self, argv, digest):
        outs = [
            subprocess.run([sys.executable, "-m", "meanbound", *argv], capture_output=True, check=True,
                           env=child_env(PYTHONHASHSEED=seed), timeout=60).stdout
            for seed in ("0", "4242")
        ]
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0]).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ("series", "--fn", "h1", "--order", "16"),
        ("bounds-table",),
        ("certify", "--id", "all", "--samples", "200", "--format", "json"),
        ("mean", "--kind", "T", "--a", "3", "--b", "1", "--format", "csv"),
        ("hfun", "--id", "h4", "--x", "0.3"),
    ])
    def test_closed_stdout_exits_quietly(self, capsys, argv):
        # stdout is a pipe whose reader has already gone, as under `| head`
        # once head has exited, for each of the five commands: no traceback,
        # and the command's own exit code.  The child buffers stdout, as
        # Python does by default, so the text is still held at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "meanbound", *argv], env=child_env(), stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        code, _, _ = run_cli(capsys, *argv)
        assert (done.returncode, done.stderr) == (code, "")
