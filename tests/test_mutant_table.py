"""mutants.py's table stays applicable: each old text occurs exactly once in
its file, and each test it names exists.  Whether the tests kill their
mutants is what `python tests/mutants.py` checks."""

import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_old_text_occurs_once_in_its_file():
    assert len(MUTANTS) >= 20
    assert {m.file for m in MUTANTS} == {"__init__.py", "bernoulli.py", "kernels.py", "means.py", "bounds.py", "cli.py"}
    for mutant in MUTANTS:
        text = (ROOT / "src" / "meanbound" / mutant.file).read_text()
        assert text.count(mutant.old) == 1 and mutant.new != mutant.old, mutant.name


def test_each_named_test_exists():
    # pytest itself resolves each full node id, parameter ids included: one
    # it cannot find is a usage error (exit 4), which mutants.py counts as a
    # survivor.  Nothing runs, so the asserts need no rewriting
    assert all(mutant.tests for mutant in MUTANTS)
    named = sorted({node for mutant in MUTANTS for node in mutant.tests})
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "--assert=plain", "-p", "no:cacheprovider", *named],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
