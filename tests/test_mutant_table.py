"""mutants.py's table stays applicable: each old text occurs exactly once in
its file, and each test it names exists.  Whether the tests kill their
mutants is what `python tests/mutants.py` checks."""

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
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, *names = node.split("[")[0].split("::")
            text = (ROOT / path).read_text()
            assert f"def {names[-1]}(" in text and all(f"class {name}:" in text for name in names[:-1]), node
