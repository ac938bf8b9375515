"""The benchmark reaches into the library by name: the attributes its
tracer patches and the names its modules use must all exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.library_targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets if not hasattr(module, attr)]
    assert missing == []


def _library_names(source):
    """(module, attr) for each use of `import meanbound.X as Y` as `Y.attr`
    and each name of `from meanbound.X import name`, in one file's source."""
    tree = ast.parse(source)
    aliases = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("meanbound.") and alias.asname:
                    assert aliases.setdefault(alias.asname, alias.name) == alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("meanbound"):
            names += [(node.module, alias.name) for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.append((aliases[node.value.id], node.attr))
    return names


def test_every_library_name_the_benchmark_uses_exists():
    uses = [use for path in sorted(PERFBENCH.glob("*.py")) for use in _library_names(path.read_text())]
    assert len(uses) > 40
    missing = [f"{module}.{attr}" for module, attr in uses if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
