"""The benchmark's tracer patches library attributes by name; each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.library_targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets if not hasattr(module, attr)]
    assert missing == []
