"""Fresh-interpreter side of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>   # set-up probe
    python3 perfbench/child.py trace <meanbound argv...> # traced `python -m meanbound`

``setup`` prints one JSON line: seconds from before `import meanbound`
until the workload's first operation returns, the import alone, and the
hostspeed.scale of startup_s timed just before and just after.
``trace`` behaves like `python -m meanbound` on stdout and exit code, and
appends its spans to stderr after the marker line tracing.SPANS_MARKER.
Both expect PYTHONPATH to name the checkout's src directory.
"""

# The harness's own imports come first, so the probe's clock covers
# meanbound and not the standard library modules the harness needs.
import contextlib  # noqa: F401
import io  # noqa: F401
import json
import os  # noqa: F401
import pathlib  # noqa: F401
import random  # noqa: F401
import subprocess  # noqa: F401
import sys
from time import perf_counter

import hostspeed


def _setup(workload: str, seed: int) -> int:
    ref_before = hostspeed.startup_s()
    t0 = perf_counter()
    import meanbound  # noqa: F401

    if workload != "point_sweep":
        import meanbound.cli  # noqa: F401
    t_import = perf_counter()
    import workloads

    workloads.first_operation(workload, seed)
    t1 = perf_counter()
    scale = hostspeed.scale(hostspeed.startup_s, ref_before, hostspeed.startup_s())
    print(json.dumps({"setup_s": t1 - t0, "import_ms": (t_import - t0) * 1e3, "scale": scale}))
    return 0


def _trace(argv: list[str]) -> int:
    import tracing

    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import meanbound.cli as cli
    with tracer.installed(tracing.library_targets()):
        code = cli.main(argv)
    sys.stdout.flush()
    print(tracing.SPANS_MARKER, file=sys.stderr)
    print(json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(_setup(rest[0], int(rest[1])))
    if mode == "trace":
        sys.exit(_trace(rest))
    sys.exit(f"unknown mode {mode!r}")
