"""Host speed references.

The cores of a shared host run in phases of seconds to minutes whose
speeds differ by up to 2x, in CPU time as in wall time. Fixed loops timed
next to each measurement track them: a time multiplied by ``scale`` (the
loop's nominal time over its measured time) reads as on a host where the
loop takes its nominal time. Two loops, because the phases slow different
work by different amounts:

- ``compute_s``: float, integer and dict work; tracks in-process meanbound
  calls (certify_all, point_sweep);
- ``startup_s``: the same plus compiling, marshalling and allocating;
  tracks a set-up probe's imports and first operation;
- ``spawn_s``: a fresh interpreter that imports a few standard library
  modules and exits; tracks cli_oneshot's `python -m meanbound` processes.

This module imports nothing of meanbound, so a set-up probe can time the
loops before its import, and nothing the loops do depends on meanbound.
"""

import marshal
import math
import subprocess
import sys
from time import perf_counter

COMPUTE_LOOP = 10000
COMPUTE_S = 0.01
# allocated in batches that are freed at once, so the loop adds little to
# a probe's peak resident set
ALLOC_BATCHES = 16
ALLOC_BATCH = 500
STARTUP_S = 0.02
SPAWN_S = 0.05
SPAWN = [sys.executable, "-I", "-c", "import argparse, json, fractions"]
SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    s = {{'k': x, 'i': [y, {i}.5]}}\n    return [x * y + k for k in range(3)], s\n"
    for i in range(60)
)


def compute_s() -> float:
    """Wall seconds of a fixed loop of float, integer and dict work."""
    t0 = perf_counter()
    acc = 0.0
    slots = {}
    for i in range(COMPUTE_LOOP):
        x = ((i * 0x9E3779B97F4A7C15) >> 11 & 0xFFFF) / 65536.0 + 0.5
        acc += math.log(x) * math.sqrt(x) / (1.0 + x)
        slots[i & 63] = acc
    return perf_counter() - t0


def startup_s() -> float:
    """Wall seconds of compute_s plus compiling and marshalling a fixed
    source and allocating small objects."""
    seconds = compute_s()
    t0 = perf_counter()
    marshal.loads(marshal.dumps(compile(SOURCE, "<reference>", "exec")))
    for _ in range(ALLOC_BATCHES):
        objects = [(str(i), {"k": i}, [i] * 3) for i in range(ALLOC_BATCH)]
    del objects
    return seconds + perf_counter() - t0


def spawn_s() -> float:
    """Wall seconds of running SPAWN to completion."""
    t0 = perf_counter()
    subprocess.run(SPAWN, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


NOMINAL = {compute_s: COMPUTE_S, startup_s: STARTUP_S, spawn_s: SPAWN_S}


def scale(reference, *times: float) -> float:
    """The nominal time of ``reference`` over the mean of its ``times``,
    taken around one measurement."""
    return NOMINAL[reference] * len(times) / sum(times)
