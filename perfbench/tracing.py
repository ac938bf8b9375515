"""Spans for the traced run, recorded from the benchmark's own files.

A Tracer wraps module attributes that the workloads and the library call
through, for the length of a ``with tracer.installed(...)`` block only.
Spans stay in memory as [name, start, end, parent, op] lists: ``parent``
is the index of the enclosing span (-1 for none) and ``op`` the index of
the root span of the same operation. A span's layer is the first
dot-separated part of its name.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

SPANS_MARKER = "--- perfbench spans ---"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, 0.0, 0.0, parent, op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, start)

    def wrap(self, name, fn):
        """``fn`` recording one span per call; ``name`` is a string or a
        function of the call's positional arguments."""
        name_of = name if callable(name) else (lambda *args: name)

        def traced(*args, **kwargs):
            idx = self._open(name_of(*args))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return traced

    def wrap_invoke(self, invoke):
        """Span one child interpreter and adopt the spans it printed after
        SPANS_MARKER on stderr as children of that span."""

        def traced(cmd):
            with self.span("process.invocation") as idx:
                code, out, err = invoke(cmd)
            head, marker, tail = err.partition(SPANS_MARKER + "\n")
            if marker:
                base = len(self.spans)
                op = self.spans[idx][4]
                for name, start, end, parent, _ in json.loads(tail):
                    self.spans.append([name, start, end, idx if parent < 0 else base + parent, op])
            return code, out, head

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace each (module, attribute, name) target by its traced
        wrapper; a name of None means a child-interpreter invoke."""
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap_invoke(fn) if name is None else self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def library_targets() -> list[tuple]:
    """The module attributes through which the layers call each other."""
    import meanbound.bounds as bounds
    import meanbound.cli as cli
    import meanbound.kernels as kernels
    import meanbound.means as means

    def h_eval_name(fn_id, x, *_):
        return f"kernels.h_eval.{fn_id.value}.{'series' if x < kernels.X_SWITCH else 'direct'}"

    return [
        (means, "PositivePair", "means.PositivePair"),
        (means, "eval_mean", "means.eval_mean"),
        (bounds, "PositivePair", "means.PositivePair"),
        (bounds, "eval_mean", "means.eval_mean"),
        (bounds, "h_eval", h_eval_name),
        (bounds, "ratio", "bounds.ratio"),
        (bounds, "ratio_via_kernel", "bounds.ratio_via_kernel"),
        (bounds, "numeric_extrema", "bounds.numeric_extrema"),
        (cli, "main", "cli.main"),
        (cli, "certify", "bounds.certify"),
        (cli, "PositivePair", "means.PositivePair"),
        (cli, "eval_mean", "means.eval_mean"),
        (cli, "h_eval", h_eval_name),
        (cli, "default_table", "kernels.default_table"),
        (kernels, "default_table", "kernels.default_table"),
        (kernels, "bernoulli_table", "bernoulli.bernoulli_table"),
    ]


def self_times(spans: list[list]) -> dict[str, list]:
    """name -> [self seconds, span count]; self time is a span's duration
    minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _, _), child_s in zip(spans, covered):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += end - start - child_s
        entry[1] += 1
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
