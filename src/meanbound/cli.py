"""Command-line interface.

Five subcommands: ``mean`` (evaluate one mean), ``bounds-table`` (the
seven inequalities with their sharp constants), ``certify`` (sample-based
certification), ``series`` (exact series coefficients), and ``hfun``
(kernel evaluation).  Exit codes: 0 success, 1 certification violations,
2 usage or domain errors.  Output is deterministic: rerunning a command
with the same arguments is byte-identical.  Only ``bounds-table`` and
``certify`` import ``bounds``.  ``main`` builds one parser per subcommand,
on that subcommand's first call, and reuses it for every later call in the
process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any

from .errors import DomainError, MeanBoundError
from .kernels import _SERIES_COEFFICIENTS, HFunctionId, h_eval
from .kernels import default_table  # noqa: F401  (unused; perfbench/tracing.py wraps it)
from .means import MeanKind, PositivePair, eval_mean

__all__ = ["main"]

SCHEMA_VERSION = 1

_SERIES_MAX_ORDER = 16


# ---------------------------------------------------------------------------
# subcommand handlers
#
# Each handler only computes.  It returns the inputs echoed in the JSON
# record, the result rows shared by CSV and JSON, the text-format lines,
# and the exit code; main renders whichever format was asked for.

_Result = tuple[dict[str, Any], list[dict[str, Any]], list[str], int]

_CERTIFY_COLUMNS = (
    "id", "samples", "violations", "worst_margin", "worst_x",
    "alpha_probe_gap", "beta_probe_gap", "seed", "tolerance",
)


def _cmd_mean(args: argparse.Namespace) -> _Result:
    value = eval_mean(MeanKind(args.kind), PositivePair(args.a, args.b))
    inputs = {"kind": args.kind, "a": args.a, "b": args.b}
    return inputs, [{**inputs, "value": value}], [repr(value)], 0


def _cmd_hfun(args: argparse.Namespace) -> _Result:
    value = h_eval(HFunctionId(args.id), args.x)
    inputs = {"id": args.id, "x": args.x}
    return inputs, [{**inputs, "value": value}], [repr(value)], 0


def _cmd_bounds_table(args: argparse.Namespace) -> _Result:
    from .bounds import SPECS, sharp_bounds

    rows = []
    lines = [f"{'id':<9}{'target':<8}{'hi':<6}{'lo':<6}{'alpha':<54}{'beta':<28}{'kernel'}"]
    for spec in SPECS.values():
        sb = sharp_bounds(spec)
        rows.append(
            {
                "id": spec.id,
                "target": spec.target.value,
                "hi": spec.hi.value,
                "lo": spec.lo.value,
                "alpha_exact": sb.alpha_exact,
                "alpha": sb.alpha,
                "beta_exact": sb.beta_exact,
                "beta": sb.beta,
                "kernel": spec.kernel.value,
            }
        )
        alpha = f"{sb.alpha_exact} = {sb.alpha!r}"
        beta = f"{sb.beta_exact} = {sb.beta!r}"
        lines.append(
            f"{spec.id:<9}{spec.target.value:<8}{spec.hi.value:<6}{spec.lo.value:<6}"
            f"{alpha:<54}{beta:<28}{spec.kernel.value}"
        )
    return {}, rows, lines, 0


def _cmd_certify(args: argparse.Namespace) -> _Result:
    from .bounds import SPECS, certify_many

    ids = list(SPECS) if args.id == "all" else [args.id]
    reports = certify_many([SPECS[spec_id] for spec_id in ids], args.samples, args.seed, args.tol)
    rows = [{column: getattr(report, column) for column in _CERTIFY_COLUMNS} for report in reports]
    lines = [
        f"{report.id:<9}{'ok' if report.ok else 'VIOLATED':<10}samples={report.samples}  "
        f"violations={report.violations}  worst_margin={report.worst_margin!r}"
        for report in reports
    ]
    inputs = {"id": args.id, "samples": args.samples, "seed": args.seed, "tol": args.tol}
    return inputs, rows, lines, 0 if all(report.ok for report in reports) else 1


def _cmd_series(args: argparse.Namespace) -> _Result:
    if not 1 <= args.order <= _SERIES_MAX_ORDER:
        raise DomainError(f"--order must be in [1, {_SERIES_MAX_ORDER}], got {args.order}")
    coefficients = _SERIES_COEFFICIENTS[args.fn](args.order)
    rows = [
        {"n": n, "power": power, "exact": str(coeff), "value": float(coeff)}
        for n, (power, coeff) in enumerate(coefficients, start=1)
    ]
    lines = [f"x^{r['power']:<4}{r['exact']:<24}{r['value']!r}" for r in rows]
    return {"fn": args.fn, "order": args.order}, rows, lines, 0


# ---------------------------------------------------------------------------
# parser


def _mean_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=sorted(kind.value for kind in MeanKind),
                        help="mean to evaluate")
    parser.add_argument("--a", required=True, type=float)
    parser.add_argument("--b", required=True, type=float)


def _certify_arguments(parser: argparse.ArgumentParser) -> None:
    from .bounds import SPECS

    parser.add_argument("--id", required=True, choices=["all", *SPECS],
                        help="inequality to certify, or 'all'")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="absolute slack on the ratio per sample, in (0, 1e-9]")


def _series_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fn", required=True, choices=sorted(_SERIES_COEFFICIENTS))
    parser.add_argument("--order", required=True, type=int,
                        help=f"number of coefficients, 1..{_SERIES_MAX_ORDER}")


def _hfun_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--id", required=True, choices=[f.value for f in HFunctionId])
    parser.add_argument("--x", required=True, type=float)


# name -> (help, handler, the function adding its arguments before --format),
# in the order the top-level help lists them
_COMMANDS = {
    "mean": ("evaluate one mean of a positive pair", _cmd_mean, _mean_arguments),
    "bounds-table": ("the seven inequalities and their sharp constants", _cmd_bounds_table,
                     lambda parser: None),
    "certify": ("sample-based certification of the inequalities", _cmd_certify, _certify_arguments),
    "series": ("exact series coefficients", _cmd_series, _series_arguments),
    "hfun": ("evaluate one kernel function", _cmd_hfun, _hfun_arguments),
}


@functools.cache
def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand with its help, and the arguments of ``command``
    alone: building certify's needs ``bounds``."""
    parser = argparse.ArgumentParser(
        prog="meanbound",
        description="Bivariate means, trigonometric kernels, and certified sharp bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_arguments) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(p_command)
            p_command.add_argument("--format", choices=("text", "csv", "json"), default="text",
                                   help="output format")
            p_command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse runs the first argument that names a subcommand: no top-level
    # option takes a value
    args = _build_parser(next((arg for arg in argv if arg in _COMMANDS), None)).parse_args(argv)
    try:
        inputs, rows, lines, exit_code = args.handler(args)
    except MeanBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        text = "\n".join(lines)
    elif args.format == "json":
        import json  # here, not at the top: text and CSV calls never load it

        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "precision": {"float": "binary64", "digits": 17},
            "results": rows,
        }
        text = json.dumps(record, indent=2)
    else:
        # str of a float is its shortest round-trip form, the JSON rendering
        columns = list(rows[0])
        text = "\n".join([",".join(columns), *(",".join(str(row[c]) for c in columns) for row in rows)])
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: keep the command's own exit code.  The failed
        # write drops the buffered text, so the flush at exit raises nothing
        pass
    return exit_code


def __getattr__(name: str):
    # perfbench/tracing.py wraps cli.certify by name, though no command calls
    # it; this goes with ROADMAP item 7 once item 1b retargets the tracer
    if name == "certify":
        from .bounds import certify

        return certify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
