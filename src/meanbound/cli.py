"""Command-line interface.

Five subcommands: ``mean`` (evaluate one mean), ``bounds-table`` (the
seven inequalities with their sharp constants), ``certify`` (sample-based
certification), ``series`` (exact series coefficients), and ``hfun``
(kernel evaluation).  Exit codes: 0 success, 1 certification violations,
2 usage or domain errors.  Output is deterministic: rerunning a command
with the same arguments is byte-identical.  ``main`` builds its parser on
the first call and reuses it for every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any

from .bounds import SPECS, certify_many, sharp_bounds
# Unused here, but perfbench/tracing.py wraps cli.certify by name.
from .bounds import certify  # noqa: F401
from .errors import DomainError, MeanBoundError
from .kernels import _SERIES_COEFFICIENTS, HFunctionId, default_table, h_eval
from .means import MeanKind, PositivePair, eval_mean

__all__ = ["main"]

SCHEMA_VERSION = 1

_KIND_BY_CODE = {kind.value: kind for kind in MeanKind}
_SERIES_MAX_ORDER = 16


def _cell(value: Any) -> str:
    # repr of a float is its shortest round-trip form, identical to the
    # JSON rendering, so CSV and JSON payloads match byte for byte.
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


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
    value = eval_mean(_KIND_BY_CODE[args.kind], PositivePair(args.a, args.b))
    inputs = {"kind": args.kind, "a": args.a, "b": args.b}
    return inputs, [{**inputs, "value": value}], [repr(value)], 0


def _cmd_hfun(args: argparse.Namespace) -> _Result:
    value = h_eval(HFunctionId(args.id), args.x)
    inputs = {"id": args.id, "x": args.x}
    return inputs, [{**inputs, "value": value}], [repr(value)], 0


def _cmd_bounds_table(args: argparse.Namespace) -> _Result:
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
    coefficients = _SERIES_COEFFICIENTS[args.fn](args.order, default_table())
    rows = [
        {"n": n, "power": power, "exact": str(coeff), "value": float(coeff)}
        for n, (power, coeff) in enumerate(coefficients, start=1)
    ]
    lines = [f"x^{r['power']:<4}{r['exact']:<24}{r['value']!r}" for r in rows]
    return {"fn": args.fn, "order": args.order}, rows, lines, 0


# ---------------------------------------------------------------------------
# parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanbound",
        description="Bivariate means, trigonometric kernels, and certified sharp bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="evaluate one mean of a positive pair")
    p_mean.add_argument("--kind", required=True, choices=sorted(_KIND_BY_CODE),
                        help="mean to evaluate")
    p_mean.add_argument("--a", required=True, type=float)
    p_mean.add_argument("--b", required=True, type=float)
    _add_format(p_mean)
    p_mean.set_defaults(handler=_cmd_mean)

    p_table = sub.add_parser("bounds-table", help="the seven inequalities and their sharp constants")
    _add_format(p_table)
    p_table.set_defaults(handler=_cmd_bounds_table)

    p_certify = sub.add_parser("certify", help="sample-based certification of the inequalities")
    p_certify.add_argument("--id", required=True, choices=["all", *SPECS],
                           help="inequality to certify, or 'all'")
    p_certify.add_argument("--samples", type=int, default=100_000)
    p_certify.add_argument("--seed", type=int, default=42)
    p_certify.add_argument("--tol", type=float, default=1e-12,
                           help="absolute slack on the ratio per sample, in (0, 1e-9]")
    _add_format(p_certify)
    p_certify.set_defaults(handler=_cmd_certify)

    p_series = sub.add_parser("series", help="exact series coefficients")
    p_series.add_argument("--fn", required=True, choices=sorted(_SERIES_COEFFICIENTS))
    p_series.add_argument("--order", required=True, type=int,
                          help=f"number of coefficients, 1..{_SERIES_MAX_ORDER}")
    _add_format(p_series)
    p_series.set_defaults(handler=_cmd_series)

    p_hfun = sub.add_parser("hfun", help="evaluate one kernel function")
    p_hfun.add_argument("--id", required=True, choices=[f.value for f in HFunctionId])
    p_hfun.add_argument("--x", required=True, type=float)
    _add_format(p_hfun)
    p_hfun.set_defaults(handler=_cmd_hfun)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        inputs, rows, lines, exit_code = args.handler(args)
    except MeanBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        print("\n".join(lines))
    elif args.format == "json":
        import json  # here, not at the top: text and CSV calls never load it

        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "precision": {"float": "binary64", "digits": 17},
            "results": rows,
        }
        print(json.dumps(record, indent=2))
    else:
        columns = list(rows[0])
        csv_lines = [",".join(columns), *(",".join(_cell(row[c]) for c in columns) for row in rows)]
        print("\n".join(csv_lines))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
