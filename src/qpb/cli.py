"""Command-line surface: tables, single evaluations, verification suites,
the conjecture harness, and OEIS cross-checks.

Conventions (also in each subcommand's --help): matrix statistics use
1-based row/column indices; families listed under "negative branch" take
k >= 0 meaning the integer/polynomial regime, while classical_anyk,
cenkci_q, and at_q take a signed k.  Output is deterministic: identical
invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import families, oeis, verify
from .errors import OeisError, PoleError, SizeLimitError
from .exactnum import QPoly, QRational

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3

_CONVENTIONS = (
    "Conventions: 1-based indices in matrix statistics; for negative-branch "
    "families k >= 0 selects the combinatorial (integer/polynomial) regime; "
    "classical_anyk, cenkci_q, and at_q take a signed k."
)


# One encoder for every table value, as json.dumps(..., sort_keys=True) writes it.
_JSON = json.JSONEncoder(sort_keys=True)


def _value_to_json(v):
    return v.to_json_dict() if isinstance(v, (QPoly, QRational)) else str(v)


def _json_value(v) -> str:
    return _JSON.encode(_value_to_json(v))


@contextmanager
def _digit_limit():
    """Turn CPython's refusal to print an int of more than
    sys.get_int_max_str_digits() decimal digits (a ValueError from str)
    into a size limit.  Wrap only rendering, which raises no other
    ValueError."""
    try:
        yield
    except ValueError as exc:
        raise SizeLimitError(
            f"the value has an integer of more than {sys.get_int_max_str_digits()} "
            "decimal digits, which Python does not convert to text"
        ) from exc


def _domain_error(args, message: str) -> int:
    sys.stderr.write(f"qpb {args.command}: error: {message}\n")
    return EXIT_USAGE


_BOUND_FLAGS = ("max_n", "max_k", "order")


def _negative_bounds(args) -> str | None:
    """The message for the bound flags (--max-n, --max-k, --order) of a
    subcommand that are negative, or None when all are >= 0."""
    bad = [
        f"--{flag.replace('_', '-')} {getattr(args, flag)}"
        for flag in _BOUND_FLAGS
        if getattr(args, flag, 0) < 0
    ]
    return f"bounds must be >= 0, got {', '.join(bad)}" if bad else None


def _render_in_place(cells: list, render) -> None:
    """Replace the value of each (n, k, value) cell with render(value).

    A value object met again reuses its text: paired_table yields the
    mirrored value itself for each off-diagonal cell.  Keying by id is
    safe because every value stays alive in the list until its turn, so
    no id of a value yet to come can belong to one already released."""
    texts = {}
    for i, (n, k, v) in enumerate(cells):
        text = texts.get(id(v))
        if text is None:
            text = texts[id(v)] = render(v)
        cells[i] = n, k, text


def cmd_table(args) -> int:
    cells = list(families.table(args.family, args.max_n, args.max_k))
    # Every cell is rendered before the first byte is written, so a value
    # too long to print leaves stdout empty.
    render = _json_value if args.format == "json" else str
    with _digit_limit():
        _render_in_place(cells, render)
    out = sys.stdout
    if args.format == "json":
        # The bytes of json.dumps(payload, sort_keys=True), written one cell
        # fragment at a time so that no encoding of the whole table is held.
        out.write('{"cells": [')
        for i, (n, k, text) in enumerate(cells):
            out.write(f'{", " if i else ""}{{"k": {k}, "n": {n}, "value": {text}}}')
        out.write(f'], "family": {_JSON.encode(args.family)}, '
                  f'"max_k": {args.max_k}, "max_n": {args.max_n}}}\n')
        return EXIT_OK
    by_k: dict[int, list[str]] = {}  # in the table's k order: 0, 1, 2... or 0, -1, -2...
    for _, k, text in cells:
        by_k.setdefault(k, []).append(text)
    if args.format == "csv":
        out.write("k\\n," + ",".join(str(n) for n in range(args.max_n + 1)) + "\n")
        for k, texts in by_k.items():
            out.write(f"{k}," + ",".join(texts) + "\n")
        return EXIT_OK
    # latex
    out.write("\\begin{tabular}{c|" + "c" * (args.max_n + 1) + "}\n")
    out.write("k/n & " + " & ".join(str(n) for n in range(args.max_n + 1)) + " \\\\\n\\hline\n")
    for k, texts in by_k.items():
        out.write(f"{k} & " + " & ".join(texts) + " \\\\\n")
    out.write("\\end{tabular}\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = families.FAMILIES[args.family]
    point = None
    if args.q is not None:
        try:
            point = Fraction(args.q)
        except (ValueError, ZeroDivisionError):
            return _domain_error(args, f"--q {args.q!r} is not a rational number")
    try:
        value = spec.fn(args.n, args.k)
    except ValueError as exc:
        return _domain_error(args, str(exc))
    if point is not None and isinstance(value, (QPoly, QRational)):
        try:
            value = value.eval_rational(point)
        except PoleError as exc:
            return _domain_error(args, str(exc))
    with _digit_limit():
        if args.format == "json":
            payload = {
                "family": args.family,
                "n": args.n,
                "k": args.k,
                "value": _value_to_json(value),
            }
            if args.q is not None:
                payload["q"] = args.q
            line = json.dumps(payload, sort_keys=True)
        else:
            line = str(value)
    sys.stdout.write(line + "\n")
    return EXIT_OK


def _write_reports(reports, failure_note: str) -> int:
    """Write each report as a JSON line; on any fail, write the count of
    fails and ``failure_note`` to stderr and return the check-failed code."""
    failed = 0
    for r in reports:
        sys.stdout.write(r.to_json() + "\n")
        failed += r.status == "fail"
    if failed:
        sys.stderr.write(f"{failed} {failure_note}\n")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, max_n=args.max_n, max_k=args.max_k, order=args.order)
    return _write_reports(reports, "check(s) failed")


def cmd_conjecture(args) -> int:
    if args.max_n < 2:
        # no n would be checked, and an empty run must not read as a pass
        return _domain_error(args, f"the identity starts at n = 2, got --max-n {args.max_n}")
    # The reports stream; a run past the bound is refused before the first.
    reports = verify.conjecture_reports(args.max_n)
    return _write_reports(reports, "value(s) of n refute the identity as stated")


def cmd_oeis(args) -> int:
    try:
        report = oeis.crosscheck_table(
            args.id, reader=args.reader, bound=args.bound, offline=args.offline
        )
    except ValueError as exc:
        return _domain_error(args, str(exc))
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK if report.status == "pass" else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpb",
        description="Exact tables, evaluations, and verification for "
        "poly-Bernoulli families and their q-analogues.",
        epilog=_CONVENTIONS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family_names = sorted(families.FAMILIES)

    p_table = sub.add_parser("table", help="emit an (n, k) grid of values", epilog=_CONVENTIONS)
    p_table.add_argument("--family", choices=family_names, default="classical_negk")
    p_table.add_argument("--max-n", type=int, default=5)
    p_table.add_argument("--max-k", type=int, default=5)
    p_table.add_argument("--format", choices=("json", "csv", "latex"), default="csv")
    p_table.set_defaults(fn=cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate one family member", epilog=_CONVENTIONS)
    p_eval.add_argument("--family", choices=family_names, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--k", type=int, default=0)
    p_eval.add_argument("--q", type=str, default=None,
                        help="optional rational point, e.g. 2/3, to evaluate polynomials at")
    p_eval.add_argument("--format", choices=("json", "text"), default="text")
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite (JSON lines, exit 0 iff no fail)",
        epilog=_CONVENTIONS,
    )
    p_verify.add_argument("--suite", choices=verify.suite_names(), default="all")
    p_verify.add_argument("--max-n", type=int, default=4)
    p_verify.add_argument("--max-k", type=int, default=4)
    p_verify.add_argument("--order", type=int, default=6)
    p_verify.set_defaults(fn=cmd_verify)

    p_conj = sub.add_parser(
        "conjecture", help="characteristic-polynomial identity harness for the k=2 column",
        epilog=_CONVENTIONS,
    )
    p_conj.add_argument("--max-n", type=int, default=8)
    p_conj.set_defaults(fn=cmd_conjecture)

    p_oeis = sub.add_parser("oeis", help="cross-check against an OEIS sequence", epilog=_CONVENTIONS)
    p_oeis.add_argument("--id", required=True)
    p_oeis.add_argument("--offline", action="store_true")
    p_oeis.add_argument("--reader", choices=("antidiagonal", "row"), default=None)
    p_oeis.add_argument("--bound", type=int, default=21)
    p_oeis.set_defaults(fn=cmd_oeis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Bounds are rejected before any work is done.
    bad_bounds = _negative_bounds(args)
    if bad_bounds:
        return _domain_error(args, bad_bounds)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except SizeLimitError as exc:
        sys.stderr.write(f"size limit: {exc}\n")
        return EXIT_SIZE_LIMIT
    except OeisError as exc:
        sys.stderr.write(f"oeis: {exc}\n")
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # The reader left early (`qpb verify | head -1`), so the run did not
        # finish.  Point the stdout descriptor at devnull, so that the
        # interpreter's final flush cannot raise again.
        sys.stderr.write(f"qpb {args.command}: error: stdout closed before the output was complete\n")
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_CHECK_FAILED  # a stream with no descriptor
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
