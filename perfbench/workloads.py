"""The benchmark's workloads: seeded op lists, op execution, output checks.

An op is one request a user of qpb makes: a ``qpb`` command line run
through ``qpb.cli.main``, or a library call into a brute-force oracle.
For a workload the set of cells (what is computed, and at what size) is
fixed; the seed and the pass index choose only the order of the ops and
cheap choices such as the output format or the rational point q.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("verify-all", "rational-eval", "oracle-enum", "poly-tables")

REFERENCE_FILE = Path(__file__).with_name("reference.json")

SUITES = (
    "value-table",
    "golden",
    "q1-collapse",
    "oracles",
    "rook-laws",
    "cross-formula",
    "genfunc",
    "akiyama-tanigawa",
    "cenkci-comb",
    "conjecture",
)
VERIFY_SIZE = ("--max-n", "6", "--max-k", "6", "--order", "8")
VERIFY_ALL_ARGV = ("verify", "--suite", "all") + VERIFY_SIZE

# Rational points for `qpb eval --q=<r>`; q = 0 and q = -1 (poles of at_q)
# are left out on purpose.
Q_POINTS = ("1/2", "2", "-1/2", "3", "-2/3", "5/4")
EVAL_FORMATS = ("text", "json")
TABLE_FORMATS = ("csv", "json", "latex")

TALL_TABLES = (("ordered_q", 48, 1), ("lonesum_q", 48, 1), ("vesztergombi_q", 48, 1))
SQUARE_TABLES = (("ordered_q", 16, 16), ("lonesum_q", 16, 16),
                 ("vesztergombi_q", 16, 16), ("cenkci_q", 12, 12))
CONJECTURE_ARGV = ("conjecture", "--max-n", "10")


class Op(NamedTuple):
    kind: str     # "cli" (argv for qpb.cli.main) or "lib" (a library call)
    cell: tuple   # what is computed; the same for every seed
    argv: tuple   # CLI arguments, or (call name, *arguments) for "lib"


# -- cells ---------------------------------------------------------------------

def _eval_cells() -> list[tuple[str, int, int]]:
    """at_q for 1 <= k <= 3 and n*k <= 21, and cenkci_q for 1 <= k <= 4, n <= 8.

    at_q(8, 3) is left out only to keep a pass short; its gcd blow-up
    already shows at (7, 3).
    """
    cells = [("at_q", n, k) for k in (1, 2, 3) for n in range(9) if n * k <= 21]
    cells += [("cenkci_q", n, k) for k in (1, 2, 3, 4) for n in range(9)]
    return cells


def _oracle_cells() -> list[tuple]:
    cells: list[tuple] = []
    for cls, stat in (("perm_matrix", "ones_minus_cols"), ("lonesum", "nu_sum"),
                      ("gamma_free", "none")):
        cells += [("class_poly", cls, n, k, stat)
                  for n in range(1, 6) for k in range(1, 6) if n * k <= 16]
    for n, k in ((4, 4), (5, 4), (4, 5)):
        cells += [("vesztergombi_oracle", n, k), ("rook_band", n, k)]
    cells += [("fubini_oracle", 7), ("ordered_q_oracle", 6, 6)]
    # (n+k) x (n+k) band boards: 14x14 and 16x16.
    cells += [("band_permanent", 7, 7), ("band_permanent", 8, 8)]
    return cells


def _table_argv(family: str, max_n: int, max_k: int, fmt: str) -> tuple:
    return ("table", "--family", family, "--max-n", str(max_n), "--max-k", str(max_k),
            "--format", fmt)


def _eval_argv(family: str, n: int, k: int, q: str | None, fmt: str) -> tuple:
    argv = ("eval", "--family", family, "--n", str(n), "--k", str(k))
    # argparse would read "--q -1/2" as a flag; the "=" form is unambiguous.
    if q is not None:
        argv += (f"--q={q}",)
    return argv + ("--format", fmt)


# -- op lists ----------------------------------------------------------------

def make_ops(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The ops of one pass, in order; the same arguments give the same list."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "verify-all":
        groups = [[Op("cli", ("verify", s), ("verify", "--suite", s) + VERIFY_SIZE)
                   for s in SUITES]]
    elif workload == "rational-eval":
        ops = []
        for fam, n, k in _eval_cells():
            q = rng.choice(Q_POINTS) if rng.random() < 0.5 else None
            ops.append(Op("cli", (fam, n, k), _eval_argv(fam, n, k, q, rng.choice(EVAL_FORMATS))))
        groups = [ops]
    elif workload == "oracle-enum":
        groups = [[Op("lib", cell, cell) for cell in _oracle_cells()]]
    elif workload == "poly-tables":
        # The tall tables (memo writes) run before the square tables and the
        # conjecture (memo reads), each group in seeded order.  Were a square
        # table free to run before its tall one, it would pay the memo growth
        # in some passes and not in others, and the 90th percentile would
        # follow the seed instead of the code.
        groups = [
            [Op("cli", ("table", fam, n, k), _table_argv(fam, n, k, rng.choice(TABLE_FORMATS)))
             for fam, n, k in tables]
            for tables in (TALL_TABLES, SQUARE_TABLES)
        ]
        groups[1].append(Op("cli", ("conjecture", 10), CONJECTURE_ARGV))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    for group in groups:
        rng.shuffle(group)
    return [op for group in groups for op in group]


def input_sizes(workload: str) -> dict:
    """The fixed sizes of a workload's inputs, for the result metadata."""
    if workload == "verify-all":
        return {"suites": len(SUITES), "max_n": 6, "max_k": 6, "order": 8}
    if workload == "rational-eval":
        return {"cells": len(_eval_cells()), "max_n": 8, "max_nk_at_q": 21,
                "q_points": list(Q_POINTS), "q_share": 0.5}
    if workload == "oracle-enum":
        return {"class_poly_max_cells": 16, "oracle_cells": [[4, 4], [5, 4], [4, 5]],
                "fubini_n": 7, "ordered_q_oracle": [6, 6], "band_permanents": [14, 16]}
    return {"tall": [list(t) for t in TALL_TABLES], "square": [list(t) for t in SQUARE_TABLES],
            "conjecture_max_n": 10}


def cli_variants(workload: str) -> list[tuple]:
    """Every CLI argv that make_ops can produce for a workload, whatever the seed."""
    if workload == "verify-all":
        return [("verify", "--suite", s) + VERIFY_SIZE for s in SUITES] + [VERIFY_ALL_ARGV]
    if workload == "rational-eval":
        return [_eval_argv(fam, n, k, q, fmt) for fam, n, k in _eval_cells()
                for q in (None,) + Q_POINTS for fmt in EVAL_FORMATS]
    if workload == "poly-tables":
        return [_table_argv(fam, n, k, fmt) for fam, n, k in TALL_TABLES + SQUARE_TABLES
                for fmt in TABLE_FORMATS] + [CONJECTURE_ARGV]
    return []


def argv_key(argv: tuple) -> str:
    return " ".join(argv)


# -- running ops (inside a worker) ----------------------------------------------

def run_cli(argv: tuple) -> tuple[int, str]:
    """Run one qpb command line in-process: (exit code, stdout text)."""
    from qpb import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def run_lib(call: tuple):
    """Run one brute-force oracle call; returns its QPoly or int."""
    from qpb import objects, rook

    name, *args = call
    if name == "class_poly":
        return objects.class_poly(*args)
    if name == "rook_band":
        n, k = args
        board = rook.build_v_matrix(n, k)
        # The band boards at (5, 4) and (4, 5) are 9x9, over the default area bound.
        return rook.q_rook_number(board, n + k, max_area=board.area)
    if name == "band_permanent":
        n, k = args
        return rook.build_v_matrix(n, k).to_int_matrix().permanent()
    return getattr(objects, name)(*args)


def lib_observable(call: tuple, value):
    """What an oracle result is compared on: the whole polynomial, or its
    value at q = 1 where the formula route gives only the count."""
    name, *args = call
    if name == "class_poly" and args[0] in ("perm_matrix", "gamma_free"):
        return value.at_one()
    if isinstance(value, int):
        return value
    return value.to_json_dict()


def cli_observable(stdout: str) -> dict:
    data = stdout.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def verify_joined(outputs: dict[str, str]) -> dict:
    """The ten verify outputs joined in canonical suite order."""
    return cli_observable("".join(outputs[s] for s in SUITES))


# -- expected values (in the parent, outside any timed region) ------------------

def formula_value(call: tuple):
    """The formula route's value for an oracle call (families never
    enumerates), in the form lib_observable gives."""
    from qpb import families

    name, *args = call
    if name == "class_poly":
        cls, n, k, _stat = args
        if cls == "lonesum":
            return families.lonesum_q_pb(n, k).to_json_dict()
        if cls == "gamma_free":
            return families.classical_pb_negk(n, k)
        return families.c_relative(n, k)
    if name in ("vesztergombi_oracle", "rook_band"):
        return families.vesztergombi_q_pb(*args).to_json_dict()
    if name == "fubini_oracle":
        return families.q_fubini(*args).to_json_dict()
    if name == "ordered_q_oracle":
        return families.ordered_q_pb(*args).to_json_dict()
    if name == "band_permanent":
        return families.classical_pb_negk(*args)
    raise ValueError(f"unknown oracle call {name!r}")


def load_reference(workload: str) -> dict[str, object]:
    """Expected observable per op key: recorded CLI digests, or the formula
    route for library calls."""
    if workload == "oracle-enum":
        return {argv_key(tuple(map(str, c))): formula_value(c) for c in _oracle_cells()}
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {key: recorded[key] for key in map(argv_key, cli_variants(workload))}


def op_key(op: Op) -> str:
    return argv_key(tuple(map(str, op.argv)))


def check_pass(workload: str, ops: list[Op], result: dict, reference: dict) -> list[str]:
    """Failures of one worker pass: one message per failed op, never dropped."""
    failures = []
    for op, rec in zip(ops, result["ops"]):
        key = op_key(op)
        if rec.get("error"):
            failures.append(f"{key}: raised {rec['error']}")
        elif rec["exit"] != 0:
            failures.append(f"{key}: exit code {rec['exit']}")
        elif rec["out"] != reference[key]:
            failures.append(f"{key}: output {rec['out']} != reference {reference[key]}")
    if workload == "verify-all" and not failures:
        want = reference[argv_key(VERIFY_ALL_ARGV)]
        if result["joined"] != want:
            # The join is no op of its own; every op of the pass is counted.
            failures += [f"{op_key(op)}: joined verify output {result['joined']} != "
                         f"`qpb {argv_key(VERIFY_ALL_ARGV)}` {want}" for op in ops]
    return failures
