"""CLI surface: formats, exit codes, determinism, documented conventions."""

import dataclasses
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from qpb import families, oeis, verify
from qpb.cli import main
from qpb.exactnum import QPoly, QRational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_table_reproduces_reference_values(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "classical_negk",
        "--max-n", "5", "--max-k", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k\\n,0,1,2,3,4,5"
    assert lines[1] == "0,1,1,1,1,1,1"
    assert lines[3] == "2,1,4,14,46,146,454"
    assert lines[6] == "5,1,32,454,4718,41506,329462"


def test_single_cell_table(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "classical_negk",
        "--max-n", "0", "--max-k", "0", "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "0,1"


def test_table_json_polynomials(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "vesztergombi_q",
        "--max-n", "3", "--max-k", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    cells = {(c["n"], c["k"]): c["value"] for c in payload["cells"]}
    assert cells[(2, 2)] == {"var": "q", "min_exp": 0, "coeffs": ["1", "3", "5", "4", "1"]}


def test_table_latex(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "classical_negk",
        "--max-n", "2", "--max-k", "1", "--format", "latex",
    )
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "1 & 1 & 2 & 4" in out


def test_eval_polynomial_and_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "ordered_q", "--n", "3", "--k", "1")
    assert code == 0
    assert out.strip() == "4 + 3*q + q^2"
    code, out, _ = run_cli(
        capsys, "eval", "--family", "ordered_q", "--n", "3", "--k", "1", "--q", "1",
    )
    assert out.strip() == "8"
    code, out, _ = run_cli(
        capsys, "eval", "--family", "at_q", "--n", "2", "--k", "2",
        "--q", "2/3", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["q"] == "2/3"


def test_eval_signed_family(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "cenkci_q", "--n", "2", "--k", "-1")
    assert code == 0
    assert out.strip() == "6 - 2*q"


def test_verify_suite_exit_codes_and_json_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "golden", "--max-n", "3", "--max-k", "3")
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert rec["status"] in ("pass", "reported")


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suite", "value-table")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # n = 2..5
    rec = json.loads(lines[1])
    assert rec["parameters"]["n"] == 3
    assert rec["status"] == "pass"


def test_conjecture_reaches_n_80(capsys, monkeypatch):
    # The harness reads vesztergombi_q_pb(n, 2) for every n up to 80 without
    # a size refusal.  The Sylvester matrices' characteristic polynomials
    # (18 s at n = 80 alone) are stood in for by the W_n that the identity
    # asks for, (target / (1+q)) at -q.
    def matrix(n):
        w_n = families.vesztergombi_q_pb(n, 2).exact_div(QPoly([1, 1])).subs_neg_q()
        return SimpleNamespace(charpoly=lambda: w_n)

    monkeypatch.setattr(verify, "sylvester_matrix", matrix)
    # The stand-in makes every n cheap, so the size bound measured on the
    # real matrices (test_conjecture_past_its_bound_exits_3) is lifted here.
    monkeypatch.setattr(verify, "CONJECTURE_MAX_N", 80)
    code, out, err = run_cli(capsys, "conjecture", "--max-n", "80")
    assert (code, err) == (0, "")
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["parameters"]["n"] for r in reports] == list(range(2, 81))
    assert {r["status"] for r in reports} == {"pass"}


@pytest.mark.parametrize("argv", [
    ("conjecture", "--max-n", "41"),
    ("verify", "--suite", "conjecture", "--max-n", "41"),
    ("verify", "--suite", "all", "--max-n", "41"),
])
def test_conjecture_past_its_bound_exits_3(capsys, argv):
    # past verify.CONJECTURE_MAX_N, refused before any n is checked, so
    # stdout stays empty
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "size limit: sylvester conjecture at n = 41 exceeds bound 40\n"


def test_oeis_command_offline(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QPB_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "oeis", "--id", "A099594", "--offline")
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "pass"
    assert rec["parameters"]["source"] == "bundled"


@pytest.mark.parametrize("seq_id", ["foo", "A12345"])
def test_oeis_malformed_id_is_a_domain_error(capsys, monkeypatch, seq_id):
    # A malformed id names no sequence: out-of-domain input, refused
    # before any fetch with one line on stderr.
    def no_fetch(*args, **kwargs):
        raise AssertionError("fetch of a malformed id")

    monkeypatch.setattr(oeis, "fetch_sequence", no_fetch)
    code, out, err = run_cli(capsys, "oeis", "--id", seq_id, "--offline")
    assert (code, out) == (2, "")
    assert err == f"qpb oeis: error: malformed OEIS id {seq_id!r}\n"


def test_size_limit_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "table", "--family", "permmatrix_q", "--max-n", "6", "--max-k", "6",
    )
    assert code == 3
    assert "size limit" in err


EXIT_CODE_CASES = [
    (("eval", "--family", "at_q", "--n", "2", "--k", "2", "--q", "2/3"), 0),
    # the cache file the test writes disagrees with the computed table
    (("oeis", "--id", "A099594", "--offline"), 1),
    (("eval", "--family", "at_q", "--n", "3", "--q", "abc"), 2),
    (("eval", "--family", "at_q", "--n", "3", "--k", "2", "--q=-1"), 2),
    (("eval", "--family", "at_q", "--n", "-1"), 2),
    (("table", "--family", "permmatrix_q", "--max-n", "6", "--max-k", "6"), 3),
    (("eval", "--family", "permmatrix_q", "--n", "-1"), 2),
    (("eval", "--family", "permmatrix_q", "--n", "2", "--k", "-1"), 2),
    (("table", "--max-n", "-2"), 2),
    # the domain check comes before the size guard
    (("eval", "--family", "permmatrix_q", "--n", "-5", "--k", "-5"), 2),
    (("verify", "--suite", "genfunc", "--order", "-1"), 2),
    (("verify", "--suite", "oracles", "--max-n", "-2"), 2),
    (("conjecture", "--max-n", "-3"), 2),
    (("verify", "--suite", "conjecture", "--max-n", "11"), 0),
    # a bound below 1 would compare no terms
    (("oeis", "--id", "A099594", "--offline", "--bound", "0"), 2),
    (("oeis", "--id", "A099594", "--offline", "--bound", "-1"), 2),
    # the identity starts at n = 2, so these would check nothing
    (("conjecture", "--max-n", "0"), 2),
    (("conjecture", "--max-n", "1"), 2),
    # values with an integer of more than 4300 decimal digits, which str()
    # refuses; classical_negk (2000, 2000) hits the same path after ~13 s
    (("eval", "--family", "classical_anyk", "--n", "3", "--k", "9000"), 3),
    (("eval", "--family", "classical_anyk", "--n", "3", "--k", "9000", "--format", "json"), 3),
    (("eval", "--family", "classical_negk", "--n", "3", "--k", "8000"), 3),
    (("eval", "--family", "classical_negk", "--n", "3", "--k", "8000", "--format", "json"), 3),
    # at_q with k > 0 past families.AT_Q_MAX_NK, refused before any work
    (("eval", "--family", "at_q", "--n", "3", "--k", "250"), 3),
    (("eval", "--family", "at_q", "--n", "3", "--k", "250", "--format", "json"), 3),
    # a shape with no columns has one matrix, scored without a row search
    (("eval", "--family", "permmatrix_q", "--n", "5000", "--k", "0"), 0),
    # paired sums past families.PAIRED_VALUE_MAX_SIZE or, for a table,
    # PAIRED_TABLE_MAX_SIZE, refused before any work
    (("eval", "--family", "lonesum_q", "--n", "1000", "--k", "1"), 3),
    (("table", "--family", "lonesum_q", "--max-n", "500", "--max-k", "1"), 3),
    (("eval", "--family", "ordered_q", "--n", "100", "--k", "100"), 3),
    (("eval", "--family", "vesztergombi_q", "--n", "100", "--k", "100"), 3),
    (("table", "--family", "vesztergombi_q", "--max-n", "100", "--max-k", "100"), 3),
    # a long carlitz value is cheap and inside its bound
    (("eval", "--family", "ordered_q", "--n", "1000", "--k", "1"), 0),
]


@pytest.mark.parametrize("argv, expected", EXIT_CODE_CASES)
def test_exit_code_contract(capsys, tmp_path, monkeypatch, argv, expected):
    monkeypatch.setenv("QPB_CACHE_DIR", str(tmp_path))
    (tmp_path / "A099594.txt").write_text("0 1\n1 1\n2 1\n3 1\n4 99\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    if expected >= 2:
        assert out == ""
        assert len(err.splitlines()) == 1


def test_oversized_permmatrix_table_stops_at_its_corner(capsys, monkeypatch):
    # The corner cell comes first and trips the matrix-size guard, so no
    # other cell is computed.
    spec = families.FAMILIES["permmatrix_q"]
    calls = []

    def fn(n, k):
        calls.append((n, k))
        return spec.fn(n, k)

    monkeypatch.setitem(families.FAMILIES, "permmatrix_q", dataclasses.replace(spec, fn=fn))
    code, out, err = run_cli(
        capsys, "table", "--family", "permmatrix_q", "--max-n", "6", "--max-k", "6",
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == ["size limit: matrix search over 36 cells at (6, 6)"]
    assert calls == [(6, 6)]


def test_at_q_polynomial_branch_is_bounded_by_its_degree(capsys, monkeypatch):
    # For k <= 0, at_q's value has degree n*(n-1)/2 + n*|k|; at the carlitz
    # value bound, 2**11, a value computes, and one past it exits 3 before
    # any work.
    bound = families.PAIRED_VALUE_MAX_SIZE["carlitz"]
    assert bound == 2 ** 11
    for n, k in ((1, 2048), (2, 1023)):
        code, out, _ = run_cli(capsys, "eval", "--family", "at_q", "--n", str(n), "--k", str(-k))
        assert code == 0 and f"q^{n * (n - 1) // 2 + n * k}" in out
    sums = []
    monkeypatch.setattr(families, "_carlitz_power_sum", lambda *args: sums.append(args) or QPoly.one())
    past = ((1, 2049), (2, 1024), (65, 0), (40, 40), (45, 45), (20, 200))
    for n, k in past:
        for argv in (("eval", "--n", str(n), "--k", str(-k)), ("table", "--max-n", str(n), "--max-k", str(k))):
            code, out, err = run_cli(capsys, argv[0], "--family", "at_q", *argv[1:])
            assert (code, out) == (3, "")
            assert err.splitlines() == [
                f"size limit: at_q_pb({n}, {-k}): degree {n * (n - 1) // 2 + n * k} "
                f"exceeds bound {bound} for k <= 0"]
    assert sums == []
    # the values at the bound pass the guard; their sums are stubbed out.
    # A table up to one of them takes far longer than its corner, so the
    # table's own measure refuses it before any cell is computed.
    for n, k in ((64, 0), (50, 16), (20, 92), (1, 2048)):
        assert n * (n - 1) // 2 + n * k <= bound
        code, out, _ = run_cli(capsys, "eval", "--family", "at_q", "--n", str(n), "--k", str(-k), "--format", "json")
        assert code == 0 and json.loads(out)
        code, out, err = run_cli(
            capsys, "table", "--family", "at_q", "--max-n", str(n), "--max-k", str(k), "--format", "json")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"size limit: at_q table up to ({n}, {-k}): size ")
    assert sums == [(64, 0, 0), (50, -16, 0), (20, -92, 0), (1, -2048, 0)]


def test_at_q_table_is_bounded_by_its_own_measure(capsys, monkeypatch):
    # An at_q table (k <= 0) costs far more than its corner value, so it is
    # measured on its own: (n+1)**2 * (k+1) * degree * (n+k) * bits(n+1).
    # Inside the bound, every shape of the cost table took at most 1.35 s;
    # the six refused here took 1.9 s to past 60 s.
    bound = families.AT_Q_TABLE_MAX_SIZE
    assert bound == 2 ** 30
    sums = []
    monkeypatch.setattr(families, "_carlitz_power_sum", lambda *args: sums.append(args) or QPoly.one())
    for n, k in ((1, 600), (55, 0), (30, 30), (10, 100), (1, 2048), (8, 100)):
        code, out, err = run_cli(capsys, "table", "--family", "at_q", "--max-n", str(n), "--max-k", str(k))
        assert (code, out) == (3, "")
        size = (n + 1) ** 2 * (k + 1) * (n * (n - 1) // 2 + n * k) * (n + k) * (n + 1).bit_length()
        assert size > bound
        assert err.splitlines() == [f"size limit: at_q table up to ({n}, {-k}): size {size} exceeds bound {bound}"]
    assert sums == []
    for n, k in ((1, 400), (50, 0), (10, 50), (15, 30), (0, 5000)):
        code, out, err = run_cli(capsys, "table", "--family", "at_q", "--max-n", str(n), "--max-k", str(k))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == k + 2
    assert len(sums) == 2 * 401 + 51 + 11 * 51 + 16 * 31 + 5001


@pytest.mark.parametrize("fmt", ["csv", "latex", "json"])
def test_table_value_too_long_to_print_writes_nothing(capsys, monkeypatch, fmt):
    # one cell past the interpreter's digit limit, after cells that print
    huge = families.FamilySpec(lambda n, k: 10 ** 5000 if (n, k) == (2, 1) else n + k)
    monkeypatch.setitem(families.FAMILIES, "classical_negk", huge)
    code, out, err = run_cli(
        capsys, "table", "--family", "classical_negk", "--max-n", "2", "--max-k", "2", "--format", fmt,
    )
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        f"size limit: the value has an integer of more than {sys.get_int_max_str_digits()} "
        "decimal digits, which Python does not convert to text"
    ]


class ClosedPipe:
    """A stdout whose reader has gone, as under `qpb verify | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ("conjecture", "--max-n", "10"),
    ("verify", "--suite", "golden"),
    ("table", "--family", "ordered_q", "--max-n", "3", "--max-k", "1"),
])
def test_closed_stdout_exits_1_with_one_line(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"qpb {argv[0]}: error: stdout closed before the output was complete"]


def test_flag_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "not_a_family"])
    assert exc.value.code == 2


def test_help_documents_conventions(capsys):
    for sub in ("table", "eval", "verify", "conjecture", "oeis"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "1-based" in out
        assert "signed k" in out


def test_module_invocation_subprocess():
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "qpb", "eval", "--family", "q_fubini_like", "--n", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2  # unknown family rejected before any work
    assert "q_fubini_like" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "qpb", "table", "--max-n", "3", "--max-k", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[3] == "2,1,4,14,46"


def test_byte_identical_across_processes():
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")

    def run_once(seed):
        proc = subprocess.run(
            [sys.executable, "-m", "qpb", "verify", "--suite", "golden"],
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin", "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        return proc.stdout

    assert run_once("1") == run_once("42")


# Recorded stdout digests of the benchmark's command lines (read only).
REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)
GUARDED_ARGV = ["verify --suite all --max-n 6 --max-k 6 --order 8", "conjecture --max-n 10"] + sorted(
    key for key in REFERENCE if key.startswith(("eval ", "table "))
)


def test_stdout_matches_recorded_digests(capsys):
    mismatches = []
    for key in GUARDED_ARGV:
        code, out, _ = run_cli(capsys, *key.split(" "))
        data = out.encode("utf-8")
        if code != 0 or hashlib.sha256(data).hexdigest() != REFERENCE[key]["sha256"]:
            mismatches.append(key)
    # the eval and table keys were found
    assert {key.split(" ")[0] for key in GUARDED_ARGV} == {"verify", "conjecture", "eval", "table"}
    assert mismatches == []


def test_table_route_follows_the_gate(capsys, monkeypatch):
    # A paired-sum family's table takes the packed route once its shorter
    # side reaches the gate, and the per-cell route below it.
    paired_table = families.paired_table
    calls = []

    def spy(family, max_n, max_k):
        calls.append((max_n, max_k))
        return paired_table(family, max_n, max_k)

    monkeypatch.setattr(families, "paired_table", spy)
    gate = families.PACKED_TABLE_MIN_SIDE
    shapes = ((48, gate - 1), (gate - 1, 48), (48, gate), (gate, gate), (0, 0))
    outputs = []
    for max_n, max_k in shapes:
        code, out, _ = run_cli(
            capsys, "table", "--family", "ordered_q",
            "--max-n", str(max_n), "--max-k", str(max_k), "--format", "json",
        )
        assert code == 0
        outputs.append(json.loads(out))
    assert calls == [(48, gate), (gate, gate)]
    assert outputs[2]["cells"][:len(outputs[0]["cells"])] == outputs[0]["cells"]


def _reference_table(family, max_n, max_k, fmt):
    """A table as `qpb table` wrote it from one list of rendered values:
    every cell materialised, each value rendered, and, for json, one
    json.dumps of the whole payload."""
    cells = list(families.table(family, max_n, max_k))
    if fmt == "json":
        payload = {
            "family": family,
            "max_n": max_n,
            "max_k": max_k,
            "cells": [
                {"n": n, "k": k, "value": v.to_json_dict() if isinstance(v, (QPoly, QRational)) else str(v)}
                for n, k, v in cells
            ],
        }
        return json.dumps(payload, sort_keys=True) + "\n"
    by_k = {}
    for _, k, v in cells:
        by_k.setdefault(k, []).append(str(v))
    columns = [str(n) for n in range(max_n + 1)]
    if fmt == "csv":
        rows = ["k\\n," + ",".join(columns)] + [f"{k}," + ",".join(texts) for k, texts in by_k.items()]
        return "\n".join(rows) + "\n"
    rows = ["\\begin{tabular}{c|" + "c" * (max_n + 1) + "}", "k/n & " + " & ".join(columns) + " \\\\", "\\hline"]
    rows += [f"{k} & " + " & ".join(texts) + " \\\\" for k, texts in by_k.items()]
    return "\n".join(rows + ["\\end{tabular}"]) + "\n"


# The empty table, two mirrored shapes (square and not) on the packed
# route, and a tall and a wide table on the per-cell route; permmatrix_q's
# matrix search takes at most 24 cells, so its mirrored shapes are smaller.
GRID_SHAPES = ((0, 0), (8, 8), (12, 5), (20, 1), (1, 20))
GRID_SHAPES_WITHIN_GUARD = {"permmatrix_q": ((0, 0), (4, 4), (6, 4), (20, 1), (1, 20))}


@pytest.mark.parametrize("fmt", ["csv", "json", "latex"])
@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_table_bytes_match_one_rendering_of_the_whole_table(capsys, family, fmt):
    for max_n, max_k in GRID_SHAPES_WITHIN_GUARD.get(family, GRID_SHAPES):
        code, out, err = run_cli(
            capsys, "table", "--family", family,
            "--max-n", str(max_n), "--max-k", str(max_k), "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert out == _reference_table(family, max_n, max_k, fmt), (max_n, max_k)


@pytest.mark.parametrize("fmt, method", [("csv", "__str__"), ("json", "to_json_dict")])
def test_a_mirrored_value_is_rendered_once(capsys, monkeypatch, fmt, method):
    # A 9x9 ordered_q table has 45 distinct values: paired_table yields the
    # mirrored value itself for each of the 36 cells above the diagonal.
    render = getattr(QPoly, method)
    calls = []

    def counted(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(QPoly, method, counted)
    code, _, _ = run_cli(
        capsys, "table", "--family", "ordered_q", "--max-n", "8", "--max-k", "8", "--format", fmt,
    )
    assert code == 0
    assert len(calls) == 45


def test_json_table_peak_memory_follows_its_output(capsys):
    # A json table is written from its cells' texts, not encoded as one
    # payload holding every coefficient string and dict at once (17 times
    # the output when it was).  The first call warms the memo tables.
    argv = ("table", "--family", "lonesum_q", "--max-n", "48", "--max-k", "1", "--format", "json")
    run_cli(capsys, *argv)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * len(out.encode())
