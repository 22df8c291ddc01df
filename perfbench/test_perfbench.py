"""Tests of the benchmark itself: seeding, reference coverage, and that its
output checks can fail.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter

import pytest

import run as bench
import workloads
from spans import EXACT_METRICS, Tracer
from workloads import WORKLOADS, check_pass, make_ops, op_key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_op_list(workload):
    assert make_ops(workload, 7, 3) == make_ops(workload, 7, 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_same_cells(workload):
    cells = Counter(op.cell for op in make_ops(workload, 1))
    for seed, pass_index in ((2, 0), (3, 5), (1000, 1)):
        assert Counter(op.cell for op in make_ops(workload, seed, pass_index)) == cells


def test_seed_changes_order_and_choices():
    a = [op.argv for op in make_ops("rational-eval", 1)]
    b = [op.argv for op in make_ops("rational-eval", 2)]
    assert a != b
    assert any("--q=" in " ".join(argv) for argv in a)


@pytest.mark.parametrize("workload", ["verify-all", "rational-eval", "poly-tables"])
def test_every_cli_op_has_a_reference(workload):
    reference = workloads.load_reference(workload)
    for seed in range(20):
        for op in make_ops(workload, seed, seed % 3):
            assert op_key(op) in reference


def _run_in_process(ops):
    """A worker-shaped result for ops run in this process (no timing)."""
    records = []
    for op in ops:
        if op.kind == "cli":
            code, text = workloads.run_cli(op.argv)
            out = workloads.cli_observable(text)
        else:
            code, out = 0, workloads.lib_observable(op.argv, workloads.run_lib(op.argv))
        records.append({"ms": 0.0, "exit": code, "out": out, "error": None})
    return {"ops": records}


def test_corrupted_digest_is_a_failure():
    ops = [op for op in make_ops("rational-eval", 4) if op.cell[1] <= 3]
    result = _run_in_process(ops)
    reference = workloads.load_reference("rational-eval")
    assert check_pass("rational-eval", ops, result, reference) == []
    bad = dict(reference)
    bad[op_key(ops[0])] = {**bad[op_key(ops[0])], "sha256": "0" * 64}
    failures = check_pass("rational-eval", ops, result, bad)
    assert len(failures) == 1 and op_key(ops[0]) in failures[0]


def test_corrupted_oracle_value_is_a_failure():
    cheap = {("fubini_oracle", 7), ("band_permanent", 7, 7), ("class_poly", "lonesum", 2, 3, "nu_sum"),
             ("class_poly", "perm_matrix", 3, 3, "ones_minus_cols"),
             ("class_poly", "gamma_free", 2, 4, "none"), ("rook_band", 4, 4)}
    ops = [op for op in make_ops("oracle-enum", 4) if op.cell in cheap]
    assert len(ops) == len(cheap)
    result = _run_in_process(ops)
    reference = workloads.load_reference("oracle-enum")
    assert check_pass("oracle-enum", ops, result, reference) == []
    for op in ops:
        bad = dict(reference)
        value = bad[op_key(op)]
        bad[op_key(op)] = value + 1 if isinstance(value, int) else {**value, "min_exp": 99}
        assert len(check_pass("oracle-enum", ops, result, bad)) == 1


def test_failures_reach_fail_ratio(monkeypatch):
    real = workloads.load_reference("rational-eval")
    victim = op_key(make_ops("rational-eval", 9, 0)[0])
    corrupted = {**real, victim: {**real[victim], "bytes": real[victim]["bytes"] + 1}}
    monkeypatch.setattr(bench, "load_reference", lambda workload: corrupted)
    result = bench.run("rational-eval", 9, 0.0, trace=False)
    meta = result["meta"]
    assert meta["failed"] >= 1 and meta["fail_ratio"] == meta["failed"] / meta["attempted"] > 0
    assert any(victim in msg for msg in result["failures"])


def _bindings():
    from qpb import cli, exactnum, families, qkernels, verify

    return {
        "mul": exactnum.QPoly.__dict__["__mul__"],
        "init": exactnum.QRational.__dict__["__init__"],
        "stirling": qkernels.q_stirling,
        "stirling_in_families": families.q_stirling,
        "stirling_in_verify": verify.q_stirling,
        "at_q_spec": families.FAMILIES["at_q"],
        "suite": verify._SUITES["golden"],
        "main": cli.main,
    }


def test_tracer_restores_every_binding():
    from qpb import families, verify

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert families.q_stirling is not before["stirling"]
        assert verify.q_stirling is families.q_stirling
        assert families.FAMILIES["at_q"].fn is families.at_q_pb
        workloads.run_cli(("eval", "--family", "at_q", "--n", "3", "--k", "2"))
    finally:
        tracer.restore()
    assert _bindings() == before
    layers = tracer.layer_metrics(0)
    assert layers["exactnum.qrational_new.calls"] > 0
    assert layers["families.at_q_pb.s"] > 0 and layers["cli.self_s"] > 0


def test_exact_counts_repeat_for_a_seed():
    bench.OUT_DIR.mkdir(exist_ok=True)

    def traced_pass():
        cmd = [sys.executable, str(bench.HERE / "worker.py"), "rational-eval", "5", "1", "1",
               repr(time.monotonic()), str(bench.OUT_DIR)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout.splitlines()[-1])["layers"]

    first, second = traced_pass(), traced_pass()
    assert {m: first[m] for m in EXACT_METRICS} == {m: second[m] for m in EXACT_METRICS}
    assert first["exactnum.qrational_new.calls"] > 0 and first["cli.stdout_bytes"] > 0
