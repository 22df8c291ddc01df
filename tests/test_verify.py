"""Verification-layer tests: reports, suites, conjecture harness, gf checks."""

import dataclasses
from fractions import Fraction

import pytest

from qpb import families, rook, verify
from qpb.errors import UnknownSuiteError
from qpb.exactnum import IntMatrix, QPoly
from qpb.qkernels import q_factorial, q_stirling
from qpb.verify import (
    CheckReport,
    at_closed_form_check,
    gf_check_cenkci,
    gf_check_classical,
    gf_check_ernst,
    oracle_check,
    q1_collapse_check,
    rook_block_law_check,
    run_suite,
    suite_names,
    sylvester_conjecture,
    sylvester_matrix,
)


def test_check_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "fail")  # fail needs a witness
    with pytest.raises(ValueError):
        CheckReport("x", {}, "meh")
    r = CheckReport("x", {"n": 1}, "pass")
    assert '"status": "pass"' in r.to_json()


def test_sylvester_matrix_reference_instance():
    assert sylvester_matrix(3) == IntMatrix([
        [1, 1, 1, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 1, 1, 1],
        [1, 1, 1, 1, 0],
        [0, 1, 1, 1, 1],
    ])
    assert sylvester_matrix(3).charpoly() == QPoly([1, -3, 6, -7, 5, -1])


def test_conjecture_anchored_case():
    report = sylvester_conjecture(3)
    assert report.status == "pass"
    # the identity at n = 3: (1+q) W_3(-q) is the known degree-6 polynomial
    w3 = sylvester_matrix(3).charpoly()
    assert (QPoly([1, 1]) * w3.subs_neg_q()) == QPoly([1, 4, 9, 13, 12, 6, 1])


def test_conjecture_range_and_bounds():
    for n in range(2, 11):
        assert sylvester_conjecture(n).status == "pass"
    with pytest.raises(ValueError):
        sylvester_conjecture(1)
    assert sylvester_conjecture(11).status == "pass"


def test_gf_classical():
    assert gf_check_classical(0, 5).status == "pass"
    assert gf_check_classical(-1, 5).status == "pass"
    assert gf_check_classical(-2, 5).status == "pass"
    assert gf_check_classical(1, 8).status == "pass"
    assert gf_check_classical(2, 6).status == "pass"


def test_gf_classical_row_values_against_table():
    # the expansion reproduces the fixed table rows directly
    from qpb.verify import KNOWN_NEGK_TABLE
    for k in (0, 1, 2):
        for n in range(6):
            assert families.classical_pb(n, -k) == KNOWN_NEGK_TABLE[k][n]


def test_gf_cenkci():
    for q in (Fraction(1), Fraction(2, 3), Fraction(-1)):
        for k in (-2, -1, 0):
            assert gf_check_cenkci(k, q, 6).status == "pass"
    with pytest.raises(ValueError):
        gf_check_cenkci(-1, Fraction(0), 4)


def test_gf_ernst():
    for m in range(5):
        assert gf_check_ernst(m, 8).status == "pass"
    with pytest.raises(ValueError):
        gf_check_ernst(5, 4)


def test_suites_deterministic_and_green():
    names = suite_names()
    assert "all" in names and "q1-collapse" in names
    first = [r.to_json() for r in run_suite("all", max_n=3, max_k=3, order=5)]
    second = [r.to_json() for r in run_suite("all", max_n=3, max_k=3, order=5)]
    assert first == second
    for line in first:
        assert '"status": "fail"' not in line


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")


def test_cenkci_comb_suite_reports_only():
    reports = run_suite("cenkci-comb", max_n=3, max_k=3)
    assert reports
    assert all(r.status == "reported" for r in reports)
    assert all("agrees" in r.witness for r in reports)


def test_fail_witness_is_replayable():
    # corrupt a comparison on purpose and replay the witness
    from qpb.verify import _pass_fail

    got = families.classical_pb_negk(3, 2)
    report = _pass_fail("demo", {"n": 3, "k": 2}, got == 47, {"got": str(got), "want": "47"})
    assert report.status == "fail"
    assert int(report.witness["got"]) == 46
    assert int(report.witness["got"]) != int(report.witness["want"])


def test_checks_fail_on_a_broken_route(monkeypatch):
    # Each check compares two routes; corrupting one route must turn the
    # report into a fail that carries the mismatching values.
    spec = families.FAMILIES["ordered_q"]
    monkeypatch.setitem(
        families.FAMILIES, "ordered_q", dataclasses.replace(spec, fn=lambda n, k: spec.fn(n, k) + 1)
    )
    report = q1_collapse_check("ordered_q", 2, 2)
    assert report.status == "fail"
    assert report.witness == {"got": "15", "want": "14"}

    monkeypatch.setattr(families, "q_fubini", lambda n: QPoly.zero())
    report = oracle_check("fubini", 3)
    assert report.status == "fail"
    assert report.witness == {"enumeration": "4 + 5*q + 3*q^2 + q^3", "formula": "0"}

    monkeypatch.setattr(families, "q_stirling", lambda v, n, m: q_stirling(v, n, m) * 2)
    reports = at_closed_form_check("zengA", [Fraction(1), Fraction(1, 2)], 1)
    assert [r.status for r in reports] == ["fail"]
    assert reports[0].witness == {"triangle": "1", "closed": "2"}

    monkeypatch.setattr(verify, "q_factorial", lambda i: q_factorial(i) * 2)
    square = rook.full_board(1, 1)
    report = rook_block_law_check([(square, square)])
    assert report.status == "fail"
    assert report.parameters == {"pairs": 1}
    assert report.witness["a"] == [[1]] and report.witness["lhs"] != report.witness["rhs"]
