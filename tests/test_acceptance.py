"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines; every stated runtime bound and tolerance (exact equality
everywhere, zero tolerance) is asserted here.  The comparisons themselves
live in `qpb.verify`; each criterion runs them over its own ranges and
asserts how many checks ran.
"""

import time
from fractions import Fraction

from qpb import oeis, rook, verify
from reference_objects import gr_inv, nu_weight, placement_from_permutation


def _report(tag: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")
    assert ok, f"{tag} failed {suffix}"


def _report_checks(tag, reports, expected, start, bound=None, extra=()):
    """Every report must pass, exactly ``expected`` of them must have run,
    every item of ``extra`` must hold, and the time since ``start`` must
    stay under ``bound`` seconds when one is given."""
    elapsed = time.perf_counter() - start
    failed = [r.to_json() for r in reports if r.status != "pass"]
    ok = (not failed and len(reports) == expected and all(extra)
          and (bound is None or elapsed < bound))
    detail = f"{len(reports) - len(failed)}/{expected} checks, {elapsed:.2f}s"
    if extra:
        detail += f", {sum(extra)}/{len(extra)} further items"
    if failed:
        detail += f"; first failure {failed[0]}"
    _report(tag, ok, detail)


def test_criterion_1_value_table():
    start = time.perf_counter()
    reports = verify.run_suite("value-table")
    _report_checks("criterion 1 (36-entry value table)", reports, 36, start, bound=1.0)


EXAMPLE_MATRIX = (
    (1, 1, 1, 0, 0, 1, 1, 1, 0),
    (1, 0, 1, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 1, 1, 1, 0),
    (1, 0, 1, 0, 0, 1, 0, 1, 0),
    (1, 1, 1, 0, 0, 1, 1, 1, 0),
)


def test_criterion_2_golden_set():
    start = time.perf_counter()
    reports = verify.run_suite("golden")
    cfg = placement_from_permutation((3, 1, 5, 2, 4), rook.build_v_matrix(3, 2))
    extra = (nu_weight(EXAMPLE_MATRIX) == 17, gr_inv(cfg) == 4)
    _report_checks("criterion 2 (golden value set)", reports, 14, start, bound=5.0, extra=extra)


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    reports = [verify.oracle_check("fubini", n) for n in range(8)]
    reports += [verify.oracle_check("ordered", n, k) for n in range(6) for k in range(6)]
    lonesum_cells = [(n, k) for n in range(5) for k in range(5)] + [(2, 5), (5, 2)]
    reports += [verify.oracle_check("lonesum", n, k) for n, k in lonesum_cells]
    reports += [
        verify.oracle_check("vesztergombi", n, total - n)
        for total in range(9) for n in range(total + 1)
    ]
    reports += [
        verify.oracle_check("rook-band", n, total - n)
        for total in range(8) for n in range(total + 1)
    ]
    _report_checks(
        "criterion 3 (formula = enumeration)", reports, 8 + 36 + 27 + 45 + 36, start, bound=120.0
    )


def test_criterion_4_rook_laws():
    start = time.perf_counter()
    reports = [verify.rook_full_square_check(n) for n in range(6)]
    reports += [verify.rook_staircase_check(n, k) for n in range(1, 6) for k in range(n + 1)]
    # reflection: exhaustive over every square board up to 3x3
    reports += [verify.rook_reflection_check(n) for n in (1, 2, 3)]
    # block law: exhaustive pairs up to 2x2 plus structured 3x3 boards
    small = [b for n in (1, 2) for b in verify._all_square_boards(n)]
    trio = (
        rook.secondary_staircase(3),
        rook.full_board(3, 3),
        rook.lower_triangular(3),
        rook.upper_triangular(3),
    )
    pairs = [(a, b) for a in small for b in small] + [(a, b) for a in trio for b in trio]
    reports.append(verify.rook_block_law_check(pairs))
    _report_checks(
        "criterion 4 (rook laws, exact Laurent)", reports, 6 + 20 + 3 + 1, start,
        extra=(len(pairs) == 18 * 18 + 16,),
    )


def test_criterion_5_cross_formula_consistency():
    start = time.perf_counter()
    # explicit-vs-paired and step-down for n, k <= 8, Cenkci step-down for
    # 1 <= n <= 6 and -4 <= k <= 0, shifted-vs-carlitz for n <= 8
    reports = verify.run_suite("cross-formula", max_n=8, max_k=8)
    reports += [
        verify.q1_collapse_check(family, n, k)
        for n in range(6)
        for k in range(6)
        for family in verify.Q1_COLLAPSE_FAMILIES
        # enumeration-backed family, documented size bound
        if family != "permmatrix_q" or n * k <= 24
    ]
    _report_checks(
        "criterion 5 (cross-formula consistency)", reports, 81 * 2 + 30 + 45 + 36 * 5 + 35, start
    )


def test_criterion_6_generating_functions():
    start = time.perf_counter()
    for k in (0, -1, -2):
        assert verify.gf_check_classical(k, 5).status == "pass"
    assert verify.gf_check_classical(1, 8).status == "pass"
    for q in (Fraction(1), Fraction(2, 3), Fraction(-1)):
        for k in (-2, -1, 0):
            assert verify.gf_check_cenkci(k, q, 6).status == "pass"
    for m in range(5):
        assert verify.gf_check_ernst(m, 8).status == "pass"
    elapsed = time.perf_counter() - start
    _report("criterion 6 (exact generating functions)", True, f"{elapsed:.2f}s")


def test_criterion_7_conjecture_harness():
    start = time.perf_counter()
    verdicts = {}
    for n in range(2, 9):
        verdicts[n] = verify.sylvester_conjecture(n).status
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (conjecture harness)",
        all(v == "pass" for v in verdicts.values()) and elapsed < 30.0,
        "verdicts " + ", ".join(f"n={n}:{s}" for n, s in verdicts.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_8_triangle_engines():
    start = time.perf_counter()
    # classical rows, carlitz_beta(2) at q = 1, and the rule-B bridge to
    # at_q_pb for -3 <= k <= 3 and n < 6, with the suite's own closed forms
    reports = verify.run_suite("akiyama-tanigawa", max_n=5)
    generic = [Fraction((-1) ** m * (2 * m + 3), m * m + 2) for m in range(8)]
    for rule in ("zengA", "zengB"):
        reports += verify.at_closed_form_check(rule, generic, 7)
    _report_checks(
        "criterion 8 (row-rewriting engines)", reports, 2 + 12 + 1 + 5 + 42 + 14, start
    )


def test_criterion_9_comb_identity_report():
    start = time.perf_counter()
    reports = verify.run_suite("cenkci-comb", max_n=4, max_k=4)
    assert len(reports) == 25
    assert all(r.status == "reported" for r in reports)
    matrix = {(r.parameters["n"], r.parameters["k"]): r.witness["agrees"] for r in reports}
    agree_cells = sorted(cell for cell, agrees in matrix.items() if agrees)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 9 (comb-identity report matrix)",
        len(matrix) == 25,
        f"agreements at {agree_cells}, {elapsed:.2f}s",
    )


def test_oeis_crosscheck_bundled():
    report = oeis.crosscheck_table("A099594", bound=21, offline=True)
    _report("OEIS cross-check (bundled, 21 terms)", report.status == "pass")
