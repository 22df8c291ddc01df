"""Verification-layer tests: reports, suites, conjecture harness, gf checks."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest

from qpb import families, rook, verify
from qpb.errors import SizeLimitError, UnknownSuiteError
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
from reference_objects import count_class


def test_check_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "fail")  # fail needs a witness
    with pytest.raises(ValueError):
        CheckReport("x", {}, "meh")
    r = CheckReport("x", {"n": 1}, "pass")
    assert '"status": "pass"' in r.to_json()


class Unprintable:
    """Equal to anything; rendering it is an error."""

    __hash__ = None

    def __eq__(self, other):
        return True

    def __str__(self):
        raise AssertionError("a side of a passing check was rendered")


def test_compare_pass_renders_neither_side():
    report = CheckReport.compare("x", {"n": 1}, Unprintable(), Unprintable(), ("lhs", "rhs"), index=0)
    assert (report.status, report.parameters, report.witness) == ("pass", {"n": 1}, None)


def test_compare_fail_carries_context_and_both_sides():
    report = CheckReport.compare("x", {"n": 1}, QPoly([0, 1]), 3, ("lhs", "rhs"), index=4, board=[[1]])
    assert (report.status, report.parameters) == ("fail", {"n": 1})
    assert report.witness == {"index": 4, "board": [[1]], "lhs": "q", "rhs": "3"}
    assert CheckReport.compare("x", {}, 2, 3).witness == {"got": "2", "want": "3"}


def test_compare_each_reports_the_first_pair_that_differs():
    def pairs():
        yield Unprintable(), Unprintable()
        yield 1, 2
        raise AssertionError("a pair after the first fail was computed")

    report = CheckReport.compare_each("x", {"n": 1}, pairs(), ("lhs", "rhs"), lambda i: {"index": i})
    assert (report.status, report.witness) == ("fail", {"index": 1, "lhs": "1", "rhs": "2"})
    # a pass renders no side and builds no context
    unprintable = [(Unprintable(), Unprintable())] * 3
    passed = CheckReport.compare_each("x", {"n": 1}, unprintable, ("lhs", "rhs"), lambda i: 1 / 0)
    assert (passed.status, passed.witness) == ("pass", None)
    assert CheckReport.compare_each("x", {}, []).status == "pass"


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


def test_conjecture_pass_does_no_witness_work(monkeypatch):
    # a pass neither forms the sign-flipped candidate nor renders a side
    def refuse(self):
        raise AssertionError("witness work on a pass")

    monkeypatch.setattr(QPoly, "__neg__", refuse)
    monkeypatch.setattr(QPoly, "__str__", refuse)
    assert sylvester_conjecture(3).status == "pass"


def test_conjecture_range_and_bounds():
    for n in range(2, 31):
        assert sylvester_conjecture(n).status == "pass"
    with pytest.raises(ValueError):
        sylvester_conjecture(1)


def test_conjecture_size_bound():
    # the benchmark's runs (--max-n 10 and 6) stay inside the bound
    assert verify.CONJECTURE_MAX_N == 40
    with pytest.raises(SizeLimitError):
        sylvester_conjecture(41)
    # refused before any n, or any other suite of "all", is checked
    for suite in ("conjecture", "all"):
        with pytest.raises(SizeLimitError):
            verify.run_suite(suite, max_n=41)


def _gamma_free_first_column(n, k):
    """The n x (k+1) gamma-free matrices counted directly and by their
    first column: pick a set R of rows carrying a 1 in column one; all of
    them except the bottom-most are forced to be zero to the right, and
    the untouched rows plus that bottom row form a free gamma-free matrix
    with k columns.  The empty R leaves an all-zero first column."""
    lhs = count_class("gamma_free", n, k + 1)
    rhs = count_class("gamma_free", n, k) + sum(
        comb(n, r) * count_class("gamma_free", n - r + 1, k) for r in range(1, n + 1)
    )
    return lhs, rhs


def test_gamma_free_decomposition():
    for n, k in ((2, 2), (1, 4), (3, 2), (4, 3)):
        lhs, rhs = _gamma_free_first_column(n, k)
        assert lhs == rhs, (n, k)
    with pytest.raises(SizeLimitError):  # the scan's bound on n*(k+1)
        _gamma_free_first_column(4, 6)


def test_gf_classical():
    # -3 <= k <= 3, each to the check's order cap
    for k in range(-3, 4):
        assert gf_check_classical(k, 12).status == "pass"
    with pytest.raises(ValueError):
        gf_check_classical(0, 13)


def test_gf_classical_row_values_against_table():
    # the expansion reproduces the fixed table rows directly
    from qpb.verify import KNOWN_NEGK_TABLE
    for k in (0, 1, 2):
        for n in range(6):
            assert families.classical_pb(n, -k) == KNOWN_NEGK_TABLE[k][n]


def test_gf_cenkci():
    for q in (Fraction(1), Fraction(2, 3), Fraction(-1)):
        for k in (-2, -1, 0):
            assert gf_check_cenkci(k, q, 10).status == "pass"
    with pytest.raises(ValueError):
        gf_check_cenkci(-1, Fraction(0), 4)
    with pytest.raises(ValueError):
        gf_check_cenkci(-1, Fraction(1), 11)


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
    got = families.classical_pb_negk(3, 2)
    report = CheckReport.compare("demo", {"n": 3, "k": 2}, got, 47)
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
    assert report.witness == {"a": [[1]], "b": [[1]], "lhs": "1 + q", "rhs": "4 + 4*q"}


_vesztergombi_q_pb = families.vesztergombi_q_pb
_cenkci_q_pb = families.cenkci_q_pb
_akiyama_tanigawa = families.akiyama_tanigawa
_carlitz_beta = families.carlitz_beta
_at_q_pb = families.at_q_pb
_q_rook_number = rook.q_rook_number


def _w_n(n):
    """(1+q) * W_n(-q), the candidate side of the Sylvester conjecture."""
    return QPoly([1, 1]) * sylvester_matrix(n).charpoly().subs_neg_q()


# case -> (check id, module, attribute, broken replacement, the check's
# run, expected (parameters, witness) of its first fail report).  Each run
# compares two routes, one of which the replacement breaks.
BROKEN_ROUTES = {
    "value-table": (
        "value-table", families, "classical_pb_negk", lambda n, k: 7,
        lambda: run_suite("value-table"),
        ({"n": 0, "k": 0}, {"got": "7", "want": "1"}),
    ),
    "golden": (
        "golden", families, "q_fubini", lambda n: QPoly.zero(),
        lambda: run_suite("golden"),
        ({"item": "fubini-3"}, {"got": "0", "want": "4 + 5*q + 3*q^2 + q^3"}),
    ),
    "golden-vesztergombi-k1": (
        "golden", families, "vesztergombi_q_pb",
        lambda n, k: QPoly.q(n) if k == 1 else _vesztergombi_q_pb(n, k),
        lambda: run_suite("golden"),
        ({"item": "vesztergombi-1-1"}, {"got": "q", "want": "1 + q"}),
    ),
    "golden-permanent-v5": (
        "golden", rook, "build_v_matrix", lambda n, k: rook.full_board(2, 2),
        lambda: run_suite("golden"),
        ({"item": "permanent-v5"}, {"got": "2", "want": "46"}),
    ),
    "rook-full-square": (
        "rook-full-square", verify, "q_factorial", lambda i: q_factorial(i) * 2,
        lambda: [verify.rook_full_square_check(2)],
        ({"n": 2}, {"got": "1 + q", "want": "2 + 2*q"}),
    ),
    "rook-staircase": (
        "rook-staircase", verify, "q_stirling", lambda v, n, m: q_stirling(v, n, m) * 2,
        lambda: [verify.rook_staircase_check(2, 1)],
        ({"n": 2, "k": 1}, {"got": "2*q^2 + q^3", "want": "4*q^2 + 2*q^3"}),
    ),
    "explicit-vs-paired": (
        "explicit-vs-paired", families, "classical_pb", lambda n, k: Fraction(n + 1, 2),
        lambda: run_suite("cross-formula", max_n=1, max_k=1),
        ({"n": 0, "k": 0}, {"explicit": "1/2", "paired": "1"}),
    ),
    "step-down-recursion": (
        # A constant column breaks the step down from n = 1 on.
        "step-down-recursion", families, "classical_pb_negk", lambda n, k: 7,
        lambda: run_suite("cross-formula", max_n=1, max_k=0),
        ({"n": 1, "k": 0}, {"got": "False", "want": "True"}),
    ),
    "cenkci-step-down": (
        "cenkci-step-down", families, "cenkci_q_pb",
        lambda n, k: _cenkci_q_pb(n, k) + (k == -3),
        lambda: run_suite("cross-formula", max_n=1, max_k=0),
        ({"n": 1, "k": -3}, {"got": "False", "want": "True"}),
    ),
    "at-classical-rows": (
        # The classical rule is linear in its initial row, so doubling the
        # row doubles row 1 of the triangle.
        "at-classical-rows", families, "akiyama_tanigawa",
        lambda rule, row, n_rows: _akiyama_tanigawa(rule, [2 * x for x in row], n_rows),
        lambda: run_suite("akiyama-tanigawa", max_n=1),
        ({"row": 1}, {"got": "['1', '2/3', '1/2']", "want": "['1/2', '1/3', '1/4']"}),
    ),
    "shifted-vs-carlitz": (
        "shifted-vs-carlitz", verify, "q_stirling",
        lambda v, n, m: q_stirling(v, n, m) * (2 if v == "shifted" else 1),
        lambda: run_suite("cross-formula", max_n=1, max_k=0),
        ({"n": 0, "k": 0}, {"shifted": "2", "graded": "1"}),
    ),
    "at-zengB-closed-form": (
        "at-zengB-closed-form", families, "q_stirling", lambda v, n, m: q_stirling(v, n, m) * 2,
        lambda: at_closed_form_check("zengB", [Fraction(1), Fraction(1, 2)], 2),
        ({"n": 0}, {"triangle": "1", "closed": "2"}),
    ),
    "carlitz-beta-vs-triangle": (
        "carlitz-beta-vs-triangle", families, "carlitz_beta", lambda n: _carlitz_beta(n) + 1,
        lambda: run_suite("akiyama-tanigawa", max_n=2),
        ({"n": 2}, {
            "closed": "(1 + 3*q + 2*q^2 + q^3) / (1 + 2*q + 2*q^2 + q^3)",
            "triangle": "(q) / (1 + 2*q + 2*q^2 + q^3)",
        }),
    ),
    "carlitz-beta": (
        "carlitz-beta", families, "carlitz_beta", lambda n: _carlitz_beta(n) + 1,
        lambda: run_suite("akiyama-tanigawa", max_n=2),
        ({"n": 2, "at": "q=1"}, {"got": "7/6", "want": "1/6"}),
    ),
    "gf-classical": (
        "gf-classical", families, "classical_pb", lambda n, k: Fraction(n + 1, 2),
        lambda: [gf_check_classical(-1, 3)],
        ({"k": -1, "order": 3}, {"n": 0, "series": "1", "formula": "1/2"}),
    ),
    "gf-cenkci": (
        "gf-cenkci", families, "cenkci_q_pb", lambda n, k: QPoly.const(n),
        lambda: [gf_check_cenkci(-1, Fraction(2, 3), 3)],
        ({"k": -1, "q": "2/3", "order": 3}, {"n": 0, "series": "1", "formula": "0"}),
    ),
    "gf-ernst": (
        "gf-ernst", verify, "q_stirling", lambda v, n, m: q_stirling(v, n, m) * 2,
        lambda: [gf_check_ernst(1, 3)],
        ({"m": 1, "order": 3}, {"n": 1, "series": "1", "kernel": "2"}),
    ),
    "rook-reflection": (
        "rook-reflection", rook, "q_rook_number", lambda board, k: QPoly.q(1),
        lambda: [verify.rook_reflection_check(1)],
        ({"n": 1, "boards": "all"}, {"index": 0, "board": [[0]], "lhs": "q", "rhs": "q^-1"}),
    ),
    "at-q-triangle-bridge": (
        # The triangle side is the sign-adjusted leading entry, (-1)**n * lead[n].
        "at-q-triangle-bridge", families, "at_q_pb",
        lambda n, k: -_at_q_pb(n, k) if n % 2 else _at_q_pb(n, k),
        lambda: run_suite("akiyama-tanigawa", max_n=1),
        ({"k": -3, "n": 1}, {
            "triangle": "(1) / (1 + 3*q + 3*q^2 + q^3)",
            "formula": "(-1) / (1 + 3*q + 3*q^2 + q^3)",
        }),
    ),
    "sylvester-conjecture": (
        "sylvester-conjecture", families, "vesztergombi_q_pb", lambda n, k: -_w_n(n),
        lambda: [sylvester_conjecture(2)],
        ({"n": 2}, {
            "target": "-1 - 3*q - 5*q^2 - 4*q^3 - q^4",
            "candidate": "1 + 3*q + 5*q^2 + 4*q^3 + q^4",
            "sign_flipped_matches": True,
        }),
    ),
    "sylvester-conjecture-no-sign-flip": (
        "sylvester-conjecture", families, "vesztergombi_q_pb", lambda n, k: QPoly.one(),
        lambda: [sylvester_conjecture(2)],
        ({"n": 2}, {
            "target": "1",
            "candidate": "1 + 3*q + 5*q^2 + 4*q^3 + q^4",
            "sign_flipped_matches": False,
        }),
    ),
}


@pytest.mark.parametrize("case", BROKEN_ROUTES)
def test_fail_witness_on_a_broken_route(monkeypatch, case):
    check_id, module, name, broken, run, (params, witness) = BROKEN_ROUTES[case]
    monkeypatch.setattr(module, name, broken)
    report = next(r for r in run() if r.status == "fail" and r.check_id == check_id)
    assert (report.parameters, report.witness) == (params, witness)


def test_all_square_boards_numbering():
    # Row r of board i is the r-th n-bit group of i, row 0 in the high bits.
    for n in range(4):
        boards = list(verify._all_square_boards(n))
        assert len(boards) == 2 ** (n * n)
        for i, board in enumerate(boards):
            groups = [(i >> n * (n - 1 - r)) & ((1 << n) - 1) for r in range(n)]
            assert board.cells == tuple(
                tuple((g >> (n - 1 - c)) & 1 for c in range(n)) for g in groups
            )


def test_rook_reflection_fail_witness_is_the_first_board(monkeypatch):
    # Adding cells[0][0] breaks the law first at board 4, whose reflection
    # (board 256) is the first with a cell at row 0, column 0.
    monkeypatch.setattr(rook, "q_rook_number", lambda b, k: _q_rook_number(b, k) + b.cells[0][0])
    report = verify.rook_reflection_check(3)
    assert report.status == "fail"
    assert report.parameters == {"n": 3, "boards": "all"}
    assert report.witness == {
        "index": 4, "board": [[0, 0, 0], [0, 0, 0], [1, 0, 0]], "lhs": "1", "rhs": "0",
    }


def test_rook_block_law_fail_witness_with_reused_blocks(monkeypatch):
    # x is the upper block of pair 0 and the lower block of pair 2.  Only
    # the lower side reads rot180(x), which the broken count gets wrong, so
    # the first pair to fail is pair 2.
    x, full = rook.lower_triangular(2), rook.full_board(2, 2)
    pairs = [(x, full), (full, full), (x, x), (full, x)]
    assert rook_block_law_check(pairs).status == "pass"
    rotated = rook.rotate_180(x)
    monkeypatch.setattr(rook, "q_rook_number", lambda b, k: _q_rook_number(b, k) + int(b == rotated))
    report = rook_block_law_check(pairs)
    assert report.status == "fail"
    assert report.parameters == {"pairs": 4}
    assert report.witness == {
        "a": [[1, 0], [1, 1]], "b": [[1, 0], [1, 1]],
        "lhs": "1 + q + 2*q^2 + 3*q^3 + 3*q^4 + 3*q^5 + q^6",
        "rhs": "4 + 4*q + 4*q^2 + 3*q^3 + 3*q^4 + 3*q^5 + q^6",
    }


_X2, _FULL2 = rook.lower_triangular(2), rook.full_board(2, 2)
_BLOCK_X_UNDER_FULL = rook.block_over(_FULL2, _X2)
_RHS_X_FULL = "1 + 2*q + 3*q^2 + 4*q^3 + 4*q^4 + 3*q^5 + q^6"


# case -> (module, attribute, broken replacement, expected witness).  Every
# broken side exceeds 4! = 24 at q = 1, where a correct side of a 2x2 pair
# stays, and "carry" is 256*q^2 - q^3 away from the true lhs: the two
# sides would pack to the same integer at a width of one byte.
WIDE_BROKEN_SIDES = {
    "lhs-plus-300": (
        rook, "q_rook_number",
        lambda b, k: _q_rook_number(b, k) + QPoly([0, 0, 300]) * int(b == _BLOCK_X_UNDER_FULL),
        {"a": [[1, 0], [1, 1]], "b": [[1, 1], [1, 1]],
         "lhs": "1 + 2*q + 303*q^2 + 4*q^3 + 4*q^4 + 3*q^5 + q^6", "rhs": _RHS_X_FULL},
    ),
    "lhs-minus-300": (
        rook, "q_rook_number",
        lambda b, k: _q_rook_number(b, k) - 300 * int(b == _BLOCK_X_UNDER_FULL),
        {"a": [[1, 0], [1, 1]], "b": [[1, 1], [1, 1]],
         "lhs": "-299 + 2*q + 3*q^2 + 4*q^3 + 4*q^4 + 3*q^5 + q^6", "rhs": _RHS_X_FULL},
    ),
    "carry": (
        rook, "q_rook_number",
        lambda b, k: _q_rook_number(b, k) + QPoly([0, 0, 256, -1]) * int(b == _BLOCK_X_UNDER_FULL),
        {"a": [[1, 0], [1, 1]], "b": [[1, 1], [1, 1]],
         "lhs": "1 + 2*q + 259*q^2 + 3*q^3 + 4*q^4 + 3*q^5 + q^6", "rhs": _RHS_X_FULL},
    ),
    "rhs-times-1000000": (
        verify, "q_factorial", lambda i: q_factorial(i) * 1000,
        {"a": [[1, 1], [1, 1]], "b": [[1, 1], [1, 1]],
         "lhs": "1 + 3*q + 5*q^2 + 6*q^3 + 5*q^4 + 3*q^5 + q^6",
         "rhs": "1000000 + 3000000*q + 5000000*q^2 + 6000000*q^3 + 5000000*q^4 + 3000000*q^5 + 1000000*q^6"},
    ),
}


@pytest.mark.parametrize("case", WIDE_BROKEN_SIDES)
def test_rook_block_law_fail_witness_past_a_correct_width(monkeypatch, case):
    # The packed width must follow the sides as computed, not the bound a
    # correct route keeps, or a broken side would carry into its neighbours.
    module, name, broken, witness = WIDE_BROKEN_SIDES[case]
    pairs = [(_FULL2, _FULL2), (_X2, _FULL2)]
    assert rook_block_law_check(pairs).status == "pass"
    monkeypatch.setattr(module, name, broken)
    report = rook_block_law_check(pairs)
    assert (report.status, report.parameters, report.witness) == ("fail", {"pairs": 2}, witness)
