"""Identity suites, generating-function checks, and the Sylvester-matrix
conjecture harness.

Every check produces a CheckReport; suites are deterministic and report in
a stable order, so repeated runs emit byte-identical JSON lines.  Every
pass/fail report gets its verdict and witness from CheckReport.compare
(compare_each for a scan of many pairs): a check that compares two
routes passes their two values, the step-down checks pass the families
bool and True, and the classical Akiyama-Tanigawa rows pass a row,
rendered as strings, and its known values.  Status 'reported' is
reserved for construction-dependent comparisons whose outcome is data
rather than a correctness verdict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, zip_longest
from math import comb, factorial
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from . import families, objects, rook
from .errors import SizeLimitError, UnknownSuiteError
from .exactnum import IntMatrix, QPoly, QRational, TruncatedSeries
from .qkernels import q_binomial, q_exponential, q_factorial, q_int, q_stirling

__all__ = [
    "CheckReport",
    "run_suite",
    "suite_names",
    "sylvester_matrix",
    "sylvester_conjecture",
    "conjecture_reports",
    "CONJECTURE_MAX_N",
    "gf_check_classical",
    "gf_check_cenkci",
    "gf_check_ernst",
    "q1_collapse_check",
    "Q1_COLLAPSE_FAMILIES",
    "oracle_check",
    "rook_full_square_check",
    "rook_staircase_check",
    "rook_reflection_check",
    "rook_block_law_check",
    "at_closed_form_check",
    "KNOWN_NEGK_TABLE",
]

# Reference values for the negative branch, n and k from 0 to 5 (row k,
# column n).  These are the published table entries, kept literal so the
# formulas are checked against fixed data.
KNOWN_NEGK_TABLE: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 1, 1, 1),
    (1, 2, 4, 8, 16, 32),
    (1, 4, 14, 46, 146, 454),
    (1, 8, 46, 230, 1066, 4718),
    (1, 16, 146, 1066, 6902, 41506),
    (1, 32, 454, 4718, 41506, 329462),
)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    parameters: dict
    status: str  # pass | fail | reported
    witness: dict | None = field(default=None)

    def __post_init__(self):
        if self.status not in ("pass", "fail", "reported"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise ValueError("fail reports must carry a witness")

    def to_json(self) -> str:
        payload = {
            "check_id": self.check_id,
            "parameters": self.parameters,
            "status": self.status,
            "witness": self.witness,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def compare(cls, check_id: str, params: dict, got, want, /,
                names: tuple[str, str] = ("got", "want"), **context) -> CheckReport:
        """A pass when got == want, rendering neither side; otherwise a fail
        whose witness is context plus both sides as text under names."""
        if got == want:
            return cls(check_id, params, "pass")
        return cls(check_id, params, "fail", {**context, names[0]: str(got), names[1]: str(want)})

    @classmethod
    def compare_each(cls, check_id: str, params: dict, pairs: Iterable, /,
                     names: tuple[str, str] = ("got", "want"),
                     context: Callable[[int], dict] = lambda i: {}) -> CheckReport:
        """compare over the (got, want) pairs in order: the fail of the first
        pair that differs, with context(i) of its index i in the witness,
        or a pass when every pair agrees."""
        for i, (got, want) in enumerate(pairs):
            if got != want:
                return cls.compare(check_id, params, got, want, names, **context(i))
        return cls(check_id, params, "pass")


# ---------------------------------------------------------------------------
# series helpers (Fraction coefficients)
# ---------------------------------------------------------------------------

def _one_minus_exp_neg(scale: Fraction, order: int) -> TruncatedSeries:
    """1 - e**(-scale*t) to the given order."""
    coeffs = [Fraction(0)]
    for j in range(1, order + 1):
        coeffs.append(-((-scale) ** j) / factorial(j))
    return TruncatedSeries(coeffs)


def _li_over(k: int, arg: TruncatedSeries) -> TruncatedSeries:
    """Li_k(arg) / arg, the weight-k polylogarithm of a series vanishing
    at 0 divided by that series, to arg's order.

    Termwise: sum over i >= 1 of arg**(i-1) / i**k; i**|k| multiplies for
    nonpositive k.  Truncation makes the sum finite because arg has
    valuation >= 1, so arg**(i-1) vanishes below order i-1.
    """
    order = arg.order
    acc = TruncatedSeries([Fraction(1)] + [Fraction(0)] * order)
    power = arg
    for i in range(2, order + 2):
        acc = acc + power * Fraction(i) ** -k
        if i <= order:
            power = power * arg
    return acc


# ---------------------------------------------------------------------------
# generating-function checks
# ---------------------------------------------------------------------------

def gf_check_classical(k: int, order: int) -> CheckReport:
    """Expand Li_k(1 - e**-x) / (1 - e**-x) and compare n! times the n-th
    coefficient with classical_pb(n, k) for n <= order."""
    if order > 12:
        raise ValueError("order capped at 12")
    series = _li_over(k, _one_minus_exp_neg(Fraction(1), order))
    got = (series.coefficient(n) * factorial(n) for n in range(order + 1))
    want = (families.classical_pb(n, k) for n in range(order + 1))
    return CheckReport.compare_each(
        "gf-classical", {"k": k, "order": order}, zip(got, want), ("series", "formula"),
        lambda n: {"n": n},
    )


def gf_check_cenkci(k: int, q_sample: Fraction, order: int) -> CheckReport:
    """Expand q*Li_k((1 - e**-qt)/q) / (1 - e**-qt) at a rational q and
    compare with the explicit formula values."""
    if q_sample == 0:
        raise ValueError("q must be nonzero")
    if order > 10:
        raise ValueError("order capped at 10")
    q = Fraction(q_sample)
    # q * Li_k(u/q) / u is Li_k(u/q) / (u/q).
    series = _li_over(k, _one_minus_exp_neg(q, order) * (1 / q))
    got = (series.coefficient(n) * factorial(n) for n in range(order + 1))
    want = (families.cenkci_q_pb(n, k).eval_rational(q) for n in range(order + 1))
    return CheckReport.compare_each(
        "gf-cenkci", {"k": k, "q": str(q), "order": order}, zip(got, want), ("series", "formula"),
        lambda n: {"n": n},
    )


def gf_check_ernst(m: int, order: int) -> CheckReport:
    """q-exponential expansion of the q-Stirling generating function:
    the z**n coefficient times [n]! must equal {n,m}_q (and 0 below the
    diagonal), as exact QRational identities."""
    if m > 4 or order > 8:
        raise ValueError("bounds: m <= 4, order <= 8")
    factorial_map = {d: m // d for d in range(2, m + 1)}  # [m]!, as q_exponential writes it
    zero = QRational.from_int(0)
    total = TruncatedSeries([zero] * (order + 1))
    for i in range(m + 1):
        # (-1)**i * q**C(i,2) * [m choose i] over [m]! * q**C(m,2)
        scale = QRational(q_binomial(m, i) * QPoly.q(comb(i, 2) - comb(m, 2)) * ((-1) ** i), factorial_map)
        total = total + q_exponential(q_int(m - i), order) * scale
    got = (total.coefficient(n) * QRational(q_factorial(n)) for n in range(order + 1))
    want = (QRational(q_stirling("carlitz", n, m)) if n >= m else zero for n in range(order + 1))
    return CheckReport.compare_each(
        "gf-ernst", {"m": m, "order": order}, zip(got, want), ("series", "kernel"),
        lambda n: {"n": n},
    )


# ---------------------------------------------------------------------------
# Sylvester conjecture harness
# ---------------------------------------------------------------------------

def sylvester_matrix(n: int) -> IntMatrix:
    """Resultant matrix of [n] and [n+1] as coefficient-shift rows.

    [n] has degree n-1 and all-ones coefficients, so the matrix is
    (2n-1) x (2n-1): n shifted rows of the n coefficients of [n], then
    n-1 shifted rows of the n+1 coefficients of [n+1].
    """
    if n < 2:
        raise ValueError("needs n >= 2 so both polynomials are nonconstant")
    dim = 2 * n - 1
    rows = []
    for r in range(n):
        row = [0] * dim
        for j in range(n):
            row[r + j] = 1
        rows.append(row)
    for r in range(n - 1):
        row = [0] * dim
        for j in range(n + 1):
            row[r + j] = 1
        rows.append(row)
    return IntMatrix(rows)


# Largest n the Sylvester conjecture harness checks.  A check's cost is
# almost all the characteristic polynomial of the (2n-1) x (2n-1) matrix,
# and a run checks every n from 2: n = 40 took 0.64 s and the run to 40
# 5.4 s, n = 52 2.0 s and the run to 52 21 s (2-vCPU VM, CHANGES.md table).
CONJECTURE_MAX_N = 40


def _check_conjecture_size(n: int) -> None:
    if n > CONJECTURE_MAX_N:
        raise SizeLimitError(f"sylvester conjecture at n = {n} exceeds bound {CONJECTURE_MAX_N}")


def sylvester_conjecture(n: int) -> CheckReport:
    """Check pB(n,2) == (1+q) * W_n(-q) with W_n the characteristic
    polynomial of the resultant matrix of [n] and [n+1].

    When the primary comparison fails, the sign-flipped comparison with
    -(1+q)*W_n(-q) is recorded in the witness as well.  Raises
    SizeLimitError past CONJECTURE_MAX_N.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_conjecture_size(n)
    w_n = sylvester_matrix(n).charpoly()
    candidate = (QPoly.one() + QPoly.q(1)) * w_n.subs_neg_q()
    target = families.vesztergombi_q_pb(n, 2)
    if candidate == target:  # a pass computes no sign-flipped comparison
        return CheckReport("sylvester-conjecture", {"n": n}, "pass")
    return CheckReport.compare(
        "sylvester-conjecture", {"n": n}, candidate, target, ("candidate", "target"),
        sign_flipped_matches=-candidate == target,
    )


def conjecture_reports(max_n: int) -> Iterator[CheckReport]:
    """The reports of sylvester_conjecture for n = 2..max_n, lazily and in
    order.  A max_n past CONJECTURE_MAX_N raises SizeLimitError here, at
    the call, before any n is checked."""
    _check_conjecture_size(max_n)
    return map(sylvester_conjecture, range(2, max_n + 1))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_value_table(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    return [
        CheckReport.compare("value-table", {"n": n, "k": k}, families.classical_pb_negk(n, k), want)
        for k, row in enumerate(KNOWN_NEGK_TABLE)
        for n, want in enumerate(row)
    ]


_GOLDEN_POLYS: tuple[tuple[str, Callable[[], QPoly], QPoly], ...] = (
    ("fubini-3", lambda: families.q_fubini(3), QPoly([4, 5, 3, 1])),
    ("fubini-4", lambda: families.q_fubini(4), QPoly([8, 17, 20, 16, 9, 4, 1])),
    ("ordered-3-1", lambda: families.ordered_q_pb(3, 1), QPoly([4, 3, 1])),
    ("vesztergombi-2-2", lambda: families.vesztergombi_q_pb(2, 2), QPoly([1, 3, 5, 4, 1])),
    ("vesztergombi-3-2", lambda: families.vesztergombi_q_pb(3, 2), QPoly([1, 4, 9, 13, 12, 6, 1])),
    ("charpoly-w3", lambda: sylvester_matrix(3).charpoly(), QPoly([1, -3, 6, -7, 5, -1])),
)


def _suite_golden(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    reports = []
    for name, compute, expected in _GOLDEN_POLYS:
        reports.append(CheckReport.compare("golden", {"item": name}, compute(), expected))
    for n in range(7):
        reports.append(CheckReport.compare(
            "golden", {"item": f"vesztergombi-{n}-1"},
            families.vesztergombi_q_pb(n, 1), (QPoly.one() + QPoly.q(1)) ** n,
        ))
    perm = rook.build_v_matrix(3, 2).to_int_matrix().permanent()
    reports.append(CheckReport.compare("golden", {"item": "permanent-v5"}, perm, 46))
    return reports


# Families whose q = 1 value must collapse to a classical count, in report order.
Q1_COLLAPSE_FAMILIES = ("ordered_q", "lonesum_q", "vesztergombi_q", "cenkci_q", "at_q", "permmatrix_q")


def q1_collapse_check(family: str, n: int, k: int) -> CheckReport:
    """The (n, k) member of a q-family at q = 1 against its classical count:
    classical_pb_negk, or c_relative for permmatrix_q.  k >= 0 means the
    negative branch; signed families are called with -k."""
    spec = families.FAMILIES[family]
    got = spec.fn(n, -k if spec.signed else k).at_one()
    want = families.c_relative(n, k) if family == "permmatrix_q" else families.classical_pb_negk(n, k)
    return CheckReport.compare("q1-collapse", {"family": family, "n": n, "k": k}, got, want)


def _suite_q1_collapse(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    return [
        q1_collapse_check(family, n, k)
        for n in range(max_n + 1)
        for k in range(max_k + 1)
        for family in Q1_COLLAPSE_FAMILIES
        if family != "permmatrix_q" or n * k <= 16
    ]


# Oracle name -> (enumeration, formula), each called with (n, k); k is None
# for the single-index Fubini family.  The lambdas look the functions up
# at call time, so a rebinding of the module attribute reaches them.
_ORACLES: dict[str, tuple[Callable, Callable]] = {
    "fubini": (lambda n, k: objects.fubini_oracle(n), lambda n, k: families.q_fubini(n)),
    "ordered": (lambda n, k: objects.ordered_q_oracle(n, k),
                lambda n, k: families.ordered_q_pb(n, k)),
    "lonesum": (lambda n, k: objects.class_poly("lonesum", n, k, "nu_sum"),
                lambda n, k: families.lonesum_q_pb(n, k)),
    "vesztergombi": (lambda n, k: objects.vesztergombi_oracle(n, k),
                     lambda n, k: families.vesztergombi_q_pb(n, k)),
    "rook-band": (lambda n, k: rook.q_rook_number(rook.build_v_matrix(n, k), n + k),
                  lambda n, k: families.vesztergombi_q_pb(n, k)),
}


def oracle_check(oracle: str, n: int, k: int | None = None) -> CheckReport:
    """Brute-force enumeration against the formula route for one member.

    ``oracle`` is one of fubini (n only), ordered, lonesum, vesztergombi and
    rook-band (the q-rook number of the full band board).
    """
    enumerate_objects, formula = _ORACLES[oracle]
    return CheckReport.compare(
        f"oracle-{oracle}", {"n": n} if k is None else {"n": n, "k": k},
        enumerate_objects(n, k), formula(n, k), ("enumeration", "formula"),
    )


def _suite_oracles(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    reports = [oracle_check("fubini", n) for n in range(min(max_n, 6) + 1)]
    for oracle, bound in (("ordered", 4), ("lonesum", 3), ("vesztergombi", 3), ("rook-band", 3)):
        reports += [
            oracle_check(oracle, n, k)
            for n in range(min(max_n, bound) + 1)
            for k in range(min(max_k, bound) + 1)
        ]
    return reports


def _all_square_boards(n: int) -> Iterable[rook.Board]:
    """Every n x n board, numbered from 0: row r of board i is the r-th
    n-bit group of i, row 0 in the high bits, each row's first cell its
    group's high bit."""
    for cells in product(list(product((0, 1), repeat=n)), repeat=n):
        yield rook.Board(cells)


def _sample_square_boards(n: int, count: int, seed: int) -> list[rook.Board]:
    rng = random.Random(seed)
    return [
        rook.Board(tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)))
        for _ in range(count)
    ]


def _board_rows(board: rook.Board) -> list[list[int]]:
    return [list(r) for r in board.cells]


def rook_full_square_check(n: int) -> CheckReport:
    """n rooks on the full n x n board give [n]!."""
    got = rook.q_rook_number(rook.full_board(n, n), n)
    return CheckReport.compare("rook-full-square", {"n": n}, got, q_factorial(n))


def rook_staircase_check(n: int, k: int) -> CheckReport:
    """k rooks on the staircase H_n give q**C(n,2) * S_shifted(n+1, n+1-k)."""
    got = rook.q_rook_number(rook.secondary_staircase(n), k)
    want = QPoly.q(comb(n, 2)) * q_stirling("shifted", n + 1, n + 1 - k)
    return CheckReport.compare("rook-staircase", {"n": n, "k": k}, got, want)


def rook_reflection_check(n: int) -> CheckReport:
    """Reflection law over every n x n board B, with B' its rows in
    reverse order: R_n(B') == q**C(n,2) * R_n(B)(1/q)."""
    # Reflection maps the n x n boards onto themselves, so each number is
    # computed once and the reflected board's is looked up by its cells.
    boards = list(_all_square_boards(n))
    numbers = [rook.q_rook_number(board, n) for board in boards]
    number_of = {board.cells: number for board, number in zip(boards, numbers)}
    lhs = (number_of[board.cells[::-1]] for board in boards)
    rhs = (number.subs_inv_q().shift(comb(n, 2)) for number in numbers)
    return CheckReport.compare_each(
        "rook-reflection", {"n": n, "boards": "all"}, zip(lhs, rhs), ("lhs", "rhs"),
        lambda i: {"index": i, "board": _board_rows(boards[i])},
    )


def _abs_sum(p: QPoly) -> int:
    """The value at q = 1 of p with every coefficient made nonnegative: a
    bound on the absolute value of each coefficient of p."""
    return sum(map(abs, p.coeffs))


def rook_block_law_check(pairs: Sequence[tuple[rook.Board, rook.Board]]) -> CheckReport:
    """Block-composition law, squared-factorial form, for each square pair (A, B):
      R_{a+b}(B/A) = sum_i R_{a-i}(A) * R_{b-i}(rot180 B) * ([i]!)**2 * q**(-i*i)
    (the form consistent with the banded-permutation identity; the
    single-factorial variant fails already on empty 2x2 blocks).

    Each board's side of the sum is built once per call, as a list over i:
    R_{a-i}(A) * [i]! for A, and R_{b-i}(rot180 B) * [i]! * q**(lift - i*i)
    for B, with lift the largest b*b, so that no exponent is negative.
    Every side is packed (QPoly.packed) at one width, and a pair is one
    integer sum over i of the products of its sides' packed terms,
    compared with its packed lhs times q**lift.  The width holds, with a
    sign bit to spare, a bound on every coefficient of either side: the
    largest _abs_sum of an lhs, and the sum over i of the largest _abs_sum
    of an A term i times the largest of a B term i.  So equal packed sides
    are equal polynomials, whatever integer coefficients the routes
    return.  The witness is the first pair that breaks the law, with its
    rhs read back from the packed sum."""
    def upper(a: rook.Board) -> list[QPoly]:
        return [rook.q_rook_number(a, a.rows - i) * q_factorial(i) for i in range(a.rows + 1)]

    def lower(b: rook.Board) -> list[QPoly]:
        rotated = rook.rotate_180(b)
        return [
            (rook.q_rook_number(rotated, b.rows - i) * q_factorial(i)).shift(lift - i * i)
            for i in range(b.rows + 1)
        ]

    # The pairs share few blocks, so each side is built once per board.
    lift = max((b.rows ** 2 for _, b in pairs), default=0)
    uppers = {a: upper(a) for a in dict.fromkeys(a for a, _ in pairs)}
    lowers = {b: lower(b) for b in dict.fromkeys(b for _, b in pairs)}
    lhs = [rook.q_rook_number(rook.block_over(b, a), a.rows + b.rows) for a, b in pairs]

    def largest(sides: Iterable[list[QPoly]]) -> list[int]:
        return [max(map(_abs_sum, terms)) for terms in zip_longest(*sides, fillvalue=QPoly.zero())]

    bound = max(sum(map(mul, largest(uppers.values()), largest(lowers.values()))),
                max(map(_abs_sum, lhs), default=0))
    width = (bound.bit_length() + 8) // 8
    packed_upper = {a: [p.packed(width) for p in side] for a, side in uppers.items()}
    packed_lower = {b: [p.packed(width) for p in side] for b, side in lowers.items()}
    lift_bits = 8 * width * lift
    params = {"pairs": len(pairs)}
    for (a, b), left in zip(pairs, lhs):
        right = sum(map(mul, packed_upper[a], packed_lower[b]))
        if left.packed(width) << lift_bits != right:
            return CheckReport.compare(
                "rook-block-law", params, left, QPoly.from_signed_packed(right, width).shift(-lift),
                ("lhs", "rhs"), a=_board_rows(a), b=_board_rows(b),
            )
    return CheckReport("rook-block-law", params, "pass")


def _suite_rook_laws(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    top = min(max_n, 5)
    reports = [rook_full_square_check(n) for n in range(top + 1)]
    reports += [rook_staircase_check(n, k) for n in range(1, top + 1) for k in range(n + 1)]
    reports += [rook_reflection_check(n) for n in range(1, 4)]
    # Exhaustive over pairs up to 2x2, plus a deterministic sample of 3x3
    # pairs; the full 3x3 pair sweep is 262144 boards and out of desk budget.
    small = [b for s in (1, 2) for b in _all_square_boards(s)]
    pairs = [(a, b) for a in small for b in small]
    sampled = _sample_square_boards(3, 12, seed=20240111)
    pairs += [(a, b) for a in sampled[:6] for b in sampled[6:]]
    pairs += [
        (rook.secondary_staircase(3), rook.full_board(3, 3)),
        (rook.full_board(3, 3), rook.secondary_staircase(3)),
        (rook.lower_triangular(3), rook.upper_triangular(3)),
    ]
    reports.append(rook_block_law_check(pairs))
    return reports


def _suite_cross_formula(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    reports = []
    for n in range(max_n + 1):
        for k in range(max_k + 1):
            reports.append(CheckReport.compare(
                "explicit-vs-paired", {"n": n, "k": k},
                families.classical_pb(n, -k), families.classical_pb_negk(n, k), ("explicit", "paired"),
            ))
            reports.append(CheckReport.compare(
                "step-down-recursion", {"n": n, "k": k}, families.pb_recursion_check(n, k), True,
            ))
    for n in range(1, min(max_n, 6) + 1):
        for k in range(-4, 1):
            reports.append(CheckReport.compare(
                "cenkci-step-down", {"n": n, "k": k}, families.cenkci_recursion_check(n, k), True,
            ))
    for n in range(min(max_n, 8) + 1):
        for k in range(n + 1):
            reports.append(CheckReport.compare(
                "shifted-vs-carlitz", {"n": n, "k": k},
                q_stirling("shifted", n, k), QPoly.q(comb(k, 2)) * q_stirling("carlitz", n, k),
                ("shifted", "graded"),
            ))
    return reports


def _suite_genfunc(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    reports = [gf_check_classical(k, min(order, 5)) for k in (0, -1, -2)]
    reports.append(gf_check_classical(1, 8))
    for q_sample in (Fraction(1), Fraction(2, 3), Fraction(-1)):
        for k in (-2, -1, 0):
            reports.append(gf_check_cenkci(k, q_sample, min(order, 6)))
    for m in range(5):
        reports.append(gf_check_ernst(m, min(order, 8)))
    return reports


def at_closed_form_check(rule: str, initial_row: Sequence[Fraction], depth: int) -> list[CheckReport]:
    """Leading column of a q-rule triangle (rows n < depth, row length
    len(initial_row)) against its closed form in the initial row a:
      zengA: sum over m <= n of (-1)**m * a[m] * [m]! * {n+1, m+1}_q
      zengB: sum over m <= n of (-1)**m * a[m] * [m]! * {n, m}_q
    One report per n."""
    if rule not in ("zengA", "zengB"):
        raise ValueError(f"closed forms exist for zengA and zengB, not {rule!r}")
    shift = 1 if rule == "zengA" else 0
    lead = families.akiyama_tanigawa(rule, initial_row, n_rows=depth).leading_column()
    return [
        CheckReport.compare(
            f"at-{rule}-closed-form", {"n": n},
            lead[n], families.carlitz_sum(initial_row[:n + 1], shift), ("triangle", "closed"),
        )
        for n in range(depth)
    ]


def _suite_akiyama_tanigawa(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    reports = []
    harmonic = [Fraction(1, m + 1) for m in range(5)]
    tri = families.akiyama_tanigawa("classical", harmonic, n_rows=3)
    for row, want in ((1, ["1/2", "1/3", "1/4"]), (2, ["1/6", "1/6", "3/20"])):
        got = [str(c.as_fraction()) for c in tri.rows[row][:3]]
        reports.append(CheckReport.compare("at-classical-rows", {"row": row}, got, want))

    # Closed forms for the two q-rules against a generic rational initial row.
    depth = min(max_n, 6) + 1
    generic = [Fraction((-1) ** m * (m * m + 3), 2 * m + 1) for m in range(depth + 1)]
    for pair in zip(at_closed_form_check("zengA", generic, depth),
                    at_closed_form_check("zengB", generic, depth)):
        reports.extend(pair)

    reports.append(CheckReport.compare(
        "carlitz-beta", {"n": 2, "at": "q=1"},
        families.carlitz_beta(2).eval_rational(1), Fraction(1, 6),
    ))
    # Row n of a triangle reads only the first n + 1 initial entries, so one
    # 7-row triangle gives the leading entries for every n <= 6.
    beta_lead = families.akiyama_tanigawa("zengA", families.q_power_row(-1, 7), n_rows=7).leading_column()
    for n in range(2, 7):
        reports.append(CheckReport.compare(
            "carlitz-beta-vs-triangle", {"n": n},
            families.carlitz_beta(n), beta_lead[n], ("closed", "triangle"),
        ))

    # Leading column of rule B with power initial rows, against the explicit
    # formula.  The triangle value carries an alternating sign (-1)**n and a
    # flipped exponent relative to the formula-level family.
    for k in range(-3, 4):
        depth_k = min(max_n, 5) + 1
        tri = families.akiyama_tanigawa("zengB", families.q_power_row(k, depth_k), n_rows=depth_k)
        lead = tri.leading_column()
        for n in range(depth_k):
            target = families.at_q_pb(n, -k)
            got = lead[n] if n % 2 == 0 else -lead[n]
            reports.append(CheckReport.compare(
                "at-q-triangle-bridge", {"k": k, "n": n}, got, target, ("triangle", "formula"),
            ))
    return reports


def _suite_cenkci_comb(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    reports = []
    for n in range(min(max_n, 4) + 1):
        for k in range(min(max_k, 4) + 1):
            agrees = families.cenkci_comb_check(n, k)
            reports.append(CheckReport(
                "cenkci-comb", {"n": n, "k": k}, "reported", {"agrees": agrees},
            ))
    return reports


def _suite_conjecture(max_n: int, max_k: int, order: int) -> list[CheckReport]:
    return list(conjecture_reports(max(max_n, 2)))


_SUITES: dict[str, Callable[[int, int, int], list[CheckReport]]] = {
    "value-table": _suite_value_table,
    "golden": _suite_golden,
    "q1-collapse": _suite_q1_collapse,
    "oracles": _suite_oracles,
    "rook-laws": _suite_rook_laws,
    "cross-formula": _suite_cross_formula,
    "genfunc": _suite_genfunc,
    "akiyama-tanigawa": _suite_akiyama_tanigawa,
    "cenkci-comb": _suite_cenkci_comb,
    "conjecture": _suite_conjecture,
}


def suite_names() -> list[str]:
    return list(_SUITES) + ["all"]


def run_suite(suite: str, *, max_n: int = 4, max_k: int = 4, order: int = 6) -> list[CheckReport]:
    """Run one named suite (or 'all') and return its reports in stable order."""
    if suite == "all":
        # Refuse a run past the conjecture's bound before the other suites
        # spend their time on sizes that large; the conjecture suite runs last.
        _check_conjecture_size(max_n)
        return [report for run in _SUITES.values() for report in run(max_n, max_k, order)]
    if suite not in _SUITES:
        raise UnknownSuiteError(suite)
    return _SUITES[suite](max_n, max_k, order)
