"""Family-level tests: reference values, symmetries, collapses, triangles."""

import sys
import tracemalloc
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from qpb import exactnum, families as F
from qpb import qkernels
from qpb.errors import SizeLimitError
from qpb.exactnum import QPoly, QRational
from qpb.qkernels import STIRLING_VARIANTS, q_factorial, q_int, q_stirling, stirling2
from reference_objects import from_terms, stirling_columns, terms

NEGK_TABLE = (
    (1, 1, 1, 1, 1, 1),
    (1, 2, 4, 8, 16, 32),
    (1, 4, 14, 46, 146, 454),
    (1, 8, 46, 230, 1066, 4718),
    (1, 16, 146, 1066, 6902, 41506),
    (1, 32, 454, 4718, 41506, 329462),
)


def test_value_table():
    for k in range(6):
        for n in range(6):
            assert F.classical_pb_negk(n, k) == NEGK_TABLE[k][n]


def test_classical_pb_selected():
    assert F.classical_pb(2, -2) == 14
    assert F.classical_pb(5, -5) == 329462
    for n in range(6):
        assert F.classical_pb(n, 0) == 1


def test_classical_pb_positive_k_are_signed_bernoulli():
    # independent row-rewriting oracle for the Bernoulli numbers
    def bernoulli(n):
        row = [Fraction(1, m + 1) for m in range(n + 1)]
        for _ in range(n):
            row = [(m + 1) * (row[m] - row[m + 1]) for m in range(len(row) - 1)]
        return row[0]

    for n in range(9):
        assert F.classical_pb(n, 1) == bernoulli(n)


def test_two_explicit_formulas_agree():
    for n in range(9):
        for k in range(9):
            assert F.classical_pb(n, -k) == F.classical_pb_negk(n, k)


def test_negk_symmetry():
    for n in range(7):
        for k in range(7):
            assert F.classical_pb_negk(n, k) == F.classical_pb_negk(k, n)


def test_step_down_recursion():
    # 230 = 46 + 3*46 + 3*14 + 1*4
    assert F.pb_recursion_check(3, 2)
    for k in range(5):
        assert F.pb_recursion_check(0, k)
    assert F.pb_recursion_check(5, 4)


def test_c_relative_values():
    for n in range(6):
        assert F.c_relative(n, 0) == 1
    for k in range(1, 6):
        assert F.c_relative(0, k) == 0
    assert F.c_relative(2, 2) == 7


def test_ordered_q_reference_and_edges():
    assert F.ordered_q_pb(3, 1) == QPoly([4, 3, 1])
    for n in range(5):
        assert F.ordered_q_pb(n, 0) == QPoly.one()
    assert F.ordered_q_pb(2, 2).at_one() == 14


def test_ordered_q_symmetry():
    for n in range(7):
        for k in range(7):
            assert F.ordered_q_pb(n, k) == F.ordered_q_pb(k, n)


def test_q_fubini_reference_values():
    assert F.q_fubini(0) == QPoly.one()
    assert F.q_fubini(1) == QPoly.one()
    assert F.q_fubini(2) == QPoly([2, 1])
    assert F.q_fubini(3) == QPoly([4, 5, 3, 1])
    assert F.q_fubini(4) == QPoly([8, 17, 20, 16, 9, 4, 1])


def test_q_fubini_collapses_to_ordered_bell():
    for n in range(9):
        classical = sum(factorial(k) * stirling2(n, k) for k in range(n + 1)) if n else 1
        assert F.q_fubini(n).at_one() == classical


def test_q_fubini_block_recurrence_route():
    # third route: T(n,k) = [k] * (T(n-1,k-1) + T(n-1,k)) with T(0,0) = 1,
    # the growth step of ordered partitions by their largest element
    from qpb.qkernels import q_int

    table = {(0, 0): QPoly.one()}
    for n in range(1, 8):
        for k in range(n + 1):
            left = table.get((n - 1, k - 1), QPoly.zero())
            same = table.get((n - 1, k), QPoly.zero())
            table[(n, k)] = q_int(k) * (left + same)
    for n in range(8):
        total = QPoly.zero()
        for k in range(n + 1):
            entry = table[(n, k)]
            assert entry == q_factorial(k) * q_stirling("carlitz", n, k)
            total = total + entry
        assert total == F.q_fubini(n)


def test_lonesum_q_at_one_and_small_shapes():
    for n in range(6):
        for k in range(6):
            assert F.lonesum_q_pb(n, k).at_one() == F.classical_pb_negk(n, k)
    # single column of zeros dominates the k = 0 case
    for n in range(5):
        assert F.lonesum_q_pb(n, 0) == QPoly.q(n * (n + 1) // 2)
    # hand-checked 1x1 and 2x1 weight polynomials
    assert F.lonesum_q_pb(1, 1) == from_terms({0: 1, 2: 1})
    assert F.lonesum_q_pb(2, 1) == from_terms({0: 1, 1: 1, 2: 1, 4: 1})


def test_vesztergombi_reference_values():
    assert F.vesztergombi_q_pb(2, 2) == QPoly([1, 3, 5, 4, 1])
    assert F.vesztergombi_q_pb(3, 2) == QPoly([1, 4, 9, 13, 12, 6, 1])
    one_plus_q = QPoly([1, 1])
    for n in range(7):
        assert F.vesztergombi_q_pb(n, 1) == one_plus_q ** n
        assert F.vesztergombi_q_pb(1, n) == one_plus_q ** n
        assert F.vesztergombi_q_pb(n, 0) == QPoly.one()


def _vesztergombi_shifted_form(n, k):
    # q^(nk) * sum_m S(n+1,m+1)(1/q) * S(k+1,m+1)(1/q) * [m]!^2 * q^m, shifted q-Stirling S
    total = QPoly.zero()
    for m in range(min(n, k) + 1):
        sn = q_stirling("shifted", n + 1, m + 1).subs_inv_q()
        sk = q_stirling("shifted", k + 1, m + 1).subs_inv_q()
        f = q_factorial(m)
        total = total + sn * sk * f * f * QPoly.q(m)
    return total.shift(n * k)


def test_vesztergombi_matches_shifted_form():
    for n in range(13):
        for k in range(13):
            assert F.vesztergombi_q_pb(n, k) == _vesztergombi_shifted_form(n, k)


def test_vesztergombi_structure():
    for n in range(6):
        for k in range(6):
            p = F.vesztergombi_q_pb(n, k)
            assert p == F.vesztergombi_q_pb(k, n)
            assert p.min_exp >= 0
            assert p.max_exp == n * k or (n * k == 0 and p == QPoly.one())
            assert all(c > 0 for _, c in terms(p))
            assert p.at_one() == F.classical_pb_negk(n, k)


def test_cenkci_reference_and_collapse():
    assert F.cenkci_q_pb(2, -1) == QPoly([6, -2])
    for k in range(-3, 4):
        assert F.cenkci_q_pb(0, k) == (QPoly.one() if k <= 0 else QRational.from_int(1))
    for n in range(6):
        for k in range(-5, 6):
            v = F.cenkci_q_pb(n, k)
            assert type(v) is (QPoly if k <= 0 else QRational)
            assert v.eval_rational(1) == F.classical_pb(n, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cenkci_positive_k_matches_pointwise_sum(k):
    # Reference: the defining sum evaluated in Fraction at each point, with
    # no QRational anywhere.
    for n in range(9):
        value = F.cenkci_q_pb(n, k)
        for r in (Fraction(2), Fraction(1, 3), Fraction(-2, 5)):
            want = sum(
                stirling2(n, m) * (-r) ** (n - m) * Fraction(factorial(m), (m + 1) ** k)
                for m in range(n + 1)
            )
            assert value.eval_rational(r) == want


def test_cenkci_coefficients_match_fraction_formula():
    # Reference: each coefficient of the defining sum in Fraction,
    # coefficient of q**(n-m) = (-1)**(n-m) * stirling2(n,m) * m! / (m+1)**k.
    for n in range(9):
        for k in range(-6, 7):
            want = [Fraction(0)] * (n + 1)
            for m in range(n + 1):
                want[n - m] = (-1) ** (n - m) * stirling2(n, m) * factorial(m) * Fraction(m + 1) ** -k
            value = F.cenkci_q_pb(n, k)
            if k <= 0:
                assert type(value) is QPoly
                assert all(c.denominator == 1 for c in want)
                assert value == QPoly([int(c) for c in want])
            else:
                assert type(value) is QRational
                den = lcm(*(c.denominator for c in want))
                assert value * den == QRational(QPoly([int(c * den) for c in want]))


def test_cenkci_recursion():
    assert F.cenkci_recursion_check(2, -2)
    assert F.cenkci_recursion_check(4, -3)
    # n = 1 reduces to a doubling between adjacent columns
    for k in range(-4, 5):
        assert F.cenkci_recursion_check(1, k)
    for n in range(1, 7):
        for k in range(-4, 1):
            assert F.cenkci_recursion_check(n, k)


def test_cenkci_comb_report_matrix():
    # agreement data under the documented extension: the n = 0 column only
    results = {(n, k): F.cenkci_comb_check(n, k) for n in range(5) for k in range(5)}
    assert results[(0, 0)] is True
    for (n, k), agrees in results.items():
        assert agrees == (n == 0)


def test_at_q_values():
    for k in range(-3, 4):
        v = F.at_q_pb(0, k)
        assert v == (QPoly.one() if k <= 0 else QRational.from_int(1))
    assert F.at_q_pb(1, -1) == QPoly([1, 1])
    assert F.at_q_pb(1, -1).at_one() == 2
    for n in range(7):
        for k in range(-4, 5):
            assert F.at_q_pb(n, k).eval_rational(1) == F.classical_pb(n, k)


def test_at_q_size_guard_on_positive_k():
    # n*k at the bound computes and one past it raises, whatever the shape;
    # k <= 0, the polynomial branch, is bounded by its degree instead.
    assert F.AT_Q_MAX_NK == 40
    assert F.at_q_pb(2, 20).eval_rational(1) == F.classical_pb(2, 20)
    for n, k in ((41, 1), (3, 14), (1, 41), (3, 250)):
        with pytest.raises(SizeLimitError):
            F.at_q_pb(n, k)
    assert F.at_q_pb(3, -14).at_one() == F.classical_pb(3, -14)
    assert F.at_q_pb(3, -680).max_exp == 2043
    with pytest.raises(SizeLimitError):
        F.at_q_pb(3, -682)


@pytest.mark.parametrize("n, k", [(10, 3), (14, 2)])
def test_at_q_large_cells_match_pointwise_sum(n, k):
    # Reference: the defining sum evaluated in Fraction at each point, with
    # no QRational anywhere, so it shares no gcd or division code with at_q_pb.
    value = F.at_q_pb(n, k)
    for r in (Fraction(2), Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), Fraction(-5)):
        total = Fraction(0)
        for m in range(n + 1):
            term = (
                q_factorial(m).eval_rational(r)
                * q_stirling("carlitz", n, m).eval_rational(r)
                / q_int(m + 1).eval_rational(r) ** k
            )
            total += term if m % 2 == 0 else -term
        assert value.eval_rational(r) == (-total if n % 2 else total)


def _same(got, want):
    # equal values in the same type, with equal parts in normal form
    assert type(got) is type(want)
    if isinstance(want, QRational):
        assert (got.num, got.den) == (want.num, want.den)
    assert got == want and str(got) == str(want)


@pytest.mark.parametrize("k", range(1, F.AT_Q_MAX_NK + 1))
def test_at_q_packed_sum_matches_the_carlitz_sum_route(k):
    # carlitz_sum over q_power_row adds one QRational term at a time, each
    # operator reducing over the two operands' denominators: no packed sum
    # and no denominator given as a whole.
    for n in range(F.AT_Q_MAX_NK // k + 1):
        want = F.carlitz_sum(F.q_power_row(-k, n + 1), 0)
        _same(F.at_q_pb(n, k), -want if n % 2 else want)


def test_at_q_polynomial_branch_matches_the_carlitz_sum_route():
    for n in range(13):
        for k in range(-8, 1):
            want = F.carlitz_sum(F.q_power_row(-k, n + 1), 0).as_qpoly()
            _same(F.at_q_pb(n, k), -want if n % 2 else want)


def test_packed_sum_takes_no_gcd_and_no_qrational_operator(monkeypatch):
    def refuse(*args):
        raise AssertionError("the packed sum called a QRational operator")

    # at_q_pb negates the sum for odd n, which reduces nothing; the one
    # constructor call takes the denominator as its map {d: e}
    for name in ("__add__", "__sub__", "__mul__", "__pow__"):
        monkeypatch.setattr(QRational, name, refuse)
    for n, k in ((7, 3), (8, 2), (40, 1), (1, 40), (6, -3)):
        F.at_q_pb(n, k)
    for n in range(9):
        F.carlitz_beta(n)


def test_packed_sums_rebuilt_from_their_parts_give_the_same_parts():
    # The constructor strips one more copy of each Phi_d from the numerator
    # times the denominator: coprime parts of degrees 489 and 529.
    for value in (F.at_q_pb(F.AT_Q_MAX_NK, 1), F.carlitz_beta(40)):
        rebuilt = QRational(value.num * value.den, {d: 2 for d in range(2, 42)})
        assert (rebuilt.num, rebuilt.den) == (value.num, value.den)
        assert rebuilt.phis == value.phis == {d: 1 for d in range(2, 42)}


def test_power_rows_of_opposite_exponents_multiply_to_one():
    # the map of [m+1]**-k against the polynomial [m+1]**k
    for k in range(1, 7):
        for m, (inverse, power) in enumerate(zip(F.q_power_row(-k, 16), F.q_power_row(k, 16))):
            assert inverse * power == 1, (k, m)
            assert inverse.phis == {d: k for d in range(2, m + 2) if (m + 1) % d == 0}


def test_carlitz_beta_matches_the_carlitz_sum_route():
    for n in range(21):
        _same(F.carlitz_beta(n), F.carlitz_sum(F.q_power_row(-1, n + 1), 1))


HARMONIC = [Fraction(1, m + 1) for m in range(10)]


def test_triangle_classical_rows():
    tri = F.akiyama_tanigawa("classical", HARMONIC[:5], n_rows=3)
    assert [c.as_fraction() for c in tri.rows[1][:3]] == [
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
    ]
    assert [c.as_fraction() for c in tri.rows[2][:3]] == [
        Fraction(1, 6), Fraction(1, 6), Fraction(3, 20),
    ]


def test_triangle_row_too_short():
    with pytest.raises(ValueError):
        F.akiyama_tanigawa("classical", HARMONIC[:3], n_rows=4)
    with pytest.raises(ValueError):
        F.akiyama_tanigawa("nope", HARMONIC[:3], n_rows=2)


def test_triangle_classical_gives_bernoulli_numbers():
    # leading column from the harmonic row is the Bernoulli sequence in the
    # B_1 = +1/2 convention, which is the k = 1 member of the signed family
    tri = F.akiyama_tanigawa("classical", HARMONIC, n_rows=9)
    for n in range(9):
        assert tri.leading_column()[n].as_fraction() == F.classical_pb(n, 1)


def test_zeng_closed_forms_generic_initial():
    width = 8
    generic = [Fraction(3 * m + 2, m * m + 1) for m in range(width)]
    tri_a = F.akiyama_tanigawa("zengA", generic, n_rows=7)
    tri_b = F.akiyama_tanigawa("zengB", generic, n_rows=7)
    for n in range(7):
        want_a = QRational.from_int(0)
        want_b = QRational.from_int(0)
        for m in range(n + 1):
            sign = -1 if m % 2 else 1
            coeff = QRational.from_fraction(generic[m]) * sign
            want_a = want_a + coeff * (q_factorial(m) * q_stirling("carlitz", n + 1, m + 1))
            want_b = want_b + coeff * (q_factorial(m) * q_stirling("carlitz", n, m))
        assert tri_a.leading_column()[n] == want_a
        assert tri_b.leading_column()[n] == want_b
        assert F.carlitz_sum(generic[:n + 1], 1) == want_a
        assert F.carlitz_sum(generic[:n + 1], 0) == want_b


def test_zeng_b_bridge_to_at_q():
    # leading column from initial [m+1]^k carries the sign (-1)^n relative
    # to the explicit formula with flipped exponent
    for k in range(-3, 4):
        tri = F.akiyama_tanigawa("zengB", F.q_power_row(k, 6), n_rows=6)
        lead = tri.leading_column()
        for n in range(6):
            target = F.at_q_pb(n, -k)
            got = lead[n] if n % 2 == 0 else -lead[n]
            assert got == target


def test_carlitz_beta():
    beta2 = F.carlitz_beta(2)
    assert beta2 == QRational(QPoly.q(1), {2: 1, 3: 1})  # q / ([2] * [3])
    assert beta2.eval_rational(1) == Fraction(1, 6)
    assert F.carlitz_beta(0) == QRational.from_int(1)
    assert F.carlitz_beta(1) == QRational(QPoly.q(1), {2: 1})
    for n in range(2, 7):
        tri = F.akiyama_tanigawa("zengA", F.q_power_row(-1, n + 1), n_rows=n + 1)
        assert F.carlitz_beta(n) == tri.leading_column()[n]


def test_permmatrix_family_collapse():
    for n in range(4):
        for k in range(4):
            assert F.permmatrix_q_pb(n, k).at_one() == F.c_relative(n, k)


def test_family_registry_covers_everything():
    assert set(F.FAMILIES) == {
        "classical_negk", "classical_anyk", "c_relative", "ordered_q",
        "lonesum_q", "vesztergombi_q", "permmatrix_q", "cenkci_q", "at_q",
    }
    spec = F.FAMILIES["vesztergombi_q"]
    assert spec.fn(2, 2) == QPoly([1, 3, 5, 4, 1])


PAIRED_FAMILIES = ("ordered_q", "lonesum_q", "vesztergombi_q")


@pytest.mark.parametrize("family", PAIRED_FAMILIES)
@pytest.mark.parametrize("shape", [
    (0, 0), (0, 5), (5, 0), (2, 7), (7, 2), (16, 16), (12, 12), (9, 20), (20, 9),
    (48, 3), (3, 48), (48, 2), (2, 2), (3, 3), (3, 16), (16, 3),
    (1, 1), (48, 1), (1, 48), (30, 0), (0, 30), (1, 7), (7, 1), (48, 0), (63, 3),
    (20, 20), (24, 24),
], ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_paired_table_matches_per_cell(family, shape):
    # Both table routes against the per-cell formula, in the order a table
    # prints its cells: k outer, n inner, for every shape, the lines and
    # sides below 3 included.  At (16, 16) the largest coefficients take
    # 99-102 bits, against the 104 bits of the corner's classical value
    # B_16^(-16), plus the spare one; the even and the odd coefficients
    # each fill one digit.
    max_n, max_k = shape
    fn = F.FAMILIES[family].fn
    expected = [(n, k, fn(n, k)) for k in range(max_k + 1) for n in range(max_n + 1)]
    assert list(F.paired_table(family, max_n, max_k)) == expected


@pytest.mark.parametrize("family", ["ordered_q", "lonesum_q"])
@pytest.mark.parametrize("shape", [(90, 1), (1, 90)], ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_paired_table_matches_per_cell_at_the_guard(family, shape):
    # The longest lines the table guard admits, 90 x 1 and 1 x 90, on each
    # route.
    max_n, max_k = shape
    fn = F.FAMILIES[family].fn
    expected = [(n, k, fn(n, k)) for k in range(max_k + 1) for n in range(max_n + 1)]
    assert list(F.table(family, max_n, max_k)) == expected


@pytest.mark.parametrize("family", PAIRED_FAMILIES)
def test_paired_table_grows_no_memo(family, monkeypatch):
    # A paired table computes its operands as integers at q = +-2**h, and
    # its width and the split's weights on integers at q = 1: it reads and
    # grows neither the q-Stirling memo nor the q-factorial memo.
    monkeypatch.setattr(qkernels, "_q_factorials", [QPoly.one()])
    monkeypatch.setattr(qkernels, "_stirling_tables", {v: [[QPoly.one()]] for v in STIRLING_VARIANTS})
    for shape in ((9, 4), (40, 1), (1, 1), (0, 6)):
        assert len(list(F.table(family, *shape))) == (shape[0] + 1) * (shape[1] + 1)
    assert qkernels._q_factorials == [QPoly.one()]
    assert qkernels._stirling_tables == {v: [[QPoly.one()]] for v in STIRLING_VARIANTS}


# variant -> the largest values inside PAIRED_VALUE_MAX_SIZE and the
# smallest past it, along a line and a square
VALUE_EDGES = {
    "carlitz": ([(1023, 1), (1, 1023), (44, 44)], [(1024, 1), (1, 1024), (45, 44)]),
    "cigler": ([(255, 1), (1, 255), (50, 50)], [(256, 1), (1, 256), (51, 50)]),
}


@pytest.mark.parametrize("family", PAIRED_FAMILIES)
def test_paired_size_guard(family, monkeypatch):
    # A table whose corner has (n+1)*(k+1)*max(n, k) past
    # PAIRED_TABLE_MAX_SIZE raises before any work; a
    # value is bounded by PAIRED_VALUE_MAX_SIZE of its q-Stirling variant.
    assert F.PAIRED_TABLE_MAX_SIZE == 2 ** 14
    assert F.PAIRED_VALUE_MAX_SIZE == {"carlitz": 2 ** 11, "cigler": 2 ** 17}
    fn = F.FAMILIES[family].fn
    for n, k in ((90, 1), (1, 90), (48, 3), (3, 48), (24, 24), (20, 9), (9, 20)):
        assert fn(n, k).at_one() == F.classical_pb_negk(n, k)
        assert next(F.table(family, n, k)) == (0, 0, QPoly.one())
    for n, k in ((91, 1), (1, 91), (25, 25), (26, 24), (1000, 1), (100, 100)):
        with pytest.raises(SizeLimitError):
            next(F.table(family, n, k))
        with pytest.raises(SizeLimitError):
            next(F.paired_table(family, n, k))
    for n, k in ((91, 1), (1, 91), (25, 25), (26, 24)):
        assert fn(n, k).at_one() == F.classical_pb_negk(n, k)
    inside, past = VALUE_EDGES[F._PAIRED_SUMS[family][1]]
    for n, k in past + [(100, 100)]:
        with pytest.raises(SizeLimitError):
            fn(n, k)
    # the edge values inside the bound pass the guard; their q-Stirling
    # values are stubbed out, since the largest sums take over a second
    monkeypatch.setattr(F, "q_stirling", lambda *args: QPoly.zero())
    for n, k in inside:
        fn(n, k)


def test_paired_guard_admits_the_conjecture_range():
    # the k = 2 column the Sylvester conjecture reads, to n = 80
    for n in range(81):
        assert F.vesztergombi_q_pb(n, 2).at_one() == F.classical_pb_negk(n, 2)


def test_paired_table_registry_and_domain(monkeypatch):
    with pytest.raises(ValueError):
        list(F.paired_table("ordered_q", -1, 2))
    # table takes paired_table for the paired sums alone, at every shape.
    routed = []
    monkeypatch.setattr(F, "paired_table", lambda family, *shape: routed.append((family, shape)) or [])
    shapes = ((0, 0), (1, 1), (2, 2), (20, 1), (1, 20), (5, 0), (3, 3))
    for name in F.FAMILIES:
        for shape in shapes:
            list(F.table(name, *shape))
    assert routed == [(family, shape) for family in PAIRED_FAMILIES for shape in shapes]


@pytest.mark.parametrize("family", sorted(F.FAMILIES))
@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (2, 5), (5, 2), (4, 4)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_table_matches_per_cell(family, shape):
    # Every route of table gives the cells that fn gives one by one, k
    # outer and n inner, with k shown negative for a signed family.
    max_n, max_k = shape
    spec = F.FAMILIES[family]
    sign = -1 if spec.signed else 1
    expected = [(n, sign * k, spec.fn(n, sign * k)) for k in range(max_k + 1) for n in range(max_n + 1)]
    assert list(F.table(family, max_n, max_k)) == expected


def test_table_domain():
    with pytest.raises(ValueError):
        list(F.table("classical_negk", -1, 2))


# ---------------------------------------------------------------------------
# classical numbers by rows
# ---------------------------------------------------------------------------

# tall, wide and square shapes up to n = 300, and a full small grid
ROW_SHAPES = [(300, 1), (300, 7), (1, 300), (7, 300), (120, 120), (300, 300)]
ROW_SHAPES += [(n, k) for n in range(9) for k in range(9)]


def test_classical_callers_match_the_column_recurrence():
    # Each caller's defining sum over the triangle built column by column.
    cols = stirling_columns(302, 302)

    def S(n, m):
        return cols[m][n - m] if m <= n else 0

    def paired(n, k, shift):
        return sum(factorial(m) ** 2 * S(n + 1, m + 1) * S(k + shift, m + shift) for m in range(min(n, k) + 2))

    for n, k in ROW_SHAPES:
        assert F.classical_pb_negk(n, k) == paired(n, k, 1)
        assert F.c_relative(n, k) == paired(n, k, 0)
        for sign in (-1, 1):
            if (n, sign * k) == (300, 300):
                continue  # past CENKCI_MAX_SIZE
            # the coefficient of q**(n-m) in cenkci_q; at q = 1 their sum is classical_pb
            want = [(-1) ** (n - m) * factorial(m) * S(n, m) * Fraction(m + 1) ** (-sign * k) for m in range(n + 1)]
            assert F.classical_pb(n, sign * k) == sum(want)
            value = F.cenkci_q_pb(n, sign * k)
            den = lcm(*(c.denominator for c in want))
            assert value * den == QPoly([int(c * den) for c in want[::-1]])
    # _carlitz_power_sum's width weights m! * S(n+s, m+s): at q = 1 its value
    # is the sum of (-1)**m * m! * S(n+s, m+s) / (m+1)**k
    for n in range(25):
        for s in (0, 1):
            for k in (-1, 0, 1):
                want = sum((-1) ** m * factorial(m) * S(n + s, m + s) * Fraction(m + 1) ** -k for m in range(n + 1))
                assert F._carlitz_power_sum(n, k, s).eval_rational(1) == want


def test_classical_row_keeps_no_memory():
    # A classical value holds one row while it runs and nothing after it:
    # the column memo this replaced kept 42.6 MB here.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = F.classical_pb(600, 0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak - before < 4_000_000
    assert after - before < 100_000


def _containers():
    """The length of every module-level list and dict of qpb, and of every
    list or dict inside one."""
    def shape(value):
        if isinstance(value, dict):
            value = list(value.values())
        return (len(value), [shape(v) for v in value if isinstance(v, (list, dict))])

    return {(name, attr): shape(value)
            for name, module in list(sys.modules.items()) if name == "qpb" or name.startswith("qpb.")
            for attr, value in vars(module).items() if isinstance(value, (list, dict))}


def test_classical_reads_grow_no_module_state(monkeypatch):
    before = _containers()
    for n, k in ((40, 3), (3, 40), (30, 30)):
        F.classical_pb(n, k), F.classical_pb(n, -k), F.classical_pb_negk(n, k), F.c_relative(n, k)
        F.cenkci_q_pb(n, k), F.cenkci_q_pb(n, -k)
        qkernels.stirling2(n, k), qkernels.surjections(n, k), qkernels.s2_q(n, k)
    assert _containers() == before
    # _carlitz_power_sum grows only the q-factorial, q-Stirling and Phi_d
    # memos, which it reads for the q-values themselves.
    q_memos = {("qpb.qkernels", "_q_factorials"), ("qpb.qkernels", "_stirling_tables"),
               ("qpb.exactnum", "_cyclotomics")}
    monkeypatch.setattr(qkernels, "_q_factorials", [QPoly.one()])
    monkeypatch.setattr(qkernels, "_stirling_tables", {v: [[QPoly.one()]] for v in STIRLING_VARIANTS})
    monkeypatch.setattr(exactnum, "_cyclotomics", [QPoly((-1, 1))])
    before = _containers()
    F.at_q_pb(12, 1), F.at_q_pb(12, -2), F.carlitz_beta(12)
    after = _containers()
    assert {key for key in after if after[key] != before[key]} == q_memos
