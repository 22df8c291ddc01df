"""Generator and recognizer tests against reference counts and hand checks."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpb import families
from qpb.errors import SizeLimitError
from qpb.exactnum import QPoly
from qpb.objects import (
    MAX_SCAN_CELLS,
    _FORBIDDEN,
    _insertion_hist,
    _rows_below,
    class_poly,
    fubini_oracle,
    ordered_q_oracle,
    vesztergombi_oracle,
)
from reference_objects import (
    _pattern_scan,
    _STATISTICS,
    count_class,
    from_terms,
    gen_alternating_pairs,
    gen_matrix_class,
    gen_ordered_partitions,
    gen_vesztergombi,
    inv_star,
    inversions,
    is_gamma_free,
    is_lonesum,
    is_perm_matrix,
    nu_weight,
)

# The 6x9 worked example: lonesum with zero line indices {3; 5, 9}.
EXAMPLE_MATRIX = (
    (1, 1, 1, 0, 0, 1, 1, 1, 0),
    (1, 0, 1, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 1, 1, 1, 0),
    (1, 0, 1, 0, 0, 1, 0, 1, 0),
    (1, 1, 1, 0, 0, 1, 1, 1, 0),
)


def test_inv_star_worked_example():
    assert inv_star([[1, 3, 7], [2, 6], [4, 5]]) == 4


def test_inv_star_single_block_and_reversed_singletons():
    assert inv_star([[2, 5, 9]]) == 0
    assert inv_star([[3], [2], [1]]) == 3


def test_ordered_partitions_counts_are_fubini_numbers():
    fub = [1, 1, 3, 13, 75, 541]
    for n, expect in enumerate(fub):
        assert sum(1 for _ in gen_ordered_partitions(n)) == expect


def test_ordered_partitions_size_guard():
    with pytest.raises(SizeLimitError):
        next(gen_ordered_partitions(10))


def test_fubini_oracle_small():
    assert fubini_oracle(0) == QPoly.one()
    assert fubini_oracle(3) == QPoly([4, 5, 3, 1])


def test_fubini_oracle_matches_generator():
    # the insertion search against inv_star scored on each generated partition
    for n in range(8):
        weights = Counter(inv_star(p) for p in gen_ordered_partitions(n))
        assert fubini_oracle(n) == from_terms(weights)
    with pytest.raises(SizeLimitError):
        fubini_oracle(10)


def _reference_insertion_hist(steps, keep_first=False, end_in_last=False):
    """The single insertion search that visits every ordered partition as a
    leaf, kept as the reference for the transfer count over block counts."""
    hist = Counter()

    def grow(left, c, w):
        if left == 1 and end_in_last:
            if c:
                hist[c, w] += 1
            hist[c + 1, w] += 1
        elif left > 0:
            left -= 1
            for d in range(c):
                grow(left, c, w + d)
            for d in range(c + 1 - keep_first):
                grow(left, c + 1, w + d)
        else:
            hist[c, w] += 1

    grow(steps, int(keep_first), 0)
    return hist


def _by_block_count(hist):
    """A histogram over (block count, weight) pairs as one polynomial per
    block count."""
    groups = {}
    for (c, w), mult in hist.items():
        groups.setdefault(c, {})[w] = mult
    return {c: from_terms(terms) for c, terms in groups.items()}


# The flag pairs that some oracle uses reach these steps: no flag reaches
# fubini_oracle(9); the blue and red sides of ordered_q_oracle(6, k) and
# (n, 6), keep_first and end_in_last, reach steps 6 and 7.  The pair with
# both flags has no caller.  8 is above every flagged caller's reach.
MAX_STEPS_CHECKED = {(False, False): 9, (True, False): 8, (False, True): 8, (True, True): 8}


@pytest.mark.parametrize("steps", range(10))
def test_insertion_hist_halves_match_single_search(steps):
    # (the name is older than the transfer count it now checks)
    for (keep_first, end_in_last), top in MAX_STEPS_CHECKED.items():
        if steps > top:
            continue
        expected = _reference_insertion_hist(steps, keep_first, end_in_last)
        assert _insertion_hist(steps, keep_first, end_in_last) == _by_block_count(expected)


@pytest.mark.parametrize("n", range(10))
def test_fubini_oracle_matches_formula_over_the_guarded_range(n):
    assert fubini_oracle(n) == families.q_fubini(n)


@pytest.mark.parametrize("n", range(7))
def test_ordered_q_oracle_matches_formula_over_the_guarded_range(n):
    for k in range(7):
        assert ordered_q_oracle(n, k) == families.ordered_q_pb(n, k)


@pytest.mark.parametrize("n, k", [(6, k) for k in range(7)] + [(n, 6) for n in range(6)])
def test_ordered_q_oracle_matches_single_search_convolution(n, k):
    # the pair generator stops short of these shapes in the tests
    expected = Counter()
    for (b, wb), mb in _reference_insertion_hist(n, keep_first=True).items():
        for (r, wr), mr in _reference_insertion_hist(k + 1, end_in_last=True).items():
            if b == r:
                expected[wb + wr] += mb * mr
    assert ordered_q_oracle(n, k) == from_terms(expected)


def test_alternating_pairs_worked_example():
    pairs = list(gen_alternating_pairs(3, 1))
    assert len(pairs) == 8
    assert ordered_q_oracle(3, 1) == QPoly([4, 3, 1])


def test_alternating_pairs_sum_to_oracle():
    # the pair generator filters whole partitions for their anchors; the
    # oracle keeps the anchors while inserting and never builds a partition
    for n in range(6):
        for k in range(6):
            weights = Counter(inv_star(b) + inv_star(r) for b, r in gen_alternating_pairs(n, k))
            assert from_terms(weights) == ordered_q_oracle(n, k)
    with pytest.raises(SizeLimitError):
        next(gen_alternating_pairs(1, 7))


def test_alternating_pairs_edges():
    assert ordered_q_oracle(4, 0) == QPoly.one()  # single pair of weight 1
    assert ordered_q_oracle(2, 2).at_one() == 14
    with pytest.raises(SizeLimitError):
        ordered_q_oracle(7, 1)


def test_lonesum_recognizer():
    assert is_lonesum(EXAMPLE_MATRIX)
    assert not is_lonesum(((0, 1), (1, 0)))
    assert not is_lonesum(((1, 0), (0, 1)))
    assert is_lonesum(((1, 1), (1, 1)))
    # non-adjacent minor: rows 1,3 and columns 1,3
    assert not is_lonesum(((1, 1, 0), (0, 0, 0), (0, 1, 1)))


def test_nu_weight_worked_example():
    assert nu_weight(EXAMPLE_MATRIX) == 17
    assert nu_weight(((1, 1), (1, 1))) == 0


def test_matrix_class_counts_2x3():
    assert count_class("lonesum", 2, 3) == 46
    assert count_class("gamma_free", 2, 3) == 46


def test_perm_matrix_2x2():
    assert class_poly("perm_matrix", 2, 2, "ones_minus_cols") == QPoly([3, 3, 1])
    assert not is_perm_matrix(((0, 1), (1, 0)))
    assert not is_perm_matrix(((1, 1), (1, 0)))
    assert is_perm_matrix(((1, 0), (0, 1)))
    assert is_perm_matrix(((0, 0), (1, 1)))
    assert not is_perm_matrix(((0, 0), (0, 1)))  # first column has no 1


def test_gamma_free_recognizer():
    assert not is_gamma_free(((1, 1), (1, 0)))
    assert not is_gamma_free(((1, 1), (1, 1)))
    assert is_gamma_free(((1, 0), (1, 1)))


def test_degenerate_shapes():
    # zero columns: single empty matrix in every class
    assert count_class("lonesum", 3, 0) == 1
    assert class_poly("lonesum", 3, 0, "nu_sum") == QPoly.q(6)
    # zero rows: columns are all zero; the column-covering class drops out
    assert count_class("lonesum", 0, 3) == 1
    assert class_poly("lonesum", 0, 3, "nu_sum") == QPoly.q(6)
    assert count_class("perm_matrix", 0, 2) == 0
    assert count_class("perm_matrix", 0, 0) == 1


@pytest.mark.parametrize("cls", ["lonesum", "gamma_free", "perm_matrix"])
def test_columnless_shape_is_scored_without_a_row_search(cls, monkeypatch):
    # A row search would read the class's row table; an empty shape is
    # scored in closed form and reads none.
    def no_row_table(*args):
        raise AssertionError("row search on an empty shape")

    monkeypatch.setattr("qpb.objects._below_table", no_row_table)
    # One matrix of 5000 empty rows: every row is zero, so nu_sum is
    # 1 + 2 + ... + 5000, and the other statistics read 0.
    n = 5000
    assert class_poly(cls, n, 0, "nu_sum") == QPoly.q(n * (n + 1) // 2)
    assert class_poly(cls, n, 0, "ones_minus_cols") == QPoly.one()
    assert class_poly(cls, n, 0) == QPoly.one()
    # One matrix with no rows and 5000 zero columns, which the
    # column-covering class rejects: nu_sum is 1 + 2 + ... + 5000 again,
    # and ones_minus_cols reads -5000.
    k = 5000
    if cls == "perm_matrix":
        for statistic in ("none", "nu_sum", "ones_minus_cols"):
            assert class_poly(cls, 0, k, statistic) == QPoly.zero()
    else:
        assert class_poly(cls, 0, k, "nu_sum") == QPoly.q(k * (k + 1) // 2)
        assert class_poly(cls, 0, k, "ones_minus_cols") == QPoly.q(-k)
        assert class_poly(cls, 0, k) == QPoly.one()


def scan_matrix_class(cls, n, k):
    """Reference enumeration: every one of the 2**(n*k) candidate matrices,
    in lexicographic order, filtered by the class's recognizer."""
    if n == 0:
        # A matrix with no rows cannot show the recognizer its k empty
        # columns; only the column-covering class rejects them.
        return [()] if cls != "perm_matrix" or k == 0 else []
    accept = {"lonesum": is_lonesum, "gamma_free": is_gamma_free, "perm_matrix": is_perm_matrix}[cls]
    candidates = (tuple(bits[i * k:(i + 1) * k] for i in range(n))
                  for bits in product((0, 1), repeat=n * k))
    return [m for m in candidates if accept(m)]


def test_row_search_matches_reference_scan():
    for cls in ("lonesum", "gamma_free", "perm_matrix"):
        for n in range(13):
            for k in range(13):
                if n * k <= 12:
                    assert list(gen_matrix_class(cls, n, k)) == scan_matrix_class(cls, n, k), (cls, n, k)


def test_matrix_scan_guard():
    with pytest.raises(SizeLimitError):
        next(gen_matrix_class("lonesum", 5, 5))


def test_class_poly_matches_generator_and_statistic():
    # the bitset search scores rows as it places them; the specification is
    # the per-matrix statistic of each generated matrix.  Every shape up to
    # 16 cells, and the wide tableau shapes (k > n) up to the bound, which
    # class_poly counts transposed with no zero row in place of covering
    # every column.
    cases = [(cls, n, k) for cls in _FORBIDDEN for n in range(17) for k in range(17) if n * k <= 16]
    cases += [("perm_matrix", n, k) for n in range(1, MAX_SCAN_CELLS + 1)
              for k in range(n + 1, MAX_SCAN_CELLS + 1) if 16 < n * k <= MAX_SCAN_CELLS]
    for cls, n, k in cases:
        matrices = list(gen_matrix_class(cls, n, k))
        assert count_class(cls, n, k) == len(matrices), (cls, n, k)
        for statistic, stat in _STATISTICS.items():
            expect = from_terms(Counter(stat(m, k) for m in matrices))
            assert class_poly(cls, n, k, statistic) == expect, (cls, n, k, statistic)


def transpose(m, k):
    """The k x n transpose of an n x k matrix, k pinned for shapes with no rows."""
    return tuple(tuple(row[j] for row in m) for j in range(k))


def test_every_class_and_nu_weight_read_the_same_transposed():
    # class_poly counts a wide shape as its transpose.  That is exact only
    # while each forbidden set maps to itself under (a, b, c, d) ->
    # (a, c, b, d) and the zero-line weight is the same on a matrix and
    # its transpose.
    for cls, patterns in _FORBIDDEN.items():
        assert {(a, c, b, d) for a, b, c, d in patterns} == set(patterns), cls
    for cls in _FORBIDDEN:
        for n in range(13):
            for k in range(13):
                if n * k > 12:
                    continue
                for m in gen_matrix_class(cls, n, k):
                    assert nu_weight(m, k) == nu_weight(transpose(m, k), n), (cls, m)


def test_rows_below_matches_pattern_scan():
    # bit c of the bitset is set iff the two-row matrix (upper, row c) has
    # none of the class's forbidden 2x2 patterns
    for cls, patterns in _FORBIDDEN.items():
        for k in range(7):
            rows = list(product((0, 1), repeat=k))
            for upper, top in enumerate(rows):
                allowed = _rows_below(upper, k, patterns)
                for code, row in enumerate(rows):
                    assert (allowed >> code & 1) == _pattern_scan((top, row), patterns), (cls, k, upper, code)
                assert allowed >> len(rows) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5), st.data())
def test_lonesum_closed_under_transpose(n, k, data):
    rows = tuple(
        tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(k))
        for _ in range(n)
    )
    transpose = tuple(tuple(rows[i][j] for i in range(n)) for j in range(k))
    assert is_lonesum(rows) == is_lonesum(transpose)


def test_vesztergombi_reference_counts():
    perms = list(gen_vesztergombi(2, 2))
    assert len(perms) == 14
    assert vesztergombi_oracle(2, 2) == QPoly([1, 3, 5, 4, 1])


def test_vesztergombi_oracle_matches_generator():
    # the incremental inversion count against inversions() of each permutation
    for m in range(9):
        for n in range(m + 1):
            weights = Counter(inversions(p) for p in gen_vesztergombi(n, m - n))
            assert vesztergombi_oracle(n, m - n) == from_terms(weights)
    with pytest.raises(SizeLimitError):
        vesztergombi_oracle(5, 5)


@pytest.mark.parametrize("n, k", [(4, 5), (5, 4)])
def test_vesztergombi_oracle_matches_generator_at_the_bound(n, k):
    # m = 9: the prefix covers positions 1..4 and the suffix 5..9
    weights = Counter(inversions(p) for p in gen_vesztergombi(n, k))
    assert vesztergombi_oracle(n, k) == from_terms(weights)


def test_vesztergombi_band_membership():
    perms = set(gen_vesztergombi(3, 2))
    assert (3, 1, 5, 2, 4) in perms
    assert inversions((3, 1, 5, 2, 4)) == 4
    # identity only when k = 0
    assert list(gen_vesztergombi(4, 0)) == [(1, 2, 3, 4)]
    with pytest.raises(SizeLimitError):
        next(gen_vesztergombi(6, 4))


_NEGATIVE_PAIRS = [(-1, 0), (0, -1), (-1, 2), (2, -1), (-2, -2)]
# The partition, pair and band guards check their size bound first, so a
# shape past the bound still raises SizeLimitError whatever its sign.
_SHAPES = {
    "partition": [((-1,), ValueError), ((-3,), ValueError)],
    "pair": [(s, ValueError) for s in _NEGATIVE_PAIRS] + [((7, -1), SizeLimitError)],
    "band": [(s, ValueError) for s in _NEGATIVE_PAIRS] + [((11, -1), SizeLimitError)],
}


@pytest.mark.parametrize("entry, shape, error", [
    pytest.param(entry, shape, error, id=f"{entry.__name__}{shape}")
    for entry, kind in [
        (gen_ordered_partitions, "partition"),
        (fubini_oracle, "partition"),
        (gen_alternating_pairs, "pair"),
        (ordered_q_oracle, "pair"),
        (gen_vesztergombi, "band"),
        (vesztergombi_oracle, "band"),
    ]
    for shape, error in _SHAPES[kind]
])
def test_negative_sizes_raise(entry, shape, error):
    # the family formulas raise ValueError at negative sizes; so do their oracles
    with pytest.raises(error):
        out = entry(*shape)
        if not isinstance(out, QPoly):
            next(out)


@pytest.mark.parametrize("entry", [class_poly, count_class, gen_matrix_class])
@pytest.mark.parametrize("shape, error", [
    ((-1, 3), ValueError), ((3, -1), ValueError), ((-1, -30), ValueError),
    ((-1, 0), ValueError), ((0, -1), ValueError), ((5, 5), SizeLimitError),
])
def test_matrix_sizes_raise(entry, shape, error):
    # a negative side is rejected before the cell count is read, so two
    # negative sides whose product passes MAX_SCAN_CELLS raise ValueError
    with pytest.raises(error):
        out = entry("lonesum", *shape)
        if not isinstance(out, (QPoly, int)):
            next(out)


def test_counts_match_pair_formula():
    for n in range(6):
        for k in range(6):
            if n * k > 20:
                continue
            lonesum = class_poly("lonesum", n, k, "nu_sum")
            assert lonesum == families.lonesum_q_pb(n, k)
            assert lonesum.at_one() == families.classical_pb_negk(n, k)
            assert count_class("gamma_free", n, k) == families.classical_pb_negk(n, k)


def test_perm_matrix_counts_match_relative():
    for n in range(6):
        for k in range(6):
            if n * k <= 20:
                assert count_class("perm_matrix", n, k) == families.c_relative(n, k)


def test_permmatrix_row_column_symmetry():
    # (n, k) -> (k + 1, n - 1) is an involution on this set of shapes
    shapes = [(n, k) for n in range(1, 22) for k in range(21)
              if n * k <= 20 and (k + 1) * (n - 1) <= 20]
    poly = {shape: families.permmatrix_q_pb(*shape) for shape in shapes}
    for n, k in shapes:
        assert poly[n, k] == poly[k + 1, n - 1], (n, k)


def test_class_poly_matches_formula_routes_on_wide_and_tall_shapes():
    # the shapes past the generator comparison: 16 < n*k <= MAX_SCAN_CELLS
    # with n >= 3, and the tall lines (n, 1) and (n, 2) and the wide lines
    # (1, k) and (2, k), which are counted transposed, up to the bound
    shapes = {(n, k) for n in range(3, MAX_SCAN_CELLS + 1) for k in range(1, MAX_SCAN_CELLS + 1)
              if 16 < n * k <= MAX_SCAN_CELLS}
    for side in (1, 2):
        shapes |= {(n, side) for n in range(1, MAX_SCAN_CELLS // side + 1)}
        shapes |= {(side, k) for k in range(1, MAX_SCAN_CELLS // side + 1)}
    for n, k in sorted(shapes):
        assert class_poly("lonesum", n, k, "nu_sum") == families.lonesum_q_pb(n, k), (n, k)
        assert count_class("gamma_free", n, k) == families.classical_pb_negk(n, k), (n, k)
        assert count_class("perm_matrix", n, k) == families.c_relative(n, k), (n, k)


def test_gamma_free_under_nu_sum_matches_lonesum_q():
    # a second object route for lonesum_q: the gamma-free matrices under
    # the zero-line statistic, on every shape within the scan bound
    shapes = [(n, k) for n in range(MAX_SCAN_CELLS + 1) for k in range(MAX_SCAN_CELLS + 1)
              if n * k <= MAX_SCAN_CELLS]
    for n, k in shapes:
        assert class_poly("gamma_free", n, k, "nu_sum") == families.lonesum_q_pb(n, k), (n, k)


def test_permmatrix_row_column_symmetry_up_to_the_bound():
    # every shape where both (n, k) and (k + 1, n - 1) pass the size guard
    shapes = [(n, k) for n in range(1, MAX_SCAN_CELLS + 2) for k in range(MAX_SCAN_CELLS + 1)
              if n * k <= MAX_SCAN_CELLS and (k + 1) * (n - 1) <= MAX_SCAN_CELLS]
    assert (2, 12) in shapes and (1, MAX_SCAN_CELLS) in shapes
    for n, k in shapes:
        assert families.permmatrix_q_pb(n, k) == families.permmatrix_q_pb(k + 1, n - 1), (n, k)
