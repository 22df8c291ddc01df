"""Rook statistic, placements, board algebra, and the banded board."""

from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpb import families
from qpb.errors import SizeLimitError
from qpb.exactnum import QPoly
from qpb.qkernels import q_factorial, q_stirling
from qpb.rook import (
    Board,
    block_over,
    build_v_matrix,
    full_board,
    lower_triangular,
    q_rook_number,
    rotate_180,
    secondary_staircase,
    upper_triangular,
)
from reference_objects import (
    RookConfig,
    from_terms,
    gr_inv,
    inversions,
    placement_from_permutation,
    rook_placements,
)

V5 = build_v_matrix(3, 2)


def test_v5_matches_reference_band():
    assert V5.cells == (
        (1, 1, 1, 0, 0),
        (1, 1, 1, 1, 0),
        (1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1),
        (0, 1, 1, 1, 1),
    )
    assert V5.to_int_matrix().permanent() == 46


def test_v_block_structure():
    # [[J_{n,k}, T_n], [T^k, J_{k,n}]] with the lower and upper triangles
    n, k = 3, 2
    v = build_v_matrix(n, k)
    t_n = lower_triangular(n)
    t_k = upper_triangular(k)
    for i in range(n):
        assert v.cells[i][:k] == (1,) * k
        assert v.cells[i][k:] == t_n.cells[i]
    for i in range(k):
        assert v.cells[n + i][:k] == t_k.cells[i]
        assert v.cells[n + i][k:] == (1,) * n


def test_v_is_reflected_block_composite():
    for n in range(4):
        for k in range(4):
            composite = block_over(rotate_180(secondary_staircase(k)), secondary_staircase(n))
            assert Board(composite.cells[::-1]) == build_v_matrix(n, k)


def test_worked_placement_inversions():
    cfg = placement_from_permutation((3, 1, 5, 2, 4), V5)
    assert gr_inv(cfg) == 4
    assert gr_inv(RookConfig(Board(()), frozenset())) == 0
    idb = full_board(4, 4)
    assert gr_inv(placement_from_permutation((1, 2, 3, 4), idb)) == 0


def test_full_placements_track_permutation_inversions():
    board = full_board(4, 4)
    for perm in ((2, 1, 4, 3), (4, 3, 2, 1), (1, 3, 2, 4)):
        cfg = placement_from_permutation(perm, board)
        assert gr_inv(cfg) == inversions(perm)


def test_rook_config_validation():
    with pytest.raises(ValueError):
        RookConfig(V5, frozenset({(0, 3)}))  # not a board cell
    with pytest.raises(ValueError):
        RookConfig(V5, frozenset({(0, 0), (0, 1)}))  # same row
    with pytest.raises(ValueError):
        RookConfig(V5, frozenset({(9, 0)}))  # outside the rectangle


def test_empty_placement_counts_whole_rectangle():
    board = Board(((1, 0), (0, 0)))
    assert q_rook_number(board, 0) == QPoly.q(4)


def test_full_square_rook_numbers_are_q_factorials():
    for n in range(6):
        assert q_rook_number(full_board(n, n), n) == q_factorial(n)


def test_staircase_rook_numbers():
    for n in range(1, 6):
        board = secondary_staircase(n)
        for k in range(n + 1):
            want = QPoly.q(comb(n, 2)) * q_stirling("shifted", n + 1, n + 1 - k)
            assert q_rook_number(board, k) == want


def test_rook_number_guards():
    with pytest.raises(SizeLimitError):
        q_rook_number(full_board(9, 9), 1)
    with pytest.raises(ValueError):
        q_rook_number(full_board(2, 2), 3)


def test_rook_count_at_one():
    # q = 1 recovers the plain number of placements
    board = Board(((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    for k in range(4):
        assert q_rook_number(board, k).at_one() == sum(1 for _ in rook_placements(board, k))


def _all_boards(n, cols=None):
    cols = n if cols is None else cols
    for bits in product((0, 1), repeat=n * cols):
        yield Board(tuple(bits[i * cols:(i + 1) * cols] for i in range(n)))


def _placement_hist(board, k):
    """q_rook_number's specification: gr_inv scored on each placement."""
    return from_terms(Counter(
        gr_inv(RookConfig(board, rooks)) for rooks in rook_placements(board, k)
    ))


def test_rook_number_matches_placements():
    shapes = [(r, c) for r in range(4) for c in range(4)] + [(1, 4), (4, 1)]
    for rows, cols in shapes:
        for board in _all_boards(rows, cols):
            for k in range(min(rows, cols) + 1):
                assert q_rook_number(board, k) == _placement_hist(board, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rook_number_matches_placements_sampled(data):
    rows = data.draw(st.integers(min_value=1, max_value=5))
    cols = data.draw(st.integers(min_value=0, max_value=5))
    board = Board(tuple(
        tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(cols))
        for _ in range(rows)
    ))
    k = data.draw(st.integers(min_value=0, max_value=min(rows, cols)))
    assert q_rook_number(board, k) == _placement_hist(board, k)


# Boards of 6 to 8 rows, cut at rows // 2: with every rook below the cut,
# on a band, with an empty row at the cut, and sampled.
_TALL = range(6, 9)


def _every_k(board):
    for k in range(min(board.rows, board.cols) + 1):
        assert q_rook_number(board, k) == _placement_hist(board, k), (board, k)


def test_split_rook_number_with_every_rook_below_the_cut():
    for rows in _TALL:
        cut = rows // 2
        for cols in (1, 2, 3):
            # the top rows hold no cell, so every rook lands below the cut
            _every_k(Board(((0,) * cols,) * cut + ((1,) * cols,) * (rows - cut)))
            _every_k(full_board(rows, cols))
            _every_k(lower_triangular(rows))


def test_split_rook_number_on_band_boards():
    for m in range(6, 8):
        for n in range(m + 1):
            board = build_v_matrix(n, m - n)
            _every_k(board)
            assert q_rook_number(board, m) == families.vesztergombi_q_pb(n, m - n)


def test_split_rook_number_with_an_empty_row_at_the_cut():
    for rows in _TALL:
        cut = rows // 2
        for empty in (cut - 1, cut):
            for cols in (3, 4):
                cells = [[1] * cols for _ in range(rows)]
                cells[empty] = [0] * cols
                _every_k(Board(tuple(map(tuple, cells))))
                # and with the triangle's cells left of the diagonal
                cells = [[1 if j <= i else 0 for j in range(cols)] for i in range(rows)]
                cells[empty] = [0] * cols
                _every_k(Board(tuple(map(tuple, cells))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_rook_number_sampled_tall_boards(data):
    rows = data.draw(st.sampled_from(list(_TALL)))
    cols = data.draw(st.integers(min_value=1, max_value=5))
    _every_k(Board(tuple(
        tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(cols))
        for _ in range(rows)
    )))


def test_rook_number_on_boards_wider_than_64_columns():
    # Row masks past bit 63 must keep every cell; a fixed-size bit table
    # would drop the cells past its width and still return a polynomial.
    wide = [
        Board((tuple(int(j % 3 != 1) for j in range(70)),)),
        Board((tuple(int(j == 69) for j in range(70)),)),
    ]
    for board in wide:
        for k in (0, 1):
            assert q_rook_number(board, k, max_area=board.area) == _placement_hist(board, k)
    two = Board((tuple(int(j % 4 != 0) for j in range(40)), tuple(int(j % 5 != 2) for j in range(40))))
    assert q_rook_number(two, 2, max_area=two.area) == _placement_hist(two, 2)


def test_rook_number_on_seven_row_boards():
    # At k == cols every column takes a rook, so most partial placements die.
    for cols in (5, 7):
        _every_k(full_board(7, cols))
    for cols in range(4, 8):
        _every_k(Board(tuple(tuple(1 if j <= i else 0 for j in range(cols)) for i in range(7))))


def test_rook_number_on_band_boards_past_the_default_area():
    for m in range(8, 13):
        for n in range(m + 1):
            board = build_v_matrix(n, m - n)
            got = q_rook_number(board, m, max_area=board.area)
            assert got == families.vesztergombi_q_pb(n, m - n), (n, m)


def test_reflection_law_exhaustive_small():
    for n in (1, 2, 3):
        for board in _all_boards(n):
            lhs = q_rook_number(Board(board.cells[::-1]), n)
            rhs = QPoly.q(comb(n, 2)) * q_rook_number(board, n).subs_inv_q()
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_reflection_law_sampled_4x4(data):
    rows = tuple(
        tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(4))
        for _ in range(4)
    )
    board = Board(rows)
    lhs = q_rook_number(Board(board.cells[::-1]), 4)
    rhs = QPoly.q(6) * q_rook_number(board, 4).subs_inv_q()
    assert lhs == rhs


def _block_law_holds(a: Board, b: Board) -> bool:
    lhs = q_rook_number(block_over(b, a), a.rows + b.rows)
    rhs = QPoly.zero()
    for i in range(min(a.rows, b.rows) + 1):
        f = q_factorial(i)
        rhs = rhs + (
            q_rook_number(a, a.rows - i)
            * q_rook_number(rotate_180(b), b.rows - i)
            * f * f
        ).shift(-i * i)
    return lhs == rhs


def test_block_law_exhaustive_up_to_2x2():
    boards = [b for n in (1, 2) for b in _all_boards(n)]
    for a in boards:
        for b in boards:
            assert _block_law_holds(a, b)


def test_block_law_structured_3x3():
    trio = (secondary_staircase(3), full_board(3, 3), lower_triangular(3), upper_triangular(3))
    for a in trio:
        for b in trio:
            assert _block_law_holds(a, b)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_block_law_sampled_3x3(data):
    def draw_board():
        return Board(tuple(
            tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(3))
            for _ in range(3)
        ))

    assert _block_law_holds(draw_board(), draw_board())


def test_staircase_is_reflected_triangle():
    for k in range(1, 6):
        assert secondary_staircase(k) == Board(lower_triangular(k).cells[::-1])


def test_rotate_twice_is_identity():
    board = Board(((1, 0, 1), (0, 1, 1)))
    assert rotate_180(rotate_180(board)) == board


def test_band_boards_bridge_to_family():
    for n in range(4):
        for k in range(4):
            if n + k > 6:
                continue
            board = build_v_matrix(n, k)
            got = q_rook_number(board, n + k)
            assert got == families.vesztergombi_q_pb(n, k)
            # full placements are counted by the permanent
            assert got.at_one() == board.to_int_matrix().permanent()


def test_band_permanents_count_poly_bernoulli_negk():
    # perm of the (n+k)x(n+k) band board is B_n^(-k), up to the sizes the
    # benchmark's band permanents reach (14x14 and 16x16)
    for n in range(17):
        for k in range(17 - n):
            assert build_v_matrix(n, k).to_int_matrix().permanent() == families.classical_pb_negk(n, k), (n, k)


@pytest.mark.parametrize("cells", [
    ((1, 0), (1,)),
    ((1,), (0, 1)),
    ((0, 2),),
    ((1, 1), (0, -1)),
    ((0.5, 1),),
    ((0, [1]),),
], ids=["ragged-short", "ragged-long", "two", "minus-one", "half", "unhashable"])
def test_board_rejects_ragged_rows_and_non_binary_entries(cells):
    with pytest.raises(ValueError):
        Board(cells)


def test_board_accepts_zero_one_rows():
    assert Board(((0, 1, 1), (1, 0, 0))).area == 6
    assert Board(()).area == Board(((), ())).area == 0
