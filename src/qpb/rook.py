"""Boards, rook placements, and the cell-inversion statistic.

A board is a 0/1 mask inside a bounding rectangle; rooks sit on mask cells,
never sharing a row or column.  The inversion statistic counts cells of the
bounding rectangle (present on the board or not) that see no rook weakly to
their right in the same row and no rook strictly below in the same column.
Counting the whole rectangle rather than the mask is what makes the
reflection, staircase, and block-composition laws exact; on a full square
with a full placement the statistic is the ordinary permutation inversion
number.

q_rook_number counts each placement once but never builds it: it fills
the rows bottom-up and adds each row's uncancelled cells as the row is
filled.  It is a transfer count (Stanley, EC1 4.7): the partial
placements that take the same columns are merged into one packed weight
histogram per column set.  The placement-by-placement statement of the
same sum, a listing of the placements scored by the statistic, lives
with the tests in tests/reference_objects.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul, or_

from .errors import SizeLimitError
from .exactnum import IntMatrix, QPoly

__all__ = [
    "Board",
    "q_rook_number",
    "rotate_180",
    "block_over",
    "full_board",
    "lower_triangular",
    "upper_triangular",
    "secondary_staircase",
    "build_v_matrix",
]

DEFAULT_MAX_AREA = 64

_CELL_VALUES = frozenset((0, 1))


@dataclass(frozen=True)
class Board:
    """0/1 cell mask; cells[i][j] == 1 means the cell is on the board."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cols = len(self.cells[0]) if self.cells else 0
        for row in self.cells:
            if len(row) != cols:
                raise ValueError("board rows have unequal lengths")
            try:
                # One subset test per row; 1.0 and True equal 1, as in (0, 1).
                cells_ok = _CELL_VALUES.issuperset(row)
            except TypeError:  # an unhashable entry is no 0/1 cell either
                cells_ok = False
            if not cells_ok:
                raise ValueError("board entries must be 0 or 1")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    @property
    def area(self) -> int:
        return self.rows * self.cols

    def to_int_matrix(self) -> IntMatrix:
        return IntMatrix(self.cells)


def q_rook_number(board: Board, k: int, max_area: int = DEFAULT_MAX_AREA) -> QPoly:
    """Generating polynomial of k-rook placements by the inversion statistic.

    Rows are filled bottom-up, and below holds bit j for each column with a
    rook in a row already filled, so each row's uncancelled cells are known
    when it is filled: a rook at column j leaves the cells right of it
    whose column is not in below, and an empty row leaves every column not
    in below.

    The weight a row adds depends only on below, so the rows are filled as
    a transfer count: one dict maps each below to the histogram of the
    weights of the partial placements that reach it, packed
    (QPoly.packed).  A row shifts each histogram by its weight into the
    next state's, and the states with k rooks after the top row hold the
    sum.  A state stops taking rooks at k.  It is dropped once the rows
    left, or the free columns with a cell in those rows, are too few for
    the rooks it still needs: such a state could never reach k.  Every row
    is empty or holds one of cols rooks, so (cols+1)**rows bounds each
    count and sets the packed width.
    """
    cells = board.cells
    n_rows, cols = len(cells), board.cols
    if n_rows * cols > max_area:
        raise SizeLimitError(f"board area {n_rows * cols} exceeds bound {max_area}")
    if k < 0 or k > min(n_rows, cols):
        raise ValueError(f"k must lie in [0, min(rows, cols)], got {k}")
    width = (((cols + 1) ** n_rows).bit_length() + 7) // 8
    shift = 8 * width
    bits = [1 << j for j in range(cols)]  # row r's mask: bit j set for each cell r[j] == 1
    rows = [sum(map(mul, r, bits)) for r in cells]
    # reach[i]: the columns with a cell in rows 0..i-1, the rows left after row i.
    reach = list(accumulate(rows, or_, initial=0))
    states = {0: 1}
    for i in range(n_rows - 1, -1, -1):
        after: dict[int, int] = {}
        get = after.get
        row, left = rows[i], reach[i]
        for below, hist in states.items():
            placed = below.bit_count()
            lack = k - placed  # the rooks the state still needs
            room = (left & ~below).bit_count()  # the free columns the rows left reach
            if i >= lack and room >= lack:  # this row empty
                after[below] = get(below, 0) + (hist << shift * (cols - placed))
            # A rook at column j leaves lack - 1 rooks to place, and room
            # less one when j is in left.
            if lack < 1 or room < lack - 1:
                continue
            free = row & ~below if room >= lack else row & ~below & ~left
            while free:
                low = free & -free  # bit j; the row's uncancelled cells lie right of j
                free ^= low
                j1 = low.bit_length()
                w = cols - j1 - (below >> j1).bit_count()
                key = below | low
                after[key] = get(key, 0) + (hist << shift * w)
        states = after
    return QPoly.from_packed(sum(hist for below, hist in states.items() if below.bit_count() == k), width)


# ---------------------------------------------------------------------------
# board algebra
# ---------------------------------------------------------------------------

def rotate_180(board: Board) -> Board:
    return Board(tuple(tuple(reversed(r)) for r in reversed(board.cells)))


def block_over(top: Board, bottom: Board) -> Board:
    """Block board [[top, J], [J, bottom]] with all-ones glue blocks sized
    to fit the two diagonal blocks."""
    r1, c1 = top.rows, top.cols
    r2, c2 = bottom.rows, bottom.cols
    rows = []
    for i in range(r1):
        rows.append(top.cells[i] + (1,) * c2)
    for i in range(r2):
        rows.append((1,) * c1 + bottom.cells[i])
    return Board(tuple(rows))


def full_board(rows: int, cols: int) -> Board:
    return Board(tuple((1,) * cols for _ in range(rows)))


def lower_triangular(n: int) -> Board:
    """T_n: cell (i, j) present iff i >= j (1-based)."""
    return Board(tuple(tuple(1 if i >= j else 0 for j in range(n)) for i in range(n)))


def upper_triangular(k: int) -> Board:
    """T^k: cell (i, j) present iff i <= j (1-based)."""
    return Board(tuple(tuple(1 if i <= j else 0 for j in range(k)) for i in range(k)))


def secondary_staircase(n: int) -> Board:
    """H_n: ones on and above the secondary diagonal (i <= n - j + 1, 1-based)."""
    return Board(
        tuple(tuple(1 if i + j <= n - 1 else 0 for j in range(n)) for i in range(n))
    )


def build_v_matrix(n: int, k: int) -> Board:
    """(n+k) x (n+k) band board with cell (i, j) present iff
    -k <= i - j <= n (1-based indices)."""
    if n < 0 or k < 0:
        raise ValueError("build_v_matrix needs n, k >= 0")
    m = n + k
    return Board(
        tuple(
            tuple(1 if -k <= (i + 1) - (j + 1) <= n else 0 for j in range(m))
            for i in range(m)
        )
    )
