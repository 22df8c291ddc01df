"""Listing specifications for the library's transfer counts.

qpb.objects and qpb.rook count each class without building an object:
every oracle there merges the partial objects with the same state into
one packed histogram.  The functions here state the same sums object by
object instead.  They list every ordered set partition, anchored
partition pair, 0/1 matrix of a class and banded permutation, or every
rook placement, and score each with its own statistic (inv_star; for
the matrix classes, found by their recognizers, nu_weight and
ones_minus_cols; inversions; gr_inv).  The tests compare the two routes.
Each listing generator raises where its oracle does, through the
oracle's own size guard.  from_terms, terms and count_class are the
small readers the tests share.  stirling_columns is the classical
Stirling triangle by its column recurrence, the reference for the row
kernel qkernels.surjections and its readers.
"""

from dataclasses import dataclass
from itertools import compress, count, product
from typing import Iterator, Sequence

from qpb.exactnum import QPoly
from qpb.objects import (
    _FORBIDDEN,
    _below_table,
    _check_band_size,
    _check_matrix_size,
    _check_pair_size,
    _check_partition_size,
    class_poly,
)
from qpb.rook import Board

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# polynomials term by term
# ---------------------------------------------------------------------------

def from_terms(terms: dict[int, int]) -> QPoly:
    """The polynomial sum of c * q**e over the (e, c) items of terms."""
    if not terms:
        return QPoly()
    lo = min(terms)
    hi = max(terms)
    cs = [0] * (hi - lo + 1)
    for e, c in terms.items():
        cs[e - lo] = c
    return QPoly(cs, lo)


def terms(p: QPoly) -> Iterator[tuple[int, int]]:
    """Yield (exponent, coefficient) for the nonzero terms of p, ascending."""
    for i, c in enumerate(p.coeffs):
        if c:
            yield p.min_exp + i, c


# ---------------------------------------------------------------------------
# partitions and the inversion statistic
# ---------------------------------------------------------------------------

def stirling_columns(n: int, m: int) -> list[list[int]]:
    """cols[j][i] = S(j+i, j) for j <= min(n, m) and j + i <= n, column j
    from column j-1 by S(j+i, j) = S(j+i-1, j-1) + j * S(j+i-1, j)."""
    cols = [[1] + [0] * n]
    for j in range(1, min(n, m) + 1):
        col = []
        for i in range(n - j + 1):
            col.append(cols[j - 1][i] + j * (col[-1] if i else 0))
        cols.append(col)
    return cols


def inv_star(blocks: Sequence[Sequence[int]]) -> int:
    """Partition inversions: pairs (b, B_j) with b in an earlier block and
    b greater than min(B_j)."""
    mins = [min(b) for b in blocks]
    count = 0
    for i, block in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            mj = mins[j]
            for b in block:
                if b > mj:
                    count += 1
    return count


def _ordered_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for part in _ordered_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [last]] + part[i + 1:]
        for i in range(len(part) + 1):
            yield part[:i] + [[last]] + part[i:]


def gen_ordered_partitions(n: int) -> Iterator[list[list[int]]]:
    """All ordered set partitions of {1,...,n}, each exactly once."""
    _check_partition_size(n)
    yield from _ordered_partitions(list(range(1, n + 1)))


def gen_set_partitions(items: list) -> Iterator[list[list]]:
    """Unordered set partitions with blocks in canonical (min-sorted) order.

    Inserting the largest element never disturbs the order of block minima,
    so the canonical order is maintained for free.
    """
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for part in gen_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [last]] + part[i + 1:]
        yield part + [[last]]


def gen_alternating_pairs(n: int, k: int) -> Iterator[tuple[list[list[int]], list[list[int]]]]:
    """Pairs (blue, red) of anchored ordered partitions with equal block
    counts, each pair once: blue partitions {0,1,...,n} with the 0-block
    first, red partitions {1,...,k,k+1} with the (k+1)-block last.  The
    special low element is encoded as 0 and the special high element as
    k+1, which gives them the right comparison order for inv_star.
    """
    _check_pair_size(n, k)
    blues = (p for p in _ordered_partitions(list(range(n + 1))) if 0 in p[0])
    reds = (p for p in _ordered_partitions(list(range(1, k + 2))) if k + 1 in p[-1])
    by_blocks: dict[int, list[list[list[int]]]] = {}
    for blue in blues:
        by_blocks.setdefault(len(blue), []).append(blue)
    for red in reds:
        for blue in by_blocks.get(len(red), ()):
            yield blue, red


# ---------------------------------------------------------------------------
# 0/1 matrix classes
# ---------------------------------------------------------------------------

def count_class(cls: str, n: int, k: int) -> int:
    """Number of n x k matrices in the class: class_poly at q = 1."""
    return class_poly(cls, n, k).at_one()


def nu_weight(m: Sequence[Sequence[int]], cols: int | None = None) -> int:
    """Sum of the 1-based indices of all-zero rows plus all-zero columns:
    the nu_sum statistic of one matrix, which class_poly adds row by row.

    cols pins the column count for degenerate shapes (a matrix with no
    rows still has columns, all of them zero).
    """
    if cols is None:
        cols = len(m[0]) if m else 0
    total = 0
    for i, row in enumerate(m):
        if not any(row):
            total += i + 1
    for j in range(cols):
        if not any(row[j] for row in m):
            total += j + 1
    return total


def ones_minus_cols(m: Sequence[Sequence[int]], cols: int | None = None) -> int:
    """The number of 1s less the number of columns: the ones_minus_cols
    statistic of one matrix, which class_poly adds row by row."""
    if cols is None:
        cols = len(m[0]) if m else 0
    ones = sum(sum(row) for row in m)
    return ones - cols


# Each statistic class_poly accepts, by name, as a function of one matrix
# and its column count.
_STATISTICS = {
    "none": lambda m, cols: 0,
    "nu_sum": nu_weight,
    "ones_minus_cols": ones_minus_cols,
}


def _pattern_scan(m: Matrix, patterns: tuple[tuple[int, int, int, int], ...]) -> bool:
    """True when no 2x2 minor (arbitrary row and column pairs) matches any
    forbidden pattern (a, b, c, d) read row-major."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for i1 in range(rows):
        r1 = m[i1]
        for i2 in range(i1 + 1, rows):
            r2 = m[i2]
            for j1 in range(cols):
                a, c = r1[j1], r2[j1]
                for j2 in range(j1 + 1, cols):
                    quad = (a, r1[j2], c, r2[j2])
                    if quad in patterns:
                        return False
    return True


def is_lonesum(m: Sequence[Sequence[int]]) -> bool:
    """Reconstructible from row and column sums: avoids the two crossing
    2x2 patterns."""
    return _pattern_scan(tuple(tuple(r) for r in m), _FORBIDDEN["lonesum"])


def is_gamma_free(m: Sequence[Sequence[int]]) -> bool:
    return _pattern_scan(tuple(tuple(r) for r in m), _FORBIDDEN["gamma_free"])


def is_perm_matrix(m: Sequence[Sequence[int]]) -> bool:
    """Rectangular permutation tableau: every column holds a 1 and the two
    tableau patterns are avoided."""
    mt = tuple(tuple(r) for r in m)
    if mt:
        cols = len(mt[0])
        for j in range(cols):
            if not any(row[j] for row in mt):
                return False
    return _pattern_scan(mt, _FORBIDDEN["perm_matrix"])


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(bits: int) -> Iterator[int]:
    """The positions of the set bits, lowest first.  The skip past the
    trailing zeros keeps a lone high bit, as the column-covering class
    leaves at n = 1, from costing a scan of 2**k digits."""
    skip = (bits & -bits).bit_length() - 1 if bits else 0
    return compress(count(skip), bin(bits >> skip)[:1:-1].encode().translate(_BINARY_DIGITS))


def _supersets(mask: int, k: int) -> int:
    """Bitset of the k-bit codes that contain every bit of mask, built bit
    by bit: bit b doubles the codes seen so far, and a bit of mask keeps
    only the upper copy."""
    bits = 1
    for b in range(k):
        bits = bits << (1 << b) if mask >> b & 1 else bits | bits << (1 << b)
    return bits


def gen_matrix_class(cls: str, n: int, k: int) -> Iterator[Matrix]:
    """All n x k matrices of the class, in lexicographic order of their
    cells read row by row; n*k is at most objects.MAX_SCAN_CELLS.

    Each class forbids 2x2 patterns on pairs of rows, so a matrix belongs
    to it iff every (upper, lower) pair of its rows is compatible.  Rows
    are placed top to bottom in code order, each from the bitset of the
    codes compatible with every row above it (a row's code is its index
    in product order); the column-covering class keeps for the last row
    only the codes that cover the columns still empty.
    """
    if cls not in _FORBIDDEN:
        raise ValueError(f"unknown matrix class {cls!r}")
    _check_matrix_size(n, k)
    if n == 0:
        # The empty filling still has k columns; only the column-covering
        # class rejects it when k > 0.
        if cls != "perm_matrix" or k == 0:
            yield ()
        return
    covering = cls == "perm_matrix"
    full = (1 << k) - 1
    below = _below_table(k, cls) if n > 1 else ()
    # A row is the tuple of its high half of bits joined to that of its low
    # half: two tables of 2**(k//2) entries rather than one of 2**k.
    half = k // 2
    heads = list(product((0, 1), repeat=k - half))
    tails = list(product((0, 1), repeat=half))
    low = (1 << half) - 1

    # Depth first over (rows placed, codes allowed next, covered columns),
    # with the children pushed in reverse so they pop in code order; one
    # frame yields every matrix, however many rows lie above.
    stack = [((), (1 << (1 << k)) - 1, 0)]
    while stack:
        prefix, scope, covered = stack.pop()
        if len(prefix) == n - 1:
            if covering:
                scope &= _supersets(full ^ covered, k)
            for code in _set_bits(scope):
                yield prefix + (heads[code >> half] + tails[code & low],)
        else:
            stack.extend((prefix + (heads[code >> half] + tails[code & low],),
                          scope & below[code], covered | code)
                         for code in reversed(list(_set_bits(scope))))


# ---------------------------------------------------------------------------
# banded permutations
# ---------------------------------------------------------------------------

def inversions(perm: Sequence[int]) -> int:
    count = 0
    for i in range(len(perm)):
        pi = perm[i]
        for j in range(i + 1, len(perm)):
            if pi > perm[j]:
                count += 1
    return count


def gen_vesztergombi(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Permutations pi of [n+k] with -k <= pi(i) - i <= n, generated by
    backtracking inside the band (1-based one-line notation)."""
    _check_band_size(n, k)
    m = n + k
    chosen: list[int] = []
    used = [False] * (m + 1)

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i > m:
            yield tuple(chosen)
            return
        lo = max(1, i - k)
        hi = min(m, i + n)
        for v in range(lo, hi + 1):
            if not used[v]:
                used[v] = True
                chosen.append(v)
                yield from rec(i + 1)
                chosen.pop()
                used[v] = False

    yield from rec(1)


# ---------------------------------------------------------------------------
# rook placements and the cell-inversion statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RookConfig:
    """Non-attacking rooks on the cells of a board (0-based positions)."""

    board: Board
    rooks: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen_rows: set[int] = set()
        seen_cols: set[int] = set()
        for i, j in self.rooks:
            if not (0 <= i < self.board.rows and 0 <= j < self.board.cols):
                raise ValueError(f"rook ({i}, {j}) outside the board rectangle")
            if not self.board.cells[i][j]:
                raise ValueError(f"rook ({i}, {j}) is not on a board cell")
            if i in seen_rows or j in seen_cols:
                raise ValueError("two rooks share a row or column")
            seen_rows.add(i)
            seen_cols.add(j)


def placement_from_permutation(perm: Sequence[int], board: Board) -> RookConfig:
    """Rooks at (i, perm[i]) from 1-based one-line notation."""
    return RookConfig(board, frozenset((i, v - 1) for i, v in enumerate(perm)))


def gr_inv(config: RookConfig) -> int:
    """Uncancelled cells of the bounding rectangle: no rook weakly right in
    the row, none strictly below in the column."""
    rows, cols = config.board.rows, config.board.cols
    row_rook = [-1] * rows
    col_rook = [-1] * cols
    for i, j in config.rooks:
        row_rook[i] = j
        col_rook[j] = i
    count = 0
    for i, rj in enumerate(row_rook):
        # Cells at or left of the row's rook are cancelled by it.
        for j in range(rj + 1, cols):
            if col_rook[j] <= i:
                count += 1
    return count


def rook_placements(board: Board, k: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All placements of exactly k non-attacking rooks on the board cells."""
    row_cells = [tuple(j for j, v in enumerate(r) if v) for r in board.cells]
    n_rows = board.rows
    placed: list[tuple[int, int]] = []
    used_cols: set[int] = set()

    def rec(row: int) -> Iterator[frozenset[tuple[int, int]]]:
        if len(placed) == k:
            yield frozenset(placed)
            return
        if row >= n_rows or n_rows - row < k - len(placed):
            return
        yield from rec(row + 1)  # leave this row empty
        for j in row_cells[row]:
            if j not in used_cols:
                used_cols.add(j)
                placed.append((row, j))
                yield from rec(row + 1)
                placed.pop()
                used_cols.remove(j)

    yield from rec(0)
