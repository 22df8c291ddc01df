"""Brute-force oracles: weighted sums over combinatorial objects.

Everything here counts combinatorial objects directly and never calls a
closed formula, so these functions serve as independent oracles for the
families module.  Statistics use 1-based row/column indices (the
zero-line weight of a matrix sums 1-based positions of its all-zero rows
and columns).  Every oracle is a transfer count (Stanley, EC1 4.7): it
builds its statistic during the search, adding each step's share as an
element, row or value is placed, and merges the partial objects with the
same state into one packed histogram (QPoly.packed, read back by
QPoly.from_packed).  So no object is materialised.  fubini_oracle and
ordered_q_oracle insert the elements in increasing order, and a state is
the block count.  vesztergombi_oracle places the values position by
position, and a state is the set of values used.  class_poly places the
rows top to bottom, and a state is the allowed-row bitset and, where the
class or statistic reads it, the covered columns; it runs its rows along
the longer side, reading a wide matrix transposed, as every class and
statistic allows, so its rows have at most four cells.  Matrix classes
go up to n*k = MAX_SCAN_CELLS cells; a table of permmatrix_q reaches
that bound through its corner cell, which families.table computes first.

The listing specifications that state the same sums object by object
(the generators, the is_* recognizers of the matrix classes, and the
per-object statistics inv_star, nu_weight, ones_minus_cols and
inversions) live with the tests, in tests/reference_objects.py.  So this
module holds the transfer counts, their row tables and their guards.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from math import factorial
from typing import Iterator

from .errors import SizeLimitError
from .exactnum import QPoly

__all__ = [
    "fubini_oracle",
    "ordered_q_oracle",
    "class_poly",
    "vesztergombi_oracle",
]

# Largest n*k that the matrix classes search, set by hand rather than
# from measured cost.  A class has up to 2**(n*k) members (at n = 1 the
# lonesum and gamma-free classes take every row), but class_poly merges
# prefixes along the longer side, so its cost follows min(n, k), not
# n*k.  With the class's family statistic, best of 3 per class on a
# 2-vCPU VM under Python 3.11.7 (BENCH_class_shorter_side.json,
# cost_table): every shape within the bound under 3 ms, first calls
# included, the costliest being lonesum (4, 6) and (6, 4); (2, 12),
# (1, 24) and (24, 1) under 0.3 ms.  Past the bound, lonesum nu_sum, the
# costliest class, takes 0.14 ms at (2, 13), 4.7 ms at (100, 1), 6.2 ms
# at (5, 5), 121 ms at (6, 6) and 1.7 s at (7, 7).
MAX_SCAN_CELLS = 24


# ---------------------------------------------------------------------------
# partitions and the inversion statistic
# ---------------------------------------------------------------------------

def _check_partition_size(n: int) -> None:
    # fubini_oracle, n = 6..9: 0.03-0.04, 0.04-0.06, 0.06-0.08, 0.07-0.09 ms,
    # best of 5 x 20, 2-vCPU VM (BENCH_insertion_transfer.json).
    if n > 9:
        raise SizeLimitError(f"ordered partitions of {n} elements (Fubini growth)")
    if n < 0:
        raise ValueError(f"ordered partitions need n >= 0, got {n}")


def _insertion_hist(steps: int, keep_first: bool = False,
                    end_in_last: bool = False) -> dict[int, QPoly]:
    """For each block count c, the polynomial of inv_star over the ordered
    partitions with c blocks grown by inserting `steps` elements, each
    larger than every element before it, as a transfer count over c
    (Stanley, EC1 4.7).

    The new element exceeds every block minimum and no element exceeds it,
    so it adds one inversion per block after its position, whether it
    joins a block or opens one.  keep_first starts from one block holding
    a smaller element (the 0-block) and keeps it first: no block opens in
    front of it.  end_in_last sends the final element into the last block,
    joining it or opening a new last block, with no inversion added.

    The choices at each insertion, and the inversions they add, depend on
    c alone, so one dict maps c to the packed histogram (QPoly.packed) of
    the partitions grown so far.  Joining one of the c blocks shifts a
    histogram by 0..c-1, a product with the packed [c]; opening a block at
    one of the c+1-keep_first slots shifts it by 0..c-keep_first and moves
    it to c+1.  An insertion has at most 2*steps+1 choices, so no count
    exceeds (2*steps+1)**steps, which sets the packed width.
    """
    width = ((2 * steps + 1) ** steps).bit_length() // 8 + 1
    base = 1 << 8 * width
    # spread[m] is the packed [m] = 1 + q + ... + q**(m-1).
    spread = [(base ** m - 1) // (base - 1) for m in range(steps + 2)]
    states = {int(keep_first): 1}
    for step in range(steps):
        if end_in_last and step == steps - 1:
            # Into the last block: one way to join, one to open, no shift.
            spread = [1] * (steps + 2)
        after: dict[int, int] = {}
        for c, hist in states.items():
            if c:
                after[c] = after.get(c, 0) + hist * spread[c]
            after[c + 1] = after.get(c + 1, 0) + hist * spread[c + 1 - keep_first]
        states = after
    return {c: QPoly.from_packed(hist, width) for c, hist in states.items()}


def fubini_oracle(n: int) -> QPoly:
    """Sum of q**inv_star over all ordered set partitions of {1,...,n},
    scored while the partitions are built."""
    _check_partition_size(n)
    return sum(_insertion_hist(n).values(), QPoly.zero())


# ---------------------------------------------------------------------------
# alternating block pairs
# ---------------------------------------------------------------------------

def _check_pair_size(n: int, k: int) -> None:
    # ordered_q_oracle, (4, 4)..(6, 6): 0.06-0.08, 0.10-0.12, 0.15-0.29 ms,
    # best of 5 x 20, 2-vCPU VM (BENCH_insertion_transfer.json).
    if n > 6 or k > 6:
        raise SizeLimitError(f"alternating pairs at ({n}, {k})")
    if n < 0 or k < 0:
        raise ValueError(f"alternating pairs need n, k >= 0, got ({n}, {k})")


def ordered_q_oracle(n: int, k: int) -> QPoly:
    """Sum of q**(inv_star(blue) + inv_star(red)) over alternating pairs.

    Each side is grown by insertion with its anchor kept throughout: the
    blue side starts from the 0-block and never opens a block in front of
    it, and the red side's last element k+1 goes into the last block.  The
    weight is additive across the two partitions and the block counts must
    agree, so the pairs with c blocks give the product of the two sides'
    polynomials at c.
    """
    _check_pair_size(n, k)
    blues = _insertion_hist(n, keep_first=True)
    reds = _insertion_hist(k + 1, end_in_last=True)
    return sum((blue * reds[c] for c, blue in blues.items() if c in reds), QPoly.zero())


# ---------------------------------------------------------------------------
# 0/1 matrix classes
# ---------------------------------------------------------------------------

# Each class's forbidden 2x2 patterns (a, b, c, d), read row-major.
_FORBIDDEN = {
    "lonesum": ((0, 1, 1, 0), (1, 0, 0, 1)),
    "gamma_free": ((1, 1, 1, 0), (1, 1, 1, 1)),
    "perm_matrix": ((0, 1, 1, 0), (1, 1, 1, 0)),
}


def _check_matrix_size(n: int, k: int) -> None:
    # A negative side is rejected before the product is read: the product
    # of two negative sides is no matrix size.
    if n < 0 or k < 0:
        raise ValueError(f"matrices need n, k >= 0, got ({n}, {k})")
    if n * k > MAX_SCAN_CELLS:
        raise SizeLimitError(f"matrix search over {n * k} cells at ({n}, {k})")


# A set of k-column rows is a bitset over the 2**k row codes: bit c is set
# iff the row coded c is in the set.  A row's code is its index in product
# order, so column j is bit k-1-j of the code.

_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(bits: int) -> Iterator[int]:
    """The positions of the set bits, lowest first: the binary digits read
    from the low end select from the counting numbers, in C and in one
    pass."""
    return compress(count(), bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS))


@lru_cache(maxsize=None)
def _column_sets(k: int) -> tuple[tuple[int, int], ...]:
    """For each bit b, the bitsets of the k-bit codes reading 0 and 1 there."""
    codes = range(1 << k)
    return tuple((sum(1 << c for c in codes if not c >> b & 1), sum(1 << c for c in codes if c >> b & 1))
                 for b in range(k))


def _rows_below(upper: int, k: int, patterns: tuple[tuple[int, int, int, int], ...]) -> int:
    """Bitset of the codes of the k-column rows that may sit below the row
    coded upper.

    Pattern (w, x, y, z) occurs iff some column where (upper, lower) reads
    (w, y) lies left of some column where it reads (x, z).  One pass over
    the columns, left to right, keeps the union of the lower rows reading y
    in a column left of the current one where upper reads w; where upper
    reads x, those of them reading z here are forbidden.  That is O(k)
    operations on 2**k-bit integers per pattern, with the per-bit sets made
    once per k.
    """
    columns = _column_sets(k)
    forbidden = 0
    for w, x, y, z in patterns:
        seen = 0
        for b in range(k - 1, -1, -1):
            bit = upper >> b & 1
            if bit == x:
                forbidden |= seen & columns[b][z]
            if bit == w:
                seen |= columns[b][y]
    return ((1 << (1 << k)) - 1) ^ forbidden


# Cached: the table depends on k and the class alone.  class_poly asks
# only for k <= 4, its shorter side, so at most 3 * 4 tables of at most
# 16 bitsets each are held.
@lru_cache(maxsize=None)
def _below_table(k: int, cls: str) -> tuple[int, ...]:
    """_rows_below for every code; the first row of a search takes every
    code."""
    patterns = _FORBIDDEN[cls]
    return tuple(_rows_below(code, k, patterns) for code in range(1 << k))


def class_poly(cls: str, n: int, k: int, statistic: str = "none") -> QPoly:
    """Weight generating polynomial sum of q**statistic over the class, as a
    row transfer count (Stanley, EC1 4.7) that builds no matrix.

    Orientation.  The rows run along the longer side: when k > n the count
    fills the k rows of the transpose, n cells each, so a row has c =
    min(n, k) cells: within MAX_SCAN_CELLS, at most 4 cells and 16 codes.  This is a bijection of the
    objects counted.  Every forbidden set maps to itself under the
    transpose (a, b, c, d) -> (a, c, b, d); nu_sum trades zero rows for
    zero columns, each keeping its 1-based index; ones_minus_cols keeps
    its count of 1s, and its -k is the caller's k.  The column-covering
    condition of perm_matrix reads "no zero row" on the transpose, so
    there code 0 is dropped from every row's scope.

    State.  Rows are filled top to bottom.  A state is one int, scope <<
    c | covered: scope is the bitset of the codes allowed in the next row
    (the codes compatible with every row placed), covered the mask of the
    columns holding a 1.  covered is kept only where something reads it,
    nu_sum and the untransposed column-covering class, and is 0 otherwise.
    Each state carries the histogram of the statistic's share of the rows
    placed, packed (QPoly.packed).  No count exceeds the 2**(n*k) matrices
    of the shape, so a digit of (n*k)//8 + 1 bytes holds it.

    Step and merge.  Placing row i with code moves a state to
    (scope & below[code], covered | code) and shifts its histogram by the
    row's share: i+1 for a zero row under nu_sum, the row's number of 1s
    under ones_minus_cols, and nothing otherwise.  States with the same
    key have the same completions, so equal children merge by adding their
    histograms; after the last row they are keyed by covered alone.  One
    pass then keeps, for column covering, the states with every column
    covered, and shifts each, under nu_sum, by its zero-column weight.
    """
    if statistic not in ("none", "nu_sum", "ones_minus_cols"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if cls not in _FORBIDDEN:
        raise ValueError(f"unknown matrix class {cls!r}")
    _check_matrix_size(n, k)
    covering = cls == "perm_matrix"
    if n == 0 or k == 0:
        # The one n x k matrix is all zeros, so every row and column is a
        # zero line and no cell holds a 1; with no rows, the
        # column-covering class rejects it when k > 0.
        if covering and k:
            return QPoly.zero()
        if statistic == "nu_sum":
            return QPoly.q(n * (n + 1) // 2 + k * (k + 1) // 2)
        return QPoly.q(-k if statistic == "ones_minus_cols" else 0)
    nu = statistic == "nu_sum"
    transposed = k > n
    rows, c = (k, n) if transposed else (n, k)
    covering_columns = covering and not transposed
    full = (1 << c) - 1
    width = n * k // 8 + 1
    shift = 8 * width
    kept = c if covering_columns or nu else 0
    mask = (1 << kept) - 1
    below = _below_table(c, cls)
    # lift[code] shifts a histogram by the share of the row coded code.
    if statistic == "ones_minus_cols":
        lift = [shift * code.bit_count() for code in range(1 << c)]
    else:
        lift = [0] * (1 << c)
    scope = (1 << (1 << c)) - 1
    if covering and transposed:
        # No row of the transpose is zero; every later scope is a subset
        # of the first.
        scope ^= 1
    states = {scope << kept: 1}
    for i in range(rows):
        if nu:
            lift[0] = shift * (i + 1)
        if i == rows - 1:
            # No row follows the last: its children are keyed by covered alone.
            below = (0,) * (1 << c)
        after: dict[int, int] = {}
        get = after.get
        for key, hist in states.items():
            scope, covered = key >> kept, key & mask
            for code in _set_bits(scope):
                child = (scope & below[code]) << kept | (covered | code) & mask
                after[child] = get(child, 0) + (hist << lift[code])
        states = after
    total = 0
    for covered, hist in states.items():
        if covering_columns and covered != full:
            continue
        if nu:
            # Zero-column weight: bit b is the 1-based column c - b.
            hist <<= shift * sum(c - b for b in range(c) if not covered >> b & 1)
        total += hist
    poly = QPoly.from_packed(total, width)
    return poly.shift(-k) if statistic == "ones_minus_cols" else poly


# ---------------------------------------------------------------------------
# banded permutations
# ---------------------------------------------------------------------------

def _check_band_size(n: int, k: int) -> None:
    if n + k > 9:
        raise SizeLimitError(f"banded permutations of [{n + k}]")
    if n < 0 or k < 0:
        raise ValueError(f"banded permutations need n, k >= 0, got ({n}, {k})")


def vesztergombi_oracle(n: int, k: int) -> QPoly:
    """Sum of q**inversions over the banded permutation class, counted
    position by position as a transfer count.

    One dict maps used, with bit v for each value v already placed, to the
    histogram of inversions over the prefixes that place exactly those
    values, packed (QPoly.packed).  Placing v makes (used >> v).bit_count()
    inversions with the larger values to its left, and shifts the
    histogram by that many.  Value i-k may sit at no position after i, so
    when it is still free at position i it goes there, which cuts every
    prefix that would strand it.  Every count is at most m!, which sets
    the packed width.
    """
    _check_band_size(n, k)
    m = n + k
    width = (factorial(m).bit_length() + 7) // 8
    shift = 8 * width
    states = {0: 1}
    for i in range(1, m + 1):
        lo, hi = max(1, i - k), min(m, i + n)
        after: dict[int, int] = {}
        for used, hist in states.items():
            if lo == i - k and not used >> lo & 1:
                free = 1 << lo
            else:
                free = ~used & ((2 << hi) - (1 << lo))
            while free:
                v = (free & -free).bit_length() - 1
                free &= free - 1
                key = used | 1 << v
                after[key] = after.get(key, 0) + (hist << shift * (used >> v).bit_count())
        states = after
    return QPoly.from_packed(sum(states.values()), width)
