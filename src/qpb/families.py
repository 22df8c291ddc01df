"""Poly-Bernoulli number families, their q-analogues, and the
Akiyama-Tanigawa triangle engines.

Two sums carry most of the families.  The paired sum
sum over m of w(m) * S(n+1,m+1) * S(k+1,m+1) gives classical_pb_negk
(m!**2, stirling2), ordered_q_pb ([m]!**2, carlitz), lonesum_q_pb (m!**2,
cigler) and, with q -> 1/q, vesztergombi_q_pb (q**m * [m]!**2, carlitz).
The Carlitz sum sum over m of (-1)**m * a[m] * [m]! * {n+s,m+s}_q
(carlitz_sum) is the closed form of the zengA (s = 1) and zengB (s = 0)
triangles' leading columns.  With a[m] = [m+1]**-k it gives at_q_pb
(s = 0) and carlitz_beta (s = 1, k = 1); those two take
_carlitz_power_sum, one packed sum over the cyclotomic common denominator,
so carlitz_sum over q_power_row stays an independent route for the
checks that compare them with the triangles.

The three q-valued paired sums are defined once, in _PAIRED_SUMS: their
weight, q-Stirling variant and finish step; a value past
PAIRED_VALUE_MAX_SIZE or a table past PAIRED_TABLE_MAX_SIZE is refused
with SizeLimitError.  Each weight is written, as the q-Stirling
recurrence is in qkernels, over a ring: times(v, e) = v * q**e and
factorial_q(m) = [m]!.  A single value takes it over QPoly.  table is the
one entry point for a table of any registered family, and a paired sum's
table, of any shape, is paired_table: every cell is computed directly as
its two values at q = 2**h and q = -2**h, from operands computed there
on integers (qkernels.q_ring_at, q_stirling_at), so no QPoly operand is
built and no memo grows, and each cell is read back once
(QPoly.from_packed_pair; the packed pair and its width rule are stated
once, in the exactnum docstring).  It takes one of two inner routes,
chosen by the family.  lonesum_q splits each cigler number by the block
of element 0, which turns the sum into multiplications by small integers
and by powers of q, that is shifts (_split_cells).  The carlitz families
take a dot product of big integers per cell (_dot_cells): their step
multiplies by [m], not by a power of q, so it has no such split.  The
other families' tables compute each cell by the family's own function.

Sign convention for k: entry points named *_negk and every q-family keyed
by a combinatorial object class take k >= 0 and mean the negative
superscript branch (the integer/polynomial regime).  classical_pb,
cenkci_q_pb, and at_q_pb take a signed k exactly as in the defining sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from math import comb, factorial, lcm, prod
from operator import add, lshift, mul, sub
from typing import Callable, Sequence

from . import objects
from .errors import NotPolynomialError, SizeLimitError
from .exactnum import QPoly, QRational
from .qkernels import (cyclotomic, q_factorial, q_int, q_ring_at, q_stirling, q_stirling_at, s2_inv_q,
                       s2_q, stirling2)

__all__ = [
    "classical_pb",
    "classical_pb_negk",
    "pb_recursion_check",
    "c_relative",
    "ordered_q_pb",
    "q_fubini",
    "lonesum_q_pb",
    "vesztergombi_q_pb",
    "permmatrix_q_pb",
    "cenkci_q_pb",
    "cenkci_recursion_check",
    "cenkci_comb_check",
    "at_q_pb",
    "carlitz_sum",
    "Triangle",
    "akiyama_tanigawa",
    "q_power_row",
    "carlitz_beta",
    "paired_table",
    "table",
    "FamilySpec",
    "FAMILIES",
]


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------

def classical_pb(n: int, k: int) -> Fraction:
    """(-1)**n * sum over m of (-1)**m * m! * stirling2(n,m) / (m+1)**k.

    Integer-valued for k <= 0, rational in general.
    """
    if n < 0:
        raise ValueError("classical_pb needs n >= 0")
    acc = Fraction(0)
    for m in range(n + 1):
        term = Fraction(factorial(m) * stirling2(n, m)) * Fraction(m + 1) ** (-k)
        acc = acc - term if m % 2 else acc + term
    return acc if n % 2 == 0 else -acc


def _paired_sum(n: int, k: int, w: Callable, s: Callable):
    """sum over m <= min(n, k) of w(m) * s(n+1,m+1) * s(k+1,m+1).

    The weight w(m), a squared factorial (times q**m for the banded
    family), scales the product of the two Stirling values once.
    """
    total = 0
    for m in range(min(n, k) + 1):
        total = total + w(m) * (s(n + 1, m + 1) * s(k + 1, m + 1))
    return total


def classical_pb_negk(n: int, k: int) -> int:
    """sum over m of m! * stirling2(n+1,m+1) * m! * stirling2(k+1,m+1);
    symmetric in n and k."""
    if n < 0 or k < 0:
        raise ValueError("classical_pb_negk needs n, k >= 0")
    return _paired_sum(n, k, lambda m: factorial(m) ** 2, stirling2)


def pb_recursion_check(n: int, k: int) -> bool:
    """Step-down recursion on the negative branch: the (k+1)-st column
    equals the k-th plus binomially shifted entries of the k-th."""
    if n < 0 or k < 0:
        raise ValueError("pb_recursion_check needs n, k >= 0")
    lhs = classical_pb_negk(n, k + 1)
    rhs = classical_pb_negk(n, k)
    for m in range(1, n + 1):
        rhs += comb(n, m) * classical_pb_negk(n - (m - 1), k)
    return lhs == rhs


def c_relative(n: int, k: int) -> int:
    """Relative family: sum over m of m! * stirling2(n+1,m+1) * m! * stirling2(k,m)."""
    if n < 0 or k < 0:
        raise ValueError("c_relative needs n, k >= 0")
    total = 0
    for m in range(min(n + 1, k) + 1):
        f = factorial(m)
        total += f * stirling2(n + 1, m + 1) * f * stirling2(k, m)
    return total


# ---------------------------------------------------------------------------
# q-analogues
# ---------------------------------------------------------------------------

def ordered_q_pb(n: int, k: int) -> QPoly:
    """Inversion-graded analogue built from carlitz q-Stirling numbers and
    q-factorials; symmetric in n and k, collapses to classical_pb_negk at q=1."""
    if n < 0 or k < 0:
        raise ValueError("ordered_q_pb needs n, k >= 0")
    return _paired_q_sum("ordered_q", n, k)


def q_fubini(n: int) -> QPoly:
    """Inversion-graded ordered Bell polynomial: sum of [k]! * {n,k}_q."""
    if n < 0:
        raise ValueError("q_fubini needs n >= 0")
    total = QPoly.zero()
    for k in range(n + 1):
        total = total + q_factorial(k) * q_stirling("carlitz", n, k)
    return total


def lonesum_q_pb(n: int, k: int) -> QPoly:
    """Zero-line-graded analogue: cigler q-Stirling numbers with plain
    integer factorials; tracks the zero row/column statistic on lonesum
    matrices."""
    if n < 0 or k < 0:
        raise ValueError("lonesum_q_pb needs n, k >= 0")
    return _paired_q_sum("lonesum_q", n, k)


def vesztergombi_q_pb(n: int, k: int) -> QPoly:
    """Inversion polynomial of the banded permutation class,
    q**(n*k) * sum over m of S(n+1,m+1)(1/q) * S(k+1,m+1)(1/q) * ([m]!)**2 * q**m
    with the shifted q-Stirling numbers S.

    Since S(n,m) = q**C(m,2) * {n,m}_q and [m]!(q) = q**C(m,2) * [m]!(1/q),
    each term is the carlitz paired-sum term q**m * ([m]!)**2 *
    {n+1,m+1}_q * {k+1,m+1}_q with q -> 1/q, so the sum is the paired sum
    with weight q**m * ([m]!)**2, read at 1/q and shifted by q**(n*k).
    """
    if n < 0 or k < 0:
        raise ValueError("vesztergombi_q_pb needs n, k >= 0")
    return _paired_q_sum("vesztergombi_q", n, k)


# The paired weights w(m) over a ring: times(v, e) = v * q**e and
# factorial_q(m) = [m]!.  Each is m!**2 at q = 1.
def _ordered_weight(m: int, times: Callable, factorial_q: Callable):
    return factorial_q(m) * factorial_q(m)


def _lonesum_weight(m: int, times: Callable, factorial_q: Callable) -> int:
    return factorial(m) ** 2


def _vesztergombi_weight(m: int, times: Callable, factorial_q: Callable):
    return times(_ordered_weight(m, times, factorial_q), m)


def _vesztergombi_finish(total: QPoly, n: int, k: int) -> QPoly:
    """The paired sum read at 1/q and shifted by q**(n*k)."""
    total = total.subs_inv_q().shift(n * k)
    if total.min_exp < 0:
        raise NotPolynomialError(f"vesztergombi_q_pb({n}, {k}) kept exponent {total.min_exp}")
    return total


# family -> (weight w(m, times, factorial_q), q-Stirling variant,
#            finish(total, n, k) or None)
_PAIRED_SUMS: dict[str, tuple[Callable, str, Callable | None]] = {
    "ordered_q": (_ordered_weight, "carlitz", None),
    "lonesum_q": (_lonesum_weight, "cigler", None),
    "vesztergombi_q": (_vesztergombi_weight, "carlitz", _vesztergombi_finish),
}


# Size bounds for the paired q-families, from one call or table per fresh
# process on a 2-vCPU VM (rows in CHANGES.md).  A value's size is
# (n+1)*(k+1), times max(n, k) for lonesum_q: a cigler S(a, j) has degree
# about a**2 / 2, so lonesum_q(400, 1) took 5.6 s and 784 MB against 0.2 s
# for ordered_q(1000, 1).  Inside its bound a value took at most 2.0 s and
# 193 MB.  A table costs far more than its corner value, so its size is
# (n+1)*(k+1)*max(n, k) at the corner; inside the bound a whole `qpb table`
# process took at most 0.64 s and 36 MB in each of csv, json and latex
# (24x24 and 63x3 of the three families, median of 3, paired_table_cost in
# BENCH_table_render.json).
PAIRED_VALUE_MAX_SIZE = {"carlitz": 2 ** 11, "cigler": 2 ** 17}
PAIRED_TABLE_MAX_SIZE = 2 ** 14


def _check_paired_size(family: str, n: int, k: int, table: bool = False) -> None:
    variant = _PAIRED_SUMS[family][1]
    size = (n + 1) * (k + 1) * (max(n, k) if table or variant == "cigler" else 1)
    bound = PAIRED_TABLE_MAX_SIZE if table else PAIRED_VALUE_MAX_SIZE[variant]
    if size > bound:
        what = "table up to" if table else "value at"
        raise SizeLimitError(f"{family} {what} ({n}, {k}): size {size} exceeds bound {bound}")


def _paired_q_sum(family: str, n: int, k: int) -> QPoly:
    """One value of a paired-sum q-analogue, as _PAIRED_SUMS defines it;
    raises SizeLimitError past PAIRED_VALUE_MAX_SIZE."""
    _check_paired_size(family, n, k)
    weight, variant, finish = _PAIRED_SUMS[family]
    w = partial(weight, times=QPoly.shift, factorial_q=q_factorial)
    total = _paired_sum(n, k, w, partial(q_stirling, variant))
    return total if finish is None else finish(total, n, k)


def permmatrix_q_pb(n: int, k: int) -> QPoly:
    """Weight polynomial of rectangular permutation tableaux, graded by
    (number of 1s) - (number of columns).  No closed form is known; this is
    the enumeration result."""
    if n < 0 or k < 0:
        raise ValueError("permmatrix_q_pb needs n, k >= 0")
    return objects.class_poly("perm_matrix", n, k, "ones_minus_cols")


def cenkci_q_pb(n: int, k: int) -> QPoly | QRational:
    """Explicit-formula family with a q parameter:
    sum over m of stirling2(n,m) * (-q)**(n-m) * m! / (m+1)**k.

    Returns a QPoly for k <= 0 and a QRational otherwise.
    """
    if n < 0:
        raise ValueError("cenkci_q_pb needs n >= 0")
    # Integer numerator over the common denominator lcm((m+1)**k);
    # coeffs[n-m] is the coefficient of q**(n-m).
    den = lcm(*((m + 1) ** k for m in range(n + 1))) if k > 0 else 1
    coeffs = [0] * (n + 1)
    for m in range(n + 1):
        scale = den // (m + 1) ** k if k > 0 else (m + 1) ** -k  # den / (m+1)**k
        c = stirling2(n, m) * factorial(m) * scale
        coeffs[n - m] = -c if (n - m) % 2 else c
    value = QRational(QPoly(coeffs), QPoly.const(den))
    return value.as_qpoly() if k <= 0 else value


def cenkci_recursion_check(n: int, k: int) -> bool:
    """Verify the step-down identity, signed-k form:
    B(n, k-1) = (n+1)*B(n, k) + sum over i of q**i * C(n,i+1) * B(n-i, k).

    With signed k the step runs from column k down to column k-1;
    magnitude-indexed statements of the same identity count upward.
    """
    if n < 1:
        raise ValueError("cenkci_recursion_check needs n >= 1")
    lhs = cenkci_q_pb(n, k - 1)
    rhs = cenkci_q_pb(n, k) * (n + 1)
    for i in range(1, n):
        rhs = rhs + cenkci_q_pb(n - i, k) * QPoly.q(i) * comb(n, i + 1)
    return lhs == rhs


def cenkci_comb_check(n: int, k: int) -> bool:
    """Compare cenkci_q_pb(n, -k) with
    q * sum over j of (j!)**2 * s2_q(n,j) * s2_inv_q(-k, j).

    k >= 0 is the magnitude of the negative superscript.  The second
    factor uses the verbatim extension of s2_inv_q to nonpositive first
    arguments, so disagreement is meaningful data rather than a bug;
    callers should treat the result as a report.
    """
    if n < 0 or k < 0:
        raise ValueError("cenkci_comb_check needs n, k >= 0")
    lhs = cenkci_q_pb(n, -k)
    rhs = QRational.from_int(0)
    for j in range(min(n, k) + 1):
        rhs = rhs + QRational(s2_q(n, j)) * s2_inv_q(-k, j) * (factorial(j) ** 2)
    rhs = rhs * QRational(QPoly.q(1))
    return lhs == rhs


def carlitz_sum(a: Sequence, s: int) -> QRational:
    """sum over m <= n of (-1)**m * a[m] * [m]! * {n+s, m+s}_q  (carlitz),
    with n = len(a) - 1 and shift s in {0, 1}, as one QRational.

    The row a holds Fractions (the closed-form checks' initial rows) or
    QRationals (q_power_row).
    """
    n = len(a) - 1
    acc = QRational.from_int(0)
    for m in range(n + 1):
        st = q_stirling("carlitz", n + s, m + s)
        if st.is_zero:
            continue
        term = QRational(q_factorial(m) * st) * a[m]
        acc = acc - term if m % 2 else acc + term
    return acc


def _carlitz_power_sum(n: int, k: int, s: int) -> QPoly | QRational:
    """sum over m <= n of (-1)**m * [m]! * {n+s, m+s}_q * [m+1]**-k
    (carlitz), for any integer k and s in {0, 1}, as one packed sum.

    For k > 0 the common denominator is known: [j] is the product of the
    cyclotomic Phi_d over the divisors d > 1 of j, so L = P**k, with P the
    product of Phi_d for 2 <= d <= n+1, is a multiple of every [m+1]**k.
    The numerator N = sum over m of (-1)**m * [m]! * {n+s, m+s} * R_m,
    with R_m = L / [m+1]**k = (P / [m+1])**k, is summed at
    q = 2**(8*width): each term is one big-integer product of the packed
    [m]!, {n+s, m+s} and R_m, and N's coefficients are read back once as
    signed digits.  For k <= 0, R_m is [m+1]**-k and N is the value.

    width bounds the final sum only, since digits of a partial sum may
    overflow freely: the coefficients of a product A * R are at most
    ||A||_1 * ||R||_inf, and [m]! * {n+s, m+s} has nonnegative
    coefficients summing to m! * S(n+s, m+s), so every coefficient of N is
    at most sum over m of m! * S(n+s, m+s) * ||R_m||_inf.  For k <= 0,
    ||R_m||_inf <= ||R_m||_1 = (m+1)**-k.  width holds that bound and a
    sign bit.

    N / L reaches normal form by the QRational constructor with L given as
    the map {d: k}, which trial-divides each Phi_d into N: the sum splits
    no denominator and makes no QRational operator call.
    """
    weights = [factorial(m) * stirling2(n + s, m + s) for m in range(n + 1)]
    live = [m for m, w in enumerate(weights) if w]
    if k > 0:
        phis = [cyclotomic(d) for d in range(2, n + 2)]
        # P and every R_m are read at a width that holds the coefficients
        # of L = P**k: at most the product of ||Phi_d||_1**k.
        wide = (prod(sum(map(abs, phi.coeffs)) for phi in phis) ** k).bit_length() // 8 + 1
        base = QPoly.from_signed_packed(prod(phi.packed(wide) for phi in phis), wide)
        rest = {}
        for m in live:
            r = base.exact_div(q_int(m + 1))
            rest[m] = r if k == 1 else QPoly.from_signed_packed(r.packed(wide) ** k, wide)
        bound = sum(weights[m] * max(map(abs, rest[m].coeffs)) for m in live)
    else:
        bound = sum(weights[m] * (m + 1) ** -k for m in live)
    width = bound.bit_length() // 8 + 1
    total = 0
    for m in live:
        term = q_factorial(m).packed(width) * q_stirling("carlitz", n + s, m + s).packed(width)
        term *= rest[m].packed(width) if k > 0 else q_int(m + 1).packed(width) ** -k
        total = total - term if m % 2 else total + term
    num = QPoly.from_signed_packed(total, width)
    return QRational(num, {d: k for d in range(2, n + 2)}) if k > 0 else num


# Bound on n*k for at_q_pb with k > 0, whose cost grows steeply with n.  At
# n*k = 40 the costliest shape is k = 1: a first call in a fresh process took
# 0.26 s at (40, 1), 23 ms at (20, 2), 2.7 ms at (10, 4), 1.8 ms at (8, 5),
# 1.2 ms at (5, 8), 0.97 ms at (4, 10), 0.42 ms at (2, 20) and 0.25 ms at
# (1, 40) (2-vCPU VM, best of 3, BENCH_at_q_cyclotomic.json).
# For k <= 0 the value is a polynomial of degree n*(n-1)/2 + n*|k|, and its
# cost follows that degree, whatever the shape.  At degree 2016-2049 a first
# call in a fresh process took 0.90 s at (64, 0), 1.03 s at (50, -16),
# 0.76 s at (40, -31), 0.65 s at (30, -53), 0.53 s at (20, -92), 0.31 s at
# (10, -200), 0.39 s at (5, -407), 0.43 s at (2, -1023) and 0.29 s at
# (1, -2048); past it, 0.89 s at (40, -40) (2380), 2.4 s at (45, -45)
# (3015) and 3.6 s at (20, -200) (4190) (2-vCPU VM, single runs,
# BENCH_paired_pm.json).  So the degree is bounded by the carlitz value
# bound, PAIRED_VALUE_MAX_SIZE["carlitz"] = 2**11, under which a paired
# carlitz value took at most 1.5 s.
AT_Q_MAX_NK = 40

# Bound on an at_q table (k = 0, -1, ..., -max_k), which costs far more than
# its corner: inside the degree bound, (1, -2048) ran past 60 s.  Its size
# is the work of the packed sums: (n+1)*(k+1) cells, each of at most n+1
# terms of at most the corner's degree n*(n-1)/2 + n*k in coefficients, each
# of about (n+k)*log2(n+1) bits.  At the largest k it admits for each n, a
# whole `qpb table` process took 0.5-1.4 s, at most 1.42 s at (51, 0), and
# at most 37 MB, at (1, -511) (csv and json, median of 3); past it, 1.9 s
# at (1, -600), 2.6 s at (55, 0) and 2.5 s at (8, -100) (2-vCPU VM,
# at_q_table_cost in BENCH_table_render.json).
AT_Q_TABLE_MAX_SIZE = 2 ** 30


def _check_at_q_size(n: int, k: int) -> None:
    if k > 0 and n * k > AT_Q_MAX_NK:
        raise SizeLimitError(f"at_q_pb({n}, {k}): n*k = {n * k} exceeds bound {AT_Q_MAX_NK} for k > 0")
    bound, degree = PAIRED_VALUE_MAX_SIZE["carlitz"], n * (n - 1) // 2 - n * k
    if k <= 0 and degree > bound:
        raise SizeLimitError(f"at_q_pb({n}, {k}): degree {degree} exceeds bound {bound} for k <= 0")


def _check_at_q_table_size(max_n: int, max_k: int) -> None:
    """Refuse an at_q table up to (max_n, -max_k) whose corner is past its
    value bound, and then one past AT_Q_TABLE_MAX_SIZE."""
    _check_at_q_size(max_n, -max_k)
    degree = max_n * (max_n - 1) // 2 + max_n * max_k
    size = (max_n + 1) ** 2 * (max_k + 1) * degree * (max_n + max_k) * (max_n + 1).bit_length()
    if size > AT_Q_TABLE_MAX_SIZE:
        raise SizeLimitError(
            f"at_q table up to ({max_n}, {-max_k}): size {size} exceeds bound {AT_Q_TABLE_MAX_SIZE}")


def at_q_pb(n: int, k: int) -> QPoly | QRational:
    """Formula-level q-analogue:
    (-1)**n * sum over m of (-1)**m * [m]! / [m+1]**k * {n,m}_q  (carlitz).

    Returns a QPoly for k <= 0 and a QRational otherwise.  Raises
    SizeLimitError, before any work, past n*k = AT_Q_MAX_NK for k > 0 and
    past the degree n*(n-1)/2 + n*|k| = PAIRED_VALUE_MAX_SIZE["carlitz"]
    for k <= 0.  The sum is
    _carlitz_power_sum(n, k, 0), one packed sum over the cyclotomic common
    denominator; carlitz_sum over q_power_row(-k, n+1) is the independent
    route that the triangle checks compare with.
    """
    if n < 0:
        raise ValueError("at_q_pb needs n >= 0")
    _check_at_q_size(n, k)
    acc = _carlitz_power_sum(n, k, 0)
    return -acc if n % 2 else acc


# ---------------------------------------------------------------------------
# Akiyama-Tanigawa triangles
# ---------------------------------------------------------------------------

# rule -> weights (x(m), y(m)) of the update a'[m] = x(m) * a[m] - y(m) * a[m+1]
_TRIANGLE_WEIGHTS: dict[str, tuple[Callable, Callable]] = {
    "classical": (lambda m: m + 1, lambda m: m + 1),
    "zengA": (lambda m: q_int(m + 1), lambda m: q_int(m + 1)),
    "zengB": (q_int, lambda m: q_int(m + 1)),
}


@dataclass(frozen=True)
class Triangle:
    """Rectangular row-rewriting table; each derived row is one shorter."""

    rows: tuple[tuple[QRational, ...], ...]

    def leading_column(self) -> list[QRational]:
        return [row[0] for row in self.rows]


def _as_qrational(v) -> QRational:
    out = QRational._coerce(v)
    if out is None:
        raise TypeError(f"cannot use {type(v).__name__} as a triangle entry")
    return out


def akiyama_tanigawa(rule: str, initial: Sequence, n_rows: int) -> Triangle:
    """Run a row-rewriting rule from an initial row.

    rule 'classical':  a[n+1][m] = (m+1) * a[n][m] - (m+1) * a[n][m+1]
    rule 'zengA':      a[n+1][m] = [m+1] * a[n][m] - [m+1] * a[n][m+1]
    rule 'zengB':      a[n+1][m] = [m] * a[n][m] - [m+1] * a[n][m+1]

    n_rows counts all rows including the initial one, so the initial row
    needs at least n_rows entries to keep the last row nonempty; its
    entries are coerced to QRational.
    """
    if rule not in _TRIANGLE_WEIGHTS:
        raise ValueError(f"unknown rule {rule!r}; expected one of {tuple(_TRIANGLE_WEIGHTS)}")
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if len(initial) < n_rows:
        raise ValueError(f"row too short: n_rows = {n_rows} needs as many entries, got {len(initial)}")
    x, y = _TRIANGLE_WEIGHTS[rule]
    rows = [tuple(_as_qrational(v) for v in initial)]
    for _ in range(1, n_rows):
        prev = rows[-1]
        rows.append(tuple(prev[m] * x(m) - prev[m + 1] * y(m) for m in range(len(prev) - 1)))
    return Triangle(tuple(rows))


def q_power_row(k: int, length: int) -> list[QRational]:
    """The row m -> [m+1]**k for m < length (reciprocals for negative k)."""
    return [QRational(q_int(m + 1)) ** k for m in range(length)]


def carlitz_beta(n: int) -> QRational:
    """q-deformed Bernoulli value by the closed form
    sum over k of (-1)**k * {n+1,k+1}_q * [k]! / [k+1];
    it is the leading column of the zengA triangle with initial row
    1/[m+1] (the carlitz-beta-vs-triangle check pins that).  The sum is
    _carlitz_power_sum(n, 1, 1), one packed sum over the cyclotomic common
    denominator, with no gcd."""
    if n < 0:
        raise ValueError("carlitz_beta needs n >= 0")
    return _carlitz_power_sum(n, 1, 1)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _dot_cells(weight: Callable, variant: str, max_n: int, max_k: int, x: int) -> Callable:
    """cell(n, k) = the paired sum at (n, k) at q = x, for x = +-2**h, as
    the dot product over m <= min(n, k) of U[n][m] = w(m) * S(n+1, m+1)
    and S(k+1, m+1): the q-Stirling numbers by their recurrence on
    integers (qkernels.q_stirling_at), the weights over the integers at x
    (qkernels.q_ring_at)."""
    side = min(max_n, max_k)
    times, bracket = q_ring_at(x)
    factorials = list(accumulate(map(bracket, range(1, side + 1)), mul, initial=1))
    weights = [weight(m, times, factorials.__getitem__) for m in range(side + 1)]
    cols = q_stirling_at(variant, x, max(max_n, max_k) + 1, side + 1)
    rows = [[cols[m + 1][a - m] for m in range(min(a, side) + 1)] for a in range(max(max_n, max_k) + 1)]
    left = [list(map(mul, weights, row)) for row in rows[:max_n + 1]]
    return lambda n, k: sum(map(mul, left[n], rows[k]))


def _split_cells(surjections: list[list[int]], max_n: int, max_k: int, x: int) -> Callable:
    """cell(n, k) = lonesum_q(n, k) at q = x, for x = +-2**h, by the
    zero-block split of the cigler numbers, with no product of two big
    integers.

    Element 0's block takes i of the elements 1..k, with weight
    q**C(i+1, 2) * [k choose i] over the i-sets, and the other elements
    form m classical blocks: T(k+1, m+1) = sum over i of q**C(i+1, 2) *
    [k choose i] * S(k-i, m).  By the q-binomial theorem, lonesum_q(a, b)
    is then [y**b] of the product over j <= b of (1 + q**j * y) times the
    sum over c of z(a, c) * y**c, with z(a, c) = the sum over m of
    surjections[c][m] * T(a+1, m+1) and surjections[c][m] = m!**2 * S(c, m)
    (the integer triangle at q = 1).  The sum is symmetric in a and b, so
    a runs along the longer side and b along the shorter.  The vectors
    z(., c) are multiplied by each factor in turn, one downward pass per
    factor; the pass for j leaves the entries below j alone, so after all
    passes entry b holds the cells (a, b).
    """
    side, longer = min(max_n, max_k), max(max_n, max_k)
    h = abs(x).bit_length() - 1
    cols = q_stirling_at("cigler", x, longer + 1, side + 1)
    # rows[m][a] = T(a+1, m+1) for a <= longer
    rows = [[0] * m + cols[m + 1] for m in range(side + 1)]
    grid = []  # grid[c][a] = z(a, c), then the cell (a, c)
    for weights in surjections:
        z = repeat(0)
        for s, row in zip(weights, rows):
            if s:  # S(c, 0) = 0 for c > 0
                z = map(add, z, map(mul, row, repeat(s)))
        grid.append(list(z))
    for j in range(1, side + 1):
        # grid[b] += grid[b-1] * x**j for b >= j, from the old grid[b-1]:
        # q_ring_at's times(v, j), as shifts
        step = sub if x < 0 and j & 1 else add
        for b in range(side, j - 1, -1):
            grid[b] = list(map(step, grid[b], map(lshift, grid[b - 1], repeat(h * j))))
    return (lambda n, k: grid[k][n]) if max_k <= max_n else (lambda n, k: grid[n][k])


def paired_table(family: str, max_n: int, max_k: int):
    """Yield (n, k, value) for k <= max_k (outer) and n <= max_n (inner),
    the values of a paired-sum family (ordered_q, lonesum_q or
    vesztergombi_q) that its per-cell function gives.

    Each cell is computed as two integers, its values at q = x for
    x = 2**h and x = -2**h, h = 4*width bits, by _split_cells for
    lonesum_q and _dot_cells for the carlitz families, and read back by
    QPoly.from_packed_pair.  width follows the packed form's rule for
    nonnegative coefficients, with one bit to spare: every coefficient of
    a cell is at most its value at q = 1, which is at most the corner's,
    classical_pb_negk(max_n, max_k), here summed on the integer triangle
    at q = 1.  The sum is symmetric in n and k, so a cell whose mirror
    (k, n) came first reuses its value.  A corner (max_n, max_k) past
    PAIRED_TABLE_MAX_SIZE raises SizeLimitError.
    """
    if max_n < 0 or max_k < 0:
        raise ValueError("paired_table needs max_n, max_k >= 0")
    _check_paired_size(family, max_n, max_k, table=True)
    weight, variant, finish = _PAIRED_SUMS[family]
    side = min(max_n, max_k)
    # S(a, m) = classical[m][a-m] for a <= max(max_n, max_k) + 1 and m <= side + 1
    classical = q_stirling_at("carlitz", 1, max(max_n, max_k) + 1, side + 1)
    squares = [factorial(m) ** 2 for m in range(side + 1)]
    corner = sum(squares[m] * classical[m + 1][max_n - m] * classical[m + 1][max_k - m] for m in range(side + 1))
    width = (corner.bit_length() + 8) // 8
    if variant == "cigler":
        surjections = [[squares[m] * classical[m][c - m] for m in range(c + 1)] for c in range(side + 1)]
        cells = partial(_split_cells, surjections, max_n, max_k)
    else:
        cells = partial(_dot_cells, weight, variant, max_n, max_k)
    plus, minus = cells(1 << 4 * width), cells(-1 << 4 * width)
    mirrored = {}  # cell (k, n) computed as (n, k) before its turn
    for k in range(max_k + 1):
        for n in range(max_n + 1):
            value = mirrored.pop((n, k), None)
            if value is None:
                value = QPoly.from_packed_pair(plus(n, k), minus(n, k), width)
                if finish is not None:
                    value = finish(value, n, k)
                if k < n <= max_k:
                    mirrored[k, n] = value
            yield n, k, value


def table(family: str, max_n: int, max_k: int):
    """Yield (n, k, value) of a registered family's table, k <= max_k
    (outer) and n <= max_n (inner), with k shown negative for a signed
    family; the one table entry point.

    A paired sum's table is paired_table, whatever its shape.  Every other
    table calls the family's fn, looked up when the table starts, once per
    cell, and the corner (max_n, max_k) first: it has the largest n*k, so
    an n*k size guard (permmatrix_q's, in objects) refuses the table
    before any other cell is computed.  A paired sum's table past
    PAIRED_TABLE_MAX_SIZE, and an at_q table past AT_Q_TABLE_MAX_SIZE, are
    refused before any cell.
    """
    if max_n < 0 or max_k < 0:
        raise ValueError("table needs max_n, max_k >= 0")
    if family in _PAIRED_SUMS:
        yield from paired_table(family, max_n, max_k)
        return
    if family == "at_q":
        _check_at_q_table_size(max_n, max_k)
    spec = FAMILIES[family]
    sign = -1 if spec.signed else 1
    corner = spec.fn(max_n, sign * max_k)
    for k in range(max_k + 1):
        for n in range(max_n + 1):
            yield n, sign * k, corner if (n, k) == (max_n, max_k) else spec.fn(n, sign * k)


# ---------------------------------------------------------------------------
# family registry (CLI and verification surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """How a family is exposed: its value function and its k-sign
    convention.

    signed is True when fn takes k exactly as in the defining sum, and
    False when k >= 0 means the negative branch.  A table of the family
    comes from table, which reads fn from here.
    """

    fn: Callable
    signed: bool = False


FAMILIES: dict[str, FamilySpec] = {
    "classical_negk": FamilySpec(classical_pb_negk),
    "classical_anyk": FamilySpec(classical_pb, signed=True),
    "c_relative": FamilySpec(c_relative),
    "ordered_q": FamilySpec(ordered_q_pb),
    "lonesum_q": FamilySpec(lonesum_q_pb),
    "vesztergombi_q": FamilySpec(vesztergombi_q_pb),
    "permmatrix_q": FamilySpec(permmatrix_q_pb),
    "cenkci_q": FamilySpec(cenkci_q_pb, signed=True),
    "at_q": FamilySpec(at_q_pb, signed=True),
}
