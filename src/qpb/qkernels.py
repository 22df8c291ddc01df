"""q-combinatorial number kernels.

q-integers, q-factorials, q-binomials, three q-deformations of the
Stirling numbers of the second kind, two auxiliary Stirling-type arrays
with a q parameter, and the q-exponential series.  The cyclotomic
polynomials are exactnum.cyclotomic, exported here too.

The cyclotomic polynomials factor the q-integers into irreducibles:
[j] = product of Phi_d over the divisors d > 1 of j, so [k]! is the
product of Phi_d**(k // d) for 2 <= d <= k, and the least common
multiple of [1]**k, ..., [n+1]**k is the product of Phi_d**k for
2 <= d <= n+1: denominators known before any sum is taken, and passed to
QRational as the map {d: e} of those exponents.

The three Stirling deformations and the classical table share one
recurrence T(n,m) = a*T(n-1,m-1) + b*T(n-1,m) with T(0,0) = 1 and
T(n,0) = 0 for n > 0; the weights (a, b) define each of them:

* carlitz   (1, [m]); tracks the partition inversion statistic Inv*.
* cigler    (1, q**(n-1) + m - 1); weights each partition of
            {0,...,n-1} by q**(sum of the elements sharing a block
            with 0): element n-1 joins the 0-block, joins one of the
            m-1 other blocks, or opens a new block.
* shifted   (q**(m-1), [m]); equals q**C(m,2) times the carlitz value.
* stirling2 (1, m), over the integers: carlitz at q = 1.

The weights are written once, over a ring of q-values given by two
operations: times(v, e) = v * q**e and bracket(m) = [m].  q_stirling runs
the recurrence over QPoly (QPoly.shift, q_int).  q_ring_at(x) gives the
two operations on the integers at q = x, for x = +-2**h, where times is a
shift; q_stirling_at runs the recurrence there, which is the ring map
p -> p(x) applied to the whole triangle, and stirling2 runs it at q = 1.

All kernels return canonical QPoly/QRational values.  q_factorial,
q_stirling and stirling2 are memoised (as is exactnum.cyclotomic);
q_int, q_binomial, q_stirling_at, s2_q, s2_inv_q and q_exponential
compute on every call, from the memoised kernels where they read one.
Each memoised triangle is stored by column, cols[j][i] = T(j+i, j), so a
request for T(n, m) grows columns 0..m, in order, to index n-m and
builds no column to the right of m: a tall request that reads only the
first columns never pays for the rest of the triangle.  The memo tables
(q-factorials, the triangles' columns) only grow and never change an
entry.  q_factorial and _grow_columns each grow their table in one loop
held under one module lock, which reads the lengths once the lock is
held, so concurrent callers never append an entry twice; a read of an
entry that already exists takes no lock.  The Phi_d memo in exactnum follows the same rule
under its own lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import partial
from math import comb, factorial

from .exactnum import QPoly, QRational, TruncatedSeries, cyclotomic

__all__ = [
    "STIRLING_VARIANTS",
    "q_int",
    "q_factorial",
    "q_binomial",
    "cyclotomic",
    "q_stirling",
    "q_ring_at",
    "q_stirling_at",
    "stirling2",
    "s2_q",
    "s2_inv_q",
    "q_exponential",
]

STIRLING_VARIANTS = ("carlitz", "cigler", "shifted")

_q_factorials: list[QPoly] = [QPoly.one()]
# Column tables: cols[j][i] = T(j+i, j); each starts as column 0 = [T(0,0)].
_stirling_tables: dict[str, list[list[QPoly]]] = {v: [[QPoly.one()]] for v in STIRLING_VARIANTS}
_classical_cols: list[list[int]] = [[1]]
_grow_lock = threading.Lock()


def q_int(n: int) -> QPoly:
    """[n] = 1 + q + ... + q**(n-1)."""
    if n < 0:
        raise ValueError(f"q_int needs n >= 0, got {n}")
    return QPoly([1] * n)


def q_factorial(n: int) -> QPoly:
    """[n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError(f"q_factorial needs n >= 0, got {n}")
    fs = _q_factorials
    if len(fs) <= n:
        with _grow_lock:
            while len(fs) <= n:
                fs.append(fs[-1] * q_int(len(fs)))
    return fs[n]


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial [n]! / ([k]! [n-k]!), computed by exact division."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got ({n}, {k})")
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


# The step T(n,m) = a*T(n-1,m-1) + b*T(n-1,m) of each variant, from
# left = T(n-1,m-1) and up = T(n-1,m), with its weights (a, b) written over
# the ring whose times(v, e) is v * q**e and bracket(m) is [m].
_STIRLING_STEPS = {
    "carlitz": lambda n, m, left, up, times, bracket: left + bracket(m) * up,
    "cigler": lambda n, m, left, up, times, bracket: left + times(up, n - 1) + (m - 1) * up,
    "shifted": lambda n, m, left, up, times, bracket: times(left, m - 1) + bracket(m) * up,
}


def q_ring_at(x: int):
    """(times, bracket) on the integers at q = x, for x = +-2**h:
    times(v, e) = v * x**e, as a shift, and bracket(m) = [m] at x.

    Evaluation at x is a ring map, so a recurrence run on these values
    gives the values at x of the polynomials it gives over QPoly.
    """
    h = abs(x).bit_length() - 1
    if abs(x) != 1 << max(h, 0):
        raise ValueError(f"q_ring_at needs x = +-2**h, got {x}")
    brackets = [0]  # [0], [1], ... at x, grown on demand

    def times(v: int, e: int) -> int:
        v <<= h * e
        return -v if x < 0 and e & 1 else v

    def bracket(m: int) -> int:
        while len(brackets) <= m:
            brackets.append(brackets[-1] + times(1, len(brackets) - 1))
        return brackets[m]

    return times, bracket


def _fill_columns(cols: list, n: int, m: int, step, zero):
    """T(n, m) = cols[m][n-m] of the triangle that step builds, growing
    columns 0..m in order, each to index n-m.

    Entry i of column j > 0 is T(j+i, j) = step(j+i, j, cols[j-1][i],
    cols[j][i-1]), so column j-1 reaches an index before column j does.
    """
    top = n - m
    cols[0].extend([zero] * (top + 1 - len(cols[0])))
    for j in range(1, m + 1):
        if len(cols) == j:
            cols.append([])
        left, col = cols[j - 1], cols[j]
        for i in range(len(col), top + 1):
            col.append(step(j + i, j, left[i], col[-1] if i else zero))
    return cols[m][top]


def _grow_columns(cols: list, n: int, m: int, step, zero):
    """_fill_columns on a memo table.  The whole growth runs under the
    lock, so step must not call a memoised kernel: the lock is not
    reentrant."""
    with _grow_lock:
        return _fill_columns(cols, n, m, step, zero)


def q_stirling(variant: str, n: int, m: int) -> QPoly:
    """q-Stirling number of the second kind in the given variant.

    Out-of-triangle indices return 0.
    """
    if variant not in STIRLING_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {STIRLING_VARIANTS}")
    if n < 0 or m < 0:
        raise ValueError("q_stirling needs n, m >= 0")
    if m > n:
        return QPoly.zero()
    cols = _stirling_tables[variant]
    if m < len(cols) and n - m < len(cols[m]):
        return cols[m][n - m]
    step = partial(_STIRLING_STEPS[variant], times=QPoly.shift, bracket=q_int)
    return _grow_columns(cols, n, m, step, QPoly.zero())


def q_stirling_at(variant: str, x: int, n: int, m: int) -> list[list[int]]:
    """The variant's triangle at q = x, for x = +-2**h, as columns
    cols[j][i] = T(j+i, j) at x, for j <= min(n, m) and j + i <= n.

    Built afresh on integers by q_stirling's recurrence over q_ring_at(x):
    no memo is read or grown, and no QPoly is built.
    """
    if variant not in STIRLING_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {STIRLING_VARIANTS}")
    if n < 0 or m < 0:
        raise ValueError("q_stirling_at needs n, m >= 0")
    times, bracket = q_ring_at(x)
    step = partial(_STIRLING_STEPS[variant], times=times, bracket=bracket)
    cols = [[1]]
    # Column j to index n - j: the columns left of j are already longer.
    for j in range(min(n, m) + 1):
        _fill_columns(cols, n, j, step, 0)
    return cols


def stirling2(n: int, k: int) -> int:
    """Classical Stirling number of the second kind."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n, k >= 0")
    if k > n:
        return 0
    cols = _classical_cols
    if k < len(cols) and n - k < len(cols[k]):
        return cols[k][n - k]
    times, bracket = q_ring_at(1)
    return _grow_columns(cols, n, k, partial(_STIRLING_STEPS["carlitz"], times=times, bracket=bracket), 0)


def s2_q(n: int, j: int) -> QPoly:
    """Binomial transform of classical Stirling numbers with a q weight:
    sum over k of C(n,k) * q**(n-k) * stirling2(k, j).
    """
    if n < 0 or j < 0:
        raise ValueError("s2_q needs n, j >= 0")
    terms = QPoly.zero()
    for k in range(j, n + 1):
        s = stirling2(k, j)
        if s:
            terms = terms + QPoly.q(n - k) * (comb(n, k) * s)
    return terms


def s2_inv_q(n: int, j: int) -> QRational:
    """Coefficient array of the egf (q**-1 * e**t - 1)**j * q**-1 * e**t / j!.

    Closed form (1/j!) * sum over l of C(j,l) * (-1)**(j-l) * q**-(l+1)
    * (l+1)**n, applied verbatim for every integer n; for n < 0 the power
    (l+1)**n is an exact rational.
    """
    if j < 0:
        raise ValueError("s2_inv_q needs j >= 0")
    acc = QRational.from_int(0)
    for l in range(j + 1):
        scale = Fraction(comb(j, l) * (-1) ** (j - l), factorial(j)) * Fraction(l + 1) ** n
        acc = acc + QRational(QPoly.q(-(l + 1))) * scale
    return acc


def q_exponential(scale: QPoly, order: int) -> TruncatedSeries:
    """E_q(z * scale) truncated at the given order.

    The coefficient of z**k is scale**k / [k]! as a QRational.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = []
    power = QPoly.one()
    for k in range(order + 1):
        # [k]! is the product of Phi_d**(k // d) over 2 <= d <= k.
        coeffs.append(QRational(power, {d: k // d for d in range(2, k + 1)}))
        power = power * scale
    return TruncatedSeries(coeffs)
