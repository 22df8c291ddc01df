"""q-combinatorial number kernels.

q-integers, q-factorials, q-binomials, three q-deformations of the
Stirling numbers of the second kind, two auxiliary Stirling-type arrays
with a q parameter, and the q-exponential series.

The three Stirling deformations and the classical table share one row
recurrence T(n,m) = a*T(n-1,m-1) + b*T(n-1,m) with T(0,0) = 1; the
weights (a, b) define each of them:

* carlitz   (1, [m]); tracks the partition inversion statistic Inv*.
* cigler    (1, q**(n-1) + m - 1); weights each partition of
            {0,...,n-1} by q**(sum of the elements sharing a block
            with 0): element n-1 joins the 0-block, joins one of the
            m-1 other blocks, or opens a new block.
* shifted   (q**(m-1), [m]); equals q**C(m,2) times the carlitz value.
* stirling2 (1, m), over the integers.

All kernels return canonical QPoly/QRational values and are memoized.
The memo tables only grow and never change an entry.  Every table grows
through one function, under one module lock, which re-checks the length
once held, so concurrent callers never append a row twice; a read of a
row that already exists takes no lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .exactnum import QPoly, QRational, TruncatedSeries

__all__ = [
    "STIRLING_VARIANTS",
    "q_int",
    "q_factorial",
    "q_binomial",
    "q_stirling",
    "stirling2",
    "s2_q",
    "s2_inv_q",
    "q_exponential",
]

STIRLING_VARIANTS = ("carlitz", "cigler", "shifted")

_q_factorials: list[QPoly] = [QPoly.one()]
_stirling_tables: dict[str, list[list[QPoly]]] = {v: [[QPoly.one()]] for v in STIRLING_VARIANTS}
_classical_rows: list[list[int]] = [[1]]
_grow_lock = threading.Lock()


def q_int(n: int) -> QPoly:
    """[n] = 1 + q + ... + q**(n-1)."""
    if n < 0:
        raise ValueError(f"q_int needs n >= 0, got {n}")
    return QPoly([1] * n)


def _memo_row(rows: list, n: int, next_row: Callable[[list], object]):
    """rows[n], appending next_row(rows) until it exists.

    The only place that takes the growth lock; a row that already exists
    is read without it.  next_row must not call a memoized kernel, since
    the lock is not reentrant.
    """
    if len(rows) <= n:
        with _grow_lock:
            while len(rows) <= n:
                rows.append(next_row(rows))
    return rows[n]


def q_factorial(n: int) -> QPoly:
    """[n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError(f"q_factorial needs n >= 0, got {n}")
    return _memo_row(_q_factorials, n, lambda fs: fs[-1] * q_int(len(fs)))


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial [n]! / ([k]! [n-k]!), computed by exact division."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got ({n}, {k})")
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


# Weights (a, b) of T(n,m) = a*T(n-1,m-1) + b*T(n-1,m), per variant.
_STIRLING_WEIGHTS = {
    "carlitz": lambda n, m: (1, q_int(m)),
    "cigler": lambda n, m: (1, QPoly.q(n - 1) + (m - 1)),
    "shifted": lambda n, m: (QPoly.q(m - 1), q_int(m)),
}


def _next_stirling_row(weights, zero) -> Callable[[list], list]:
    """Row n of the triangle T(0,0) = 1 from row n-1, with the given weights."""

    def next_row(rows: list) -> list:
        n = len(rows)
        prev = rows[-1]
        row = [zero] * (n + 1)
        for m in range(1, n + 1):
            a, b = weights(n, m)
            row[m] = a * prev[m - 1] + b * (prev[m] if m < n else zero)
        return row

    return next_row


_NEXT_ROW = {v: _next_stirling_row(w, QPoly.zero()) for v, w in _STIRLING_WEIGHTS.items()}
_NEXT_CLASSICAL_ROW = _next_stirling_row(lambda n, m: (1, m), 0)


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
    return _memo_row(_stirling_tables[variant], n, _NEXT_ROW[variant])[m]


def stirling2(n: int, k: int) -> int:
    """Classical Stirling number of the second kind."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n, k >= 0")
    if k > n:
        return 0
    return _memo_row(_classical_rows, n, _NEXT_CLASSICAL_ROW)[k]


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
        coeffs.append(QRational(power, q_factorial(k)))
        power = power * scale
    return TruncatedSeries(coeffs)
