"""Poly-Bernoulli number families, their q-analogues, and the
Akiyama-Tanigawa triangle engines.

Sign convention for k: entry points named *_negk and every q-family keyed
by a combinatorial object class take k >= 0 and mean the negative
superscript branch (the integer/polynomial regime).  classical_pb,
cenkci_q_pb, and at_q_pb take a signed k exactly as in the defining sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from . import objects
from .errors import NotPolynomialError
from .exactnum import QPoly, QRational
from .qkernels import q_factorial, q_int, q_stirling, stirling2

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
    "Triangle",
    "akiyama_tanigawa",
    "carlitz_beta",
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


def classical_pb_negk(n: int, k: int) -> int:
    """sum over m of m! * stirling2(n+1,m+1) * m! * stirling2(k+1,m+1);
    symmetric in n and k."""
    if n < 0 or k < 0:
        raise ValueError("classical_pb_negk needs n, k >= 0")
    total = 0
    for m in range(min(n, k) + 1):
        f = factorial(m)
        total += f * stirling2(n + 1, m + 1) * f * stirling2(k + 1, m + 1)
    return total


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
    total = QPoly.zero()
    for m in range(min(n, k) + 1):
        f = q_factorial(m)
        total = total + f * q_stirling("carlitz", n + 1, m + 1) * f * q_stirling("carlitz", k + 1, m + 1)
    return total


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
    total = QPoly.zero()
    for m in range(min(n, k) + 1):
        f = factorial(m)
        total = total + (f * f) * (
            q_stirling("cigler", n + 1, m + 1) * q_stirling("cigler", k + 1, m + 1)
        )
    return total


def vesztergombi_q_pb(n: int, k: int) -> QPoly:
    """Inversion polynomial of the banded permutation class, via
    q**(n*k) * sum over m of S(n+1,m+1)(1/q) * S(k+1,m+1)(1/q) * ([m]!)**2 * q**m
    with the shifted q-Stirling numbers, evaluated in Laurent arithmetic.
    """
    if n < 0 or k < 0:
        raise ValueError("vesztergombi_q_pb needs n, k >= 0")
    total = QPoly.zero()
    for m in range(min(n, k) + 1):
        sn = q_stirling("shifted", n + 1, m + 1).subs_inv_q()
        sk = q_stirling("shifted", k + 1, m + 1).subs_inv_q()
        f = q_factorial(m)
        total = total + sn * sk * f * f * QPoly.q(m)
    total = total.shift(n * k)
    if total.min_exp < 0:
        raise NotPolynomialError(f"vesztergombi_q_pb({n}, {k}) kept exponent {total.min_exp}")
    return total


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
    if k <= 0:
        total = QPoly.zero()
        for m in range(n + 1):
            c = stirling2(n, m) * factorial(m) * (m + 1) ** (-k)
            sign = -1 if (n - m) % 2 else 1
            total = total + QPoly.q(n - m) * (sign * c)
        return total
    acc = QRational.from_int(0)
    for m in range(n + 1):
        c = Fraction(stirling2(n, m) * factorial(m), (m + 1) ** k)
        sign = -1 if (n - m) % 2 else 1
        acc = acc + QRational(QPoly.q(n - m)) * (c * sign)
    return acc


def _cenkci_as_qrational(n: int, k: int) -> QRational:
    v = cenkci_q_pb(n, k)
    return v if isinstance(v, QRational) else QRational(v)


def cenkci_recursion_check(n: int, k: int) -> bool:
    """Verify the step-down identity, signed-k form:
    B(n, k-1) = (n+1)*B(n, k) + sum over i of q**i * C(n,i+1) * B(n-i, k).

    With signed k the step runs from column k down to column k-1;
    magnitude-indexed statements of the same identity count upward.
    """
    if n < 1:
        raise ValueError("cenkci_recursion_check needs n >= 1")
    lhs = _cenkci_as_qrational(n, k - 1)
    rhs = _cenkci_as_qrational(n, k) * (n + 1)
    for i in range(1, n):
        rhs = rhs + _cenkci_as_qrational(n - i, k) * QRational(QPoly.q(i)) * comb(n, i + 1)
    return lhs == rhs


def cenkci_comb_check(n: int, k: int) -> bool:
    """Compare cenkci_q_pb(n, -k) with
    q * sum over j of (j!)**2 * s2_q(n,j) * s2_inv_q(-k, j).

    k >= 0 is the magnitude of the negative superscript.  The second
    factor uses the verbatim extension of s2_inv_q to nonpositive first
    arguments, so disagreement is meaningful data rather than a bug;
    callers should treat the result as a report.
    """
    from .qkernels import s2_inv_q, s2_q

    if n < 0 or k < 0:
        raise ValueError("cenkci_comb_check needs n, k >= 0")
    lhs = _cenkci_as_qrational(n, -k)
    rhs = QRational.from_int(0)
    for j in range(min(n, k) + 1):
        rhs = rhs + QRational(s2_q(n, j)) * s2_inv_q(-k, j) * (factorial(j) ** 2)
    rhs = rhs * QRational(QPoly.q(1))
    return lhs == rhs


def at_q_pb(n: int, k: int) -> QPoly | QRational:
    """Formula-level q-analogue:
    (-1)**n * sum over m of (-1)**m * [m]! / [m+1]**k * {n,m}_q  (carlitz).

    Returns a QPoly for k <= 0 and a QRational otherwise.
    """
    if n < 0:
        raise ValueError("at_q_pb needs n >= 0")
    acc = QRational.from_int(0)
    for m in range(n + 1):
        s = q_stirling("carlitz", n, m)
        if s.is_zero:
            continue
        term = QRational(q_factorial(m) * s) * (QRational(q_int(m + 1)) ** (-k))
        acc = acc + (term if m % 2 == 0 else -term)
    if n % 2:
        acc = -acc
    if k <= 0:
        return acc.as_qpoly()
    return acc


# ---------------------------------------------------------------------------
# Akiyama-Tanigawa triangles
# ---------------------------------------------------------------------------

TRIANGLE_RULES = ("classical", "zengA", "zengB")

InitialSpec = Callable[[int], "QRational | QPoly | Fraction | int"]


@dataclass(frozen=True)
class Triangle:
    """Rectangular row-rewriting table; each derived row is one shorter."""

    rule: str
    rows: tuple[tuple[QRational, ...], ...]

    def leading_column(self) -> list[QRational]:
        return [row[0] for row in self.rows]


def _as_qrational(v) -> QRational:
    out = QRational._coerce(v)
    if out is None:
        raise TypeError(f"cannot use {type(v).__name__} as a triangle entry")
    return out


def akiyama_tanigawa(rule: str, initial: InitialSpec | Sequence, n_rows: int, row_len: int) -> Triangle:
    """Run a row-rewriting rule from an initial row.

    rule 'classical':  a[n+1][m] = (m+1) * (a[n][m] - a[n][m+1])
    rule 'zengA':      a[n+1][m] = [m+1] * (a[n][m] - a[n][m+1])
    rule 'zengB':      a[n+1][m] = [m] * a[n][m] - [m+1] * a[n][m+1]

    n_rows counts all rows including the initial one, so row_len >= n_rows
    keeps the last row nonempty.  ``initial`` is either a callable m -> value
    or a sequence of at least row_len values; entries are coerced to
    QRational.
    """
    if rule not in TRIANGLE_RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {TRIANGLE_RULES}")
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if row_len < n_rows:
        raise ValueError(f"row too short: need row_len >= n_rows, got {row_len} < {n_rows}")
    if callable(initial):
        first = [_as_qrational(initial(m)) for m in range(row_len)]
    else:
        if len(initial) < row_len:
            raise ValueError(f"row too short: initial sequence has {len(initial)} < {row_len} entries")
        first = [_as_qrational(v) for v in initial[:row_len]]
    rows = [tuple(first)]
    for _ in range(1, n_rows):
        prev = rows[-1]
        nxt = []
        for m in range(len(prev) - 1):
            if rule == "classical":
                nxt.append((prev[m] - prev[m + 1]) * (m + 1))
            elif rule == "zengA":
                nxt.append((prev[m] - prev[m + 1]) * q_int(m + 1))
            else:
                nxt.append(prev[m] * q_int(m) - prev[m + 1] * q_int(m + 1))
        rows.append(tuple(nxt))
    return Triangle(rule, tuple(rows))


def q_power_initial(k: int) -> InitialSpec:
    """Initial row m -> [m+1]**k (reciprocal for negative k)."""

    def spec(m: int) -> QRational:
        return QRational(q_int(m + 1)) ** k

    return spec


def q_harmonic_initial() -> InitialSpec:
    return q_power_initial(-1)


def power_initial(k: int) -> InitialSpec:
    """Initial row m -> (m+1)**k over plain rationals."""

    def spec(m: int) -> Fraction:
        return Fraction(m + 1) ** k

    return spec


def harmonic_initial() -> InitialSpec:
    return power_initial(-1)


def carlitz_beta(n: int) -> QRational:
    """q-deformed Bernoulli value by the closed form
    sum over k of (-1)**k * {n+1,k+1}_q * [k]! / [k+1];
    it is the leading column of the zengA triangle with initial row
    1/[m+1] (the carlitz-beta-vs-triangle check pins that)."""
    if n < 0:
        raise ValueError("carlitz_beta needs n >= 0")
    acc = QRational.from_int(0)
    for k in range(n + 1):
        term = QRational(q_factorial(k) * q_stirling("carlitz", n + 1, k + 1), q_int(k + 1))
        acc = acc + (term if k % 2 == 0 else -term)
    return acc


# ---------------------------------------------------------------------------
# family registry (CLI and verification surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """How a family is exposed: its k-sign convention.

    k_mode is 'neg' (k >= 0 meaning the negative branch), 'signed', or
    'none' (single-index family).
    """

    fn: Callable
    k_mode: str
    max_cells: int | None = None  # max_n*max_k bound of a table of an enumeration-backed family


FAMILIES: dict[str, FamilySpec] = {
    "classical_negk": FamilySpec(classical_pb_negk, "neg"),
    "classical_anyk": FamilySpec(classical_pb, "signed"),
    "c_relative": FamilySpec(c_relative, "neg"),
    "ordered_q": FamilySpec(ordered_q_pb, "neg"),
    "lonesum_q": FamilySpec(lonesum_q_pb, "neg"),
    "vesztergombi_q": FamilySpec(vesztergombi_q_pb, "neg"),
    "permmatrix_q": FamilySpec(permmatrix_q_pb, "neg", max_cells=objects.MAX_SCAN_CELLS),
    "cenkci_q": FamilySpec(cenkci_q_pb, "signed"),
    "at_q": FamilySpec(at_q_pb, "signed"),
}
