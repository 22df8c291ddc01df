"""Exact arithmetic kernels.

Four carriers, all immutable and exact (no floats anywhere):

* ``QPoly``           Laurent polynomial in q with big-integer coefficients.
* ``QRational``       normalized ratio of a QPoly and a denominator that
                      is a positive integer times a product of cyclotomic
                      polynomials Phi_d (``cyclotomic``, memoised here),
                      kept as the map {d: e} of their exponents; a QPoly
                      denominator is split, and the normal form reached,
                      by exact division by the Phi_d alone, with no
                      polynomial gcd.
* ``TruncatedSeries`` power series in one formal variable, truncated at a
                      fixed order, coefficients in any exact coefficient
                      ring (Fraction or QRational in practice).
* ``IntMatrix``       dense big-integer matrix with exact characteristic
                      polynomial (Berkowitz, division free) and permanent
                      (Glynn's formula as a row transfer count over the
                      open column sums, along the side whose lines end
                      sooner, met in the middle at half size, up to
                      ``MAX_PERMANENT_DIM`` rows).

``QPoly`` multiplication takes one of three paths, chosen from the
operands alone:

* schoolbook, for products of fewer than ``_FAST_MUL_LEN`` coefficients
  in total (QRational's small operands) and for sparse or short operands
  such as the cigler weight q**(n-1) + (m-1);
* a window sum, O(len), when one operand is all ones (a q-integer [m]
  times a power of q): prefix sums of the other operand, differenced over
  a window of width m (``exact_div`` by such a divisor inverts it, also
  in O(len));
* Kronecker substitution, when both are dense enough that schoolbook would
  take at least ``_KRONECKER_MIN_WORK`` products per packed coefficient:
  each operand becomes one big integer, CPython multiplies the two once
  (Karatsuba), and the coefficients are read back as signed digits
  (Kronecker 1882; Harvey, J. Symbolic Comput. 2009).

The packed form of a QPoly with no negative exponent is its value at
q = 2**(8*width), coefficient i being the little-endian width-byte digit
i.  ``QPoly.packed`` and ``QPoly.from_packed`` convert; ``_digits`` is the
one reader.  Digits read back lie in [0, 2**(8*width)), so width must hold
every coefficient read: the value at q = 1 bounds them for nonnegative
operands.  Signed coefficients pack the same way and are read back as
signed digits (``QPoly.from_signed_packed``), so width must hold their
absolute values plus a sign bit; ``_kronecker_mul`` and the packed sums
of ``families`` state their bounds.

The packed pair halves the integers of a packed product (Harvey's
multipoint Kronecker substitution, KS2).  With h = 4*width bits, it is
(p(2**h), p(-2**h)) = (E + (O << h), E - (O << h)), where E and O are p's
even and odd coefficients packed at width, so that p(x) = E(x**2) +
x*O(x**2) at x**2 = 2**(8*width).  Each side is a ring map, so sums of
products of pairs are the pair of the sum of products, on integers half
as long as the packed ones, and a polynomial given by a recurrence has
its pair from the same recurrence run on integers
(``qkernels.q_stirling_at``).  From a pair (P, M) of a polynomial r,
``QPoly.from_packed_pair`` reads (P + M) >> 1, which is r's even part
E_r packed, and (P - M) >> (h + 1), its odd part O_r: P + M = 2*E_r and
P - M = 2**(h+1)*O_r exactly, so both shifts drop only zero bits.  The
width rule is the packed form's: each even and each odd digit holds one
coefficient of r, so for nonnegative coefficients width must hold the
largest.

Values are safe to share between threads: each is immutable once built,
and every operation returns a new object and never mutates its inputs.
"""

from __future__ import annotations

import threading
from contextlib import suppress
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from math import gcd, lcm, prod
from operator import add, mul, neg, sub
from struct import unpack, unpack_from
from typing import Iterable, Sequence

from .errors import NonSquareError, PoleError, SizeLimitError

__all__ = ["QPoly", "QRational", "TruncatedSeries", "IntMatrix", "cyclotomic"]


class QPoly:
    """Laurent polynomial in q over the integers.

    Canonical form: ``coeffs`` is a dense tuple starting at exponent
    ``min_exp`` whose first and last entries are nonzero; the zero
    polynomial is the empty tuple with ``min_exp == 0``.  Equal values
    therefore always compare (and hash) equal.
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, coeffs: Iterable[int] = (), min_exp: int = 0):
        cs = list(coeffs)
        lo = 0
        hi = len(cs)
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        while lo < hi and cs[lo] == 0:
            lo += 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp + lo)
            object.__setattr__(self, "coeffs", tuple(cs[lo:hi]))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("QPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: int) -> "QPoly":
        return cls((c,))

    @classmethod
    def q(cls, exp: int = 1) -> "QPoly":
        """The monomial q**exp (exp may be negative)."""
        return cls((1,), exp)

    @classmethod
    def from_packed(cls, value: int, width: int) -> "QPoly":
        """The polynomial whose packed form (module docstring) is value >= 0."""
        # Reading from the lowest nonzero digit s (the one holding value's
        # lowest set bit), both end digits are nonzero.
        s = ((value & -value).bit_length() - 1) // (8 * width) if value else 0
        return _canonical(_digits(value >> (8 * width * s), width), s)

    @classmethod
    def from_packed_pair(cls, plus: int, minus: int, width: int) -> "QPoly":
        """The polynomial whose packed pair (module docstring) is
        (plus, minus), for coefficients in [0, 2**(8*width))."""
        even = _digits((plus + minus) >> 1, width)
        odd = _digits((plus - minus) >> (4 * width + 1), width)
        cs = [0] * max(2 * len(even) - 1, 2 * len(odd))
        cs[:2 * len(even):2] = even
        cs[1:2 * len(odd):2] = odd
        # _digits ends each part on a nonzero digit, so the top of cs is
        # nonzero and only its low end needs trimming.
        lo = next(compress(count(), cs), 0)
        return _canonical(tuple(cs[lo:]), lo)

    @classmethod
    def from_signed_packed(cls, value: int, width: int) -> "QPoly":
        """The polynomial with no negative exponent whose value at
        q = 2**(8*width) is value, for coefficients of absolute value
        below 2**(8*width-1): the packed form of signed coefficients
        (module docstring), read as signed digits."""
        # A top coefficient at q**t puts |value| past 2**(8*width*t - 1).
        count = abs(value).bit_length() // (8 * width) + 1
        return cls(_signed_digits(value, width, count))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        """Largest exponent with nonzero coefficient; 0 for the zero poly."""
        if not self.coeffs:
            return 0
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, exp: int) -> int:
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "QPoly":
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        lo, start = self.min_exp, other.min_exp
        if lo > start:
            a, b, lo, start = b, a, start, lo
        # Pad both with zeros to one span from q**lo, then add termwise.
        b = (0,) * (start - lo) + b
        if len(a) < len(b):
            a += (0,) * (len(b) - len(a))
        else:
            b += (0,) * (len(a) - len(b))
        cs = tuple(map(add, a, b))
        if cs[0] and cs[-1]:
            return _canonical(cs, lo)
        return QPoly(cs, lo)  # the ends cancelled; trim them

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _canonical(tuple(map(neg, self.coeffs)), self.min_exp)

    def __sub__(self, other) -> "QPoly":
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            if other == 1:
                return self
            if other == 0:
                return QPoly()
            return _canonical(tuple(map(mul, self.coeffs, repeat(other))), self.min_exp)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        # A product of nonzero ends has a nonzero end, so every path below
        # returns canonical coefficients.
        if len(a) + len(b) >= _FAST_MUL_LEN:
            cs = _fast_mul(a, b)
            if cs is not None:
                return _canonical(cs, self.min_exp + other.min_exp)
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    cs[i + j] += ai * bj
        return _canonical(tuple(cs), self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a QPoly; use QRational")
        if not n:
            return QPoly.one()
        # Over the bits of n below the top one: a square per bit and a
        # product by self per set bit, so bit_length + popcount - 2 products.
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero:
            return self
        return QPoly(self.coeffs, self.min_exp + k)

    # -- substitution and evaluation ----------------------------------------

    def subs_inv_q(self) -> "QPoly":
        """q -> 1/q: exponent e maps to -e."""
        return QPoly(tuple(reversed(self.coeffs)), -self.max_exp)

    def subs_neg_q(self) -> "QPoly":
        """q -> -q."""
        cs = tuple(
            c if (self.min_exp + i) % 2 == 0 else -c
            for i, c in enumerate(self.coeffs)
        )
        return QPoly(cs, self.min_exp)

    def eval_rational(self, value: Fraction | int) -> Fraction:
        """Exact evaluation at a rational point.

        Raises PoleError at value 0 when negative exponents are present.
        Horner's rule runs on integers: at value p/r, with len(coeffs) = L,
        acc = sum over j of coeffs[j] * p**j * r**(L-1-j), and one Fraction
        divides out r**(L-1) and applies q**min_exp.
        """
        v = Fraction(value)
        if self.is_zero:
            return Fraction(0)
        if v == 0 and self.min_exp < 0:
            raise PoleError("evaluation at q=0 with negative exponents")
        p, r = v.numerator, v.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * scale
            scale *= r
        den = scale // r
        e = self.min_exp
        if e >= 0:
            return Fraction(acc * p ** e, den * r ** e)
        return Fraction(acc * r ** -e, den * p ** -e)

    def at_one(self) -> int:
        return sum(self.coeffs)

    # -- division ------------------------------------------------------------

    def exact_div(self, other: "QPoly") -> "QPoly":
        """Exact quotient with integer coefficients; raises if not exact."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return QPoly()
        m = len(other.coeffs)
        if other.coeffs.count(1) == m:  # a q-integer [m] times a power of q
            quo = _over_q_int(self.coeffs, m)
            if quo is None:
                raise ValueError("division is not exact")
        else:
            quo, rem = _divmod_int(self.coeffs, other.coeffs)
            if quo is None:
                raise ValueError("quotient has non-integer coefficients")
            if any(rem):
                raise ValueError("division is not exact")
        return QPoly(quo, self.min_exp - other.min_exp)

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if other.denominator != 1:
                return False
            other = QPoly.const(other.numerator)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.min_exp == 0 and len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)  # as the int it equals
        return hash((self.min_exp, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"QPoly({self})"

    def __str__(self) -> str:
        """The nonzero terms by ascending exponent, as in
        "q^-1 - 2 + q - 3*q^2".

        A term reads c at exponent 0, and otherwise q (exponent 1) or q^e
        (any other e, negative ones as q^-2), written bare for the
        coefficient 1, as -q^e for -1 and as c*q^e for any other c.
        Terms are joined by " + ", or by " - " before a negative
        coefficient, whose sign it then carries; only the first term
        keeps its own minus.  The zero polynomial is "0".
        """
        parts = []
        for e, c in enumerate(self.coeffs, self.min_exp):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("q" if c == 1 else "-q" if c == -1 else f"{c}*q")
            else:
                parts.append(f"q^{e}" if c == 1 else f"-q^{e}" if c == -1 else f"{c}*q^{e}")
        # No term contains "+ -" (a negative exponent reads q^-2), so the
        # replace touches only the joins before a negative term.
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    # -- serialization ----------------------------------------------------------

    def packed(self, width: int) -> int:
        """The value at q = 2**(8*width), the packed form (module docstring)."""
        if self.min_exp < 0:
            raise ValueError(f"no packed form with the negative exponent {self.min_exp}")
        return _pack(self.coeffs, width) << (8 * width * self.min_exp) if self.coeffs else 0

    def to_json_dict(self) -> dict:
        return {
            "var": "q",
            "min_exp": self.min_exp,
            "coeffs": list(map(str, self.coeffs)),
        }


def _canonical(coeffs: tuple[int, ...], min_exp: int) -> QPoly:
    """A QPoly from coefficients whose ends are already nonzero (or empty
    with min_exp 0), without the trimming pass of ``QPoly.__init__``."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "min_exp", min_exp)
    object.__setattr__(p, "coeffs", coeffs)
    return p


# Products with fewer coefficients in total stay schoolbook without looking
# for a faster path, so small operands (QRational's) pay one comparison.
_FAST_MUL_LEN = 12
# Schoolbook products per packed coefficient at which Kronecker wins (CHANGES.md crossover table).
_KRONECKER_MIN_WORK = 8


def _fast_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """The product of two nonzero coefficient tuples by a window sum when
    one is all ones, or by Kronecker substitution when the schoolbook
    products (nonzeros of the shorter times the longer's length) are many
    per coefficient packed; None when schoolbook is the faster way."""
    if len(a) > len(b):
        a, b = b, a
    if a.count(1) == len(a):
        return _times_q_int(b, len(a))
    if b.count(1) == len(b):
        return _times_q_int(a, len(b))
    if (len(a) - a.count(0)) * len(b) >= _KRONECKER_MIN_WORK * (len(a) + len(b)):
        return _kronecker_mul(a, b)
    return None


def _times_q_int(a: tuple[int, ...], m: int) -> tuple[int, ...]:
    """a times [m] = 1 + q + ... + q**(m-1): coefficient i is the sum of
    a over the window i-m < j <= i, a difference of two prefix sums."""
    if m == 1:
        return a
    s = list(accumulate(chain(a, repeat(0, m - 1)), initial=0))
    return tuple(chain(islice(s, 1, m), map(sub, islice(s, m, None), s)))


def _over_q_int(a: tuple[int, ...], m: int) -> list[int] | None:
    """a divided by [m], the inverse of _times_q_int, or None when [m] does
    not divide a.  Since [m] * (1 - q) = 1 - q**m, the quotient is a times
    1 - q (a difference of neighbours) divided by 1 - q**m (a running sum
    over each residue class mod m); that series ends, and the division is
    exact, when the m sums from index len(a) - m + 1 on are all zero."""
    cut = len(a) - m + 1
    if cut < 1:
        return None
    diff = [a[0], *map(sub, a[1:], a), -a[-1]]  # a * (1 - q)
    out = [0] * len(diff)
    for r in range(m):
        out[r::m] = accumulate(diff[r::m])
    return None if any(out[cut:]) else out[:cut]


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product by Kronecker substitution: evaluate both at q = 2**(8*width),
    multiply the two integers once, and read the coefficients back as
    signed base-2**(8*width) digits.

    No product coefficient exceeds min(len) * max|a| * max|b| in absolute
    value, so width bytes with one bit to spare for the sign hold every
    one.
    """
    ma = max(max(a), -min(a))
    mb = max(max(b), -min(b))
    bits = ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    return _signed_digits(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)


def _pack(cs: tuple[int, ...], width: int) -> int:
    """The integer sum of cs[i] * 2**(8*width*i), from width-byte digits:
    the nonnegative coefficients packed, minus the negated negative ones."""
    if min(cs) >= 0:
        return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(width), repeat("little"))), "little")
    pos = b"".join([(c if c > 0 else 0).to_bytes(width, "little") for c in cs])
    negs = b"".join([(-c if c < 0 else 0).to_bytes(width, "little") for c in cs])
    return int.from_bytes(pos, "little") - int.from_bytes(negs, "little")


def _digits(value: int, width: int) -> tuple[int, ...]:
    """The width-byte digits of value >= 0, lowest first, up to its top
    nonzero one: the one reader of the packed form."""
    n_digits = -(-value.bit_length() // (8 * width))
    data = value.to_bytes(n_digits * width, "little")
    # struct splits the bytes into the digits' bytes, in one call up to 64
    # digits and 64 digits a call past that: struct caches the compiled
    # format of each call, and one format per digit count kept up to 100
    # of them, some of tens of kB, alive.  Most reads are short, and the
    # chunk loop costs them about a microsecond more than one call.
    if n_digits <= 64:
        chunks = unpack(f"{width}s" * n_digits, data)
    else:
        chunks = chain.from_iterable(
            unpack_from(f"{width}s" * min(64, n_digits - i), data, i * width) for i in range(0, n_digits, 64))
    return tuple(map(int.from_bytes, chunks, repeat("little")))


def _signed_digits(value: int, width: int, count: int) -> tuple[int, ...]:
    """The count signed width-byte digits of value, lowest first, for a
    value whose digits all have absolute value below 2**(8*width-1).
    Adding 2**(8*width-1) to every digit makes them all nonnegative and
    the top one nonzero; it is taken off the digits read back."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    return tuple(map(sub, _digits(value + offset, width), repeat(half)))


def _divmod_int(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int] | None, list[int]]:
    """Long division of coefficient lists (ascending) over the integers.

    Returns ``(quotient, remainder)``.  The quotient is None when some
    quotient coefficient is not an integer; the division over the
    rationals then has a non-integral quotient, and it stops there.
    """
    r = list(a)
    nb = len(b)
    lead = b[-1]
    quo = [0] * max(len(a) - nb + 1, 0)
    for i in range(len(a) - nb, -1, -1):
        f, m = divmod(r[i + nb - 1], lead)
        if m:
            return None, r
        quo[i] = f
        if f:
            for j, bj in enumerate(b):
                r[i + j] -= f * bj
    return quo, r


_ONE = QPoly.one()

# _cyclotomics[d-1] = Phi_d; it starts as [Phi_1] = [q - 1].  It only grows,
# under _cyclotomic_lock, which re-checks the length once held, so
# concurrent callers never append an entry twice; a read of an entry that
# already exists takes no lock.
_cyclotomics: list[QPoly] = [QPoly((-1, 1))]
_cyclotomic_lock = threading.Lock()


def cyclotomic(d: int) -> QPoly:
    """Phi_d, the d-th cyclotomic polynomial: monic, irreducible over the
    rationals, of degree phi(d), and q**d - 1 is the product of Phi_e over
    the divisors e of d.  Memoised; each new Phi_n is q**n - 1 divided
    exactly by the Phi_e of the proper divisors e of n."""
    if d < 1:
        raise ValueError(f"cyclotomic needs d >= 1, got {d}")
    phis = _cyclotomics
    if len(phis) < d:
        with _cyclotomic_lock:
            while len(phis) < d:
                n = len(phis) + 1
                below = prod((phis[e - 1] for e in range(1, n // 2 + 1) if n % e == 0), start=_ONE)
                phis.append((QPoly.q(n) - 1).exact_div(below))
    return phis[d - 1]


def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d, from the prime factors of d."""
    out, p = d, 2
    while p * p <= d:
        if d % p == 0:
            out -= out // p
            while d % p == 0:
                d //= p
        p += 1
    return out - out // d if d > 1 else out


def _strip(num: QPoly, phis: dict[int, int]) -> tuple[QPoly, dict[int, int]]:
    """num divided by each Phi_d of phis = {d: e} as often as it divides,
    at most e times, and the map of the copies not divided (no zero
    exponents).  The one routine that divides a numerator by a Phi_d.

    Each trial division is gated by an integer test at the packed point
    X = 2**(8*width), width the bytes of num's largest coefficient (Phi_d
    divides num only if Phi_d(X) divides num(X)), and confirmed by exact
    division, so a coincidence at X cannot change the result.  No Phi_d
    divides a constant, and the map of one is phis itself.  Neither map is
    ever changed after it is built, so results may share them.
    """
    if len(num.coeffs) < 2 or not phis:
        return num, phis
    width = max(map(abs, num.coeffs)).bit_length() // 8 + 1
    value = _pack(num.coeffs, width)
    left = {}
    for d, e in phis.items():
        phi = cyclotomic(d)
        at = phi.packed(width)
        while e and value % at == 0:
            try:
                num = num.exact_div(phi)
            except ValueError:  # Phi_d(X) divides num(X), but Phi_d does not divide num
                break
            value //= at
            e -= 1
        if e:
            left[d] = e
    return num, left


def _split(p: QPoly) -> tuple[int, dict[int, int]]:
    """(k, {d: e}) with p = q**p.min_exp * k * (the product of Phi_d**e),
    for a nonzero p; ValueError when p has no such form.

    Every Phi_d but Phi_1 = q - 1 reads the same backwards, and Phi_1
    reads backwards as its negative, so a p that does neither is refused
    at once.  Otherwise d runs up from 1 until the rest is a constant, and
    the rest is divided exactly by Phi_d while the division is exact.  A
    Phi_d whose degree phi(d) exceeds the rest's degree is skipped without
    being built, so a refusal builds no Phi_d of higher degree than p.
    Past d = max(6, deg**2) no Phi_d can divide a rest of degree deg, since
    phi(d) >= sqrt(d) for d > 6.
    """
    cs = p.coeffs
    symmetric = cs[::-1] in (cs, tuple(map(neg, cs)))
    rest = _canonical(cs, 0)
    phis = {}
    d = 0
    while len(rest.coeffs) > 1:
        deg = len(rest.coeffs) - 1
        d += 1
        if not symmetric or d > max(6, deg * deg):
            raise ValueError(f"the denominator {p} is not q**s times an integer times "
                             "a product of cyclotomic polynomials")
        if _totient(d) > deg:
            continue
        phi = cyclotomic(d)
        with suppress(ValueError):  # Phi_d does not divide the rest (again)
            while len(phi.coeffs) <= len(rest.coeffs):
                rest = rest.exact_div(phi)
                phis[d] = phis.get(d, 0) + 1
    return rest.coeffs[0], phis


def _settle(num: QPoly, c: int) -> tuple[QPoly, int]:
    """num and c over the integer content they share, with the sign of c
    moved to num: the integer side of the normal form."""
    if c < 0:
        num, c = -num, -c
    g = c
    for x in num.coeffs:
        if g == 1:
            break
        g = gcd(g, x)
    if g > 1:
        num = _canonical(tuple([x // g for x in num.coeffs]), num.min_exp)
        c //= g
    return num, c


def _phi_product(phis: dict[int, int]) -> QPoly:
    """The product of Phi_d**e over phis, as one packed product: no
    coefficient exceeds the product of ||Phi_d||_1**e."""
    if not phis:
        return _ONE
    top = prod(sum(map(abs, cyclotomic(d).coeffs)) ** e for d, e in phis.items())
    width = top.bit_length() // 8 + 1
    return QPoly.from_signed_packed(prod(cyclotomic(d).packed(width) ** e for d, e in phis.items()), width)


class QRational:
    """Ratio of two QPoly in a unique normal form.

    The denominator is a positive integer c times a product of cyclotomic
    polynomials, kept as the map phis = {d: e} of the exponent e > 0 of
    each Phi_d; the numerator num is a Laurent polynomial, so any power of
    q lives there.  Normal form: no Phi_d of phis divides num, and c shares
    no factor with the integer content of num.  The Phi_d are monic,
    content-free and irreducible over the rationals, so den = c * (the
    product of Phi_d**e), built from c and phis when read, is an ordinary
    polynomial with positive leading coefficient, coprime to num over the
    rationals and sharing no integer content with it.

    The constructor takes the denominator as a nonzero QPoly or as a map
    {d: e}.  A QPoly is split over the Phi_d (_split); one that is not q**s
    times an integer times a product of Phi_d raises ValueError.  Every
    denominator qpb builds has that form: [j] is the product of Phi_d over
    the divisors d > 1 of j.  num is then divided by each Phi_d of the map
    as often as it divides (_strip), and the integer content and sign are
    settled (_settle).

    The operators never split a denominator.  For x = a/(c*B) and
    y = b/(c'*D), B and D products of Phi_d:

    * x * y tries each Phi_d of B against b and each of D against a, the
      only numerator it can divide, and adds the two maps;
    * x + y is t over l*M, with l = lcm(c, c'), M the largest exponent of
      each Phi_d and t = a*(l/c)*(M/B) + b*(l/c')*(M/D); a Phi_d whose
      exponents in B and D differ divides one term of t and not the other,
      so only the Phi_d with equal exponents are tried against t;
    * x / y and x ** -n multiply by 1/y, whose denominator is b split over
      the Phi_d, so they raise ValueError when b does not split; x ** n for
      n >= 0 is a**n over c**n and n times each exponent, already normal.

    Every result then loses the integer content its two parts share.
    """

    __slots__ = ("num", "c", "phis")

    def __init__(self, num: QPoly, den: "QPoly | dict[int, int]" = _ONE):
        if isinstance(den, QPoly):
            if den.is_zero:
                raise ZeroDivisionError("zero denominator")
            c, phis = _split(den)
            num = num.shift(-den.min_exp)
        else:
            if any(d < 1 or e < 0 for d, e in den.items()):
                raise ValueError(f"a cyclotomic denominator {{d: e}} needs d >= 1 and e >= 0, got {den}")
            c, phis = 1, {d: e for d, e in den.items() if e}
        if num.is_zero:
            c, phis = 1, {}
        num, phis = _strip(num, phis)
        _fill(self, *_settle(num, c), phis)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("QRational is immutable")

    # -- constructors --------------------------------------------------------

    # An integer, a Fraction's parts and a polynomial over 1 are already normal.
    @classmethod
    def from_int(cls, n: int) -> "QRational":
        return _new(QPoly.const(n), 1, {})

    @classmethod
    def from_fraction(cls, f: Fraction) -> "QRational":
        return _new(QPoly.const(f.numerator), f.denominator, {})

    @staticmethod
    def _coerce(value) -> "QRational | None":
        if isinstance(value, QRational):
            return value
        if isinstance(value, QPoly):
            return _new(value, 1, {})
        if isinstance(value, int):
            return QRational.from_int(value)
        if isinstance(value, Fraction):
            return QRational.from_fraction(value)
        return None

    # -- parts and predicates ----------------------------------------------------

    @property
    def den(self) -> QPoly:
        """c times the product of Phi_d**e over phis, built when read."""
        return _phi_product(self.phis) * self.c

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.c == 1 and not self.phis

    def as_qpoly(self) -> QPoly:
        """Return the value as a QPoly; raises if it is not polynomial."""
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def as_fraction(self) -> Fraction:
        """Return the value as a Fraction; raises if q survives."""
        if self.phis or self.num.min_exp != 0 or self.num.max_exp != 0:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num.coeff(0), self.c)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other) -> "QRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o)

    __radd__ = __add__

    def __neg__(self) -> "QRational":
        return _new(-self.num, self.c, self.phis)

    def __sub__(self, other) -> "QRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, -o)

    def __rsub__(self, other) -> "QRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "QRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero QRational")
        return _product(self, _reciprocal(o))

    def __rtruediv__(self, other) -> "QRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "QRational":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return _reciprocal(self) ** (-n)
        phis = {d: e * n for d, e in self.phis.items()} if n else {}
        return _new(self.num ** n, self.c ** n, phis)

    # -- evaluation -------------------------------------------------------------

    def eval_rational(self, value: Fraction | int) -> Fraction:
        # den's value as c times each Phi_d's value to the e: den is not built
        den = self.c * prod(cyclotomic(d).eval_rational(value) ** e for d, e in self.phis.items())
        if den == 0:
            raise PoleError(f"denominator vanishes at q={value}")
        return self.num.eval_rational(value) / den

    def at_one(self) -> Fraction:
        return self.eval_rational(1)

    # -- comparison, hashing, display ----------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.c == o.c and self.phis == o.phis

    def __hash__(self) -> int:
        # As the QPoly, int or Fraction it equals, if any.
        num = self.num
        if not self.phis:
            if self.c == 1:
                return hash(num)
            if num.min_exp == 0 and len(num.coeffs) == 1:
                return hash(Fraction(num.coeffs[0], self.c))
        return hash((num, self.c, frozenset(self.phis.items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"QRational({self})"

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_json_dict(), "den": self.den.to_json_dict()}


def _fill(r: QRational, num: QPoly, c: int, phis: dict[int, int]) -> QRational:
    """r with the parts num, c and phis, already in normal form."""
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "c", c)
    object.__setattr__(r, "phis", phis)
    return r


def _new(num: QPoly, c: int, phis: dict[int, int]) -> QRational:
    """A QRational from parts already in normal form, without reducing."""
    return _fill(object.__new__(QRational), num, c, phis)


def _reciprocal(x: QRational) -> QRational:
    """1/x for a nonzero x: x's numerator, split over the Phi_d, is the new
    denominator, coprime to the new numerator c*B.  ValueError when it
    does not split."""
    k, phis = _split(x.num)
    return _new(*_settle(x.den.shift(-x.num.min_exp), k), phis)


def _product(x: QRational, y: QRational) -> QRational:
    """x * y (QRational docstring): each operand's Phi_d tried against the
    other's numerator, and the maps added."""
    a, b = x.num, y.num
    if a.is_zero or b.is_zero:
        return _new(QPoly(), 1, {})
    b, xm = _strip(b, x.phis)
    a, ym = _strip(a, y.phis)
    phis = dict(xm)
    for d, e in ym.items():
        phis[d] = phis.get(d, 0) + e
    return _new(*_settle(a * b, x.c * y.c), phis)


def _sum(x: QRational, y: QRational) -> QRational:
    """x + y (QRational docstring): over the lcm of the denominators, with
    only the Phi_d of equal exponents on both sides tried against the sum."""
    a, b = x.num, y.num
    if a.is_zero:
        return y
    if b.is_zero:
        return x
    xm, ym = x.phis, y.phis
    c = lcm(x.c, y.c)
    if xm == ym:
        t = a * (c // x.c) + b * (c // y.c)
        phis = shared = xm
    else:
        phis = dict(xm)
        for d, e in ym.items():
            if e > phis.get(d, 0):
                phis[d] = e
        # One packed product per cofactor M/B and M/D.
        x_rest = _phi_product({d: e - xm.get(d, 0) for d, e in phis.items() if e > xm.get(d, 0)})
        y_rest = _phi_product({d: e - ym.get(d, 0) for d, e in phis.items() if e > ym.get(d, 0)})
        t = a * (c // x.c) * x_rest + b * (c // y.c) * y_rest
        shared = {d: e for d, e in xm.items() if ym.get(d) == e}
    if t.is_zero:
        phis = shared = {}
    t, left = _strip(t, shared)
    if left is not shared:
        phis = {**{d: e for d, e in phis.items() if d not in shared}, **left}
    return _new(*_settle(t, c), phis)


class TruncatedSeries:
    """Power series truncated at a fixed order.

    ``coeffs[n]`` is the coefficient of the n-th power of the formal
    variable; len(coeffs) == order + 1.  Coefficients may be Fraction or
    QRational (anything with exact ring operations and truthiness).
    Operations never report coefficients beyond the common order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _zero(self):
        return self.coeffs[0] * 0

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        zero = self._zero()
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out)

    def __rmul__(self, other) -> "TruncatedSeries":
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _row_step(states: dict, row: list, close: int, signs) -> dict:
    """One row of IntMatrix.permanent's transfer count.

    Each state (a tuple of column sums) is moved by +row or -row for each
    (op, sign) in signs.  Its first ``close`` sums are then final: their
    product is folded into the weight (a zero ends the state) and the rest
    keys the merged result.
    """
    out: dict = {}
    get = out.get
    row_done, row_rest = row[:close], row[close:]
    for key, w in states.items():
        done, rest = key[:close], key[close:]
        for op, s in signs:
            c = prod(map(op, done, row_done))
            if c:
                new = tuple(map(op, rest, row_rest))
                out[new] = get(new, 0) + s * w * c
    return out


def _reach(lines: Iterable[Sequence[int]]) -> int:
    """Sum over the lines of the position of their last nonzero entry."""
    return sum(max(compress(range(len(line)), line), default=0) for line in lines)


# Largest dimension IntMatrix.permanent accepts.  The costliest 20x20 input
# measured, dense with entries up to 10**30, takes 3.5 s; entries in -3..3
# take 0.25 s (2-vCPU VM, Python 3.11).
MAX_PERMANENT_DIM = 20


class IntMatrix:
    """Rectangular big-integer matrix with the exact kernels used here."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        tup = tuple(tuple(map(int, row)) for row in entries)
        for row, ints in zip(entries, tup):
            if len(ints) != cols:
                raise ValueError("matrix rows have unequal lengths")
            if ints != tuple(row):  # 1.0 and True equal 1; 1.5, 7/2 and '3' equal no int
                raise ValueError("matrix entries must be integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tup)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("IntMatrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def _require_square(self):
        if self.rows != self.cols:
            raise NonSquareError(f"{self.rows}x{self.cols} matrix is not square")

    def charpoly(self) -> QPoly:
        """det(M - q*I) via the division-free Berkowitz algorithm.

        The constant term is det(M) and the leading coefficient is
        (-1)**dim.
        """
        self._require_square()
        n = self.rows
        if n == 0:
            return QPoly.one()
        a = self.entries
        # poly holds descending coefficients of det(lambda*I - M) for the
        # leading principal submatrix processed so far.
        poly: list[int] = [1, -a[0][0]]
        for i in range(1, n):
            row = a[i][:i]
            sub = a[:i]  # map(mul, r, v) stops at len(v) == i: the leading block
            s: list[int] = []
            v = [r[i] for r in sub]
            for t in range(i):
                s.append(sum(map(mul, row, v)))
                if t < i - 1:
                    v = [sum(map(mul, r, v)) for r in sub]
            toep = [1, -a[i][i]] + [-x for x in s]
            # new[r] = sum over c <= min(r, i) of toep[r - c] * poly[c]
            poly = [sum(map(mul, toep[r::-1], poly)) for r in range(i + 2)]
        sign = -1 if n % 2 else 1
        return QPoly([sign * poly[n - e] for e in range(n + 1)])

    def permanent(self) -> int:
        """Exact permanent by Glynn's formula (Glynn, Eur. J. Combin. 31,
        2010): 2**(n-1)*perm(A) is the sum over signs d with d[0] = +1 of
        d[0]*...*d[n-1] times the product over columns j of the column sum
        sum_i d[i]*a[i][j].

        The sum runs as a row transfer count (Stanley, EC1 §4.7).  Rows are
        filled top to bottom, row 0 with sign +1 and every later row with
        both signs.  A state is the tuple of partial sums of the open
        columns, those with a nonzero entry in a row still to come, and
        carries the signed weight of the sign prefixes that reach it.  At a
        column's last nonzero row its sum is final: it is multiplied into
        the weight and its coordinate dropped (the fold).  A zero sum ends
        the state, equal states merge, and a matrix with an all-zero column
        has permanent 0.

        Once the states outnumber 2**((n+1)//2), the signed sums of half
        the rows, the rows left are summed once by the same step without
        folding, and each state meets every such tail sum in one product
        of column sums (Glynn's sum met in the middle); a pair with a zero
        column sum is skipped.  All-ones matrices keep at most n states and
        leave no rows.  Since perm(A) = perm(A^T), the matrix is first
        transposed when its columns' last nonzero rows sum past its rows'
        last nonzero columns: a column is held from row 0 to its last
        nonzero row, so a band reaching far below the diagonal is filled
        by its columns and stays a pure transfer count.  Symmetric bands
        leave some rows: the 14x14 and 16x16 boards of B_7^(-7) and
        B_8^(-8) leave 3 and 5.

        So the cost is at most about 2**(n-1) products of n column sums,
        and far less when partial sums merge; MAX_PERMANENT_DIM guards
        against runaway inputs.
        """
        self._require_square()
        n = self.rows
        if n > MAX_PERMANENT_DIM:
            raise SizeLimitError(f"permanent of {n}x{n} exceeds bound {MAX_PERMANENT_DIM}")
        if n == 0:
            return 1
        a = self.entries
        # Fill along the side whose lines end sooner (see above).
        if _reach(zip(*a)) > _reach(a):
            a = tuple(zip(*a))
        last = []
        for j in range(n):
            rows = [i for i in range(n) if a[i][j]]
            if not rows:
                return 0
            last.append(rows[-1])
        # Columns in order of their last nonzero row, so the ones that fold
        # at a row are always a prefix of the state.
        cols = sorted(range(n), key=last.__getitem__)

        states = {(0,) * n: 1}
        signs = ((add, 1),)
        i = 0
        while i < n and len(states) <= 1 << (n + 1) // 2:
            close = last.count(i)
            states = _row_step(states, [a[i][j] for j in cols], close, signs)
            cols = cols[close:]
            signs = ((add, 1), (sub, -1))
            i += 1
        tails = {(0,) * len(cols): 1}
        for r in range(i, n):
            tails = _row_step(tails, [a[r][j] for j in cols], 0, signs)
        # Pair every state with every tail sum.  A pair whose column sums
        # hold a zero adds nothing: byte h of `dead` is 1 when state h meets
        # the tail in a zero sum, and compress() keeps the other states.  A
        # column's mask is built only for a value that some state holds.
        heads, weights = list(states), list(states.values())
        columns = list(zip(*heads))
        values = [set(c) for c in columns]
        ones = int.from_bytes(b"\1" * len(heads), "little")
        zero_at: dict = {}
        total = 0
        for tail, tw in tails.items():
            dead = 0
            for j, v in enumerate(tail):
                if -v in values[j]:
                    if (j, v) not in zero_at:
                        zero_at[j, v] = int.from_bytes(bytes(map((-v).__eq__, columns[j])), "little")
                    dead |= zero_at[j, v]
            live = (ones ^ dead).to_bytes(len(heads), "little")
            sums = map(map, repeat(add), compress(heads, live), repeat(tail))
            total += tw * sum(map(mul, compress(weights, live), map(prod, sums)))
        return total >> (n - 1)
