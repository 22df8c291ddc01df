"""Kernel tests: Laurent polynomials, rational functions, series, matrices."""

import random
import re
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpb import exactnum
from qpb.errors import NonSquareError, PoleError, SizeLimitError
from qpb.exactnum import MAX_PERMANENT_DIM, IntMatrix, QPoly, QRational, cyclotomic
from qpb.qkernels import q_stirling
from qpb.rook import Board
from reference_objects import from_terms, terms

small_polys = st.builds(
    QPoly,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
    st.integers(min_value=-3, max_value=3),
)


# ---------------------------------------------------------------------------
# QPoly
# ---------------------------------------------------------------------------

def test_mul_hand_expansion():
    assert QPoly([1, 1]) * QPoly([1, 1, 1]) == QPoly([1, 2, 2, 1])


def test_zero_is_absorbing():
    p = QPoly([3, -1, 2], -2)
    assert p * QPoly.zero() == QPoly.zero()
    assert QPoly.zero() * p == QPoly.zero()


def test_laurent_unit():
    assert QPoly.q(-1) * QPoly.q(1) == QPoly.one()


def test_pow_makes_one_square_per_bit_and_one_product_per_set_bit(monkeypatch):
    # p ** n for n >= 1 squares once per bit of n below the top one and
    # multiplies by p once per set bit below it: no square after the last
    # bit, and no product by one.
    p = QPoly([2, -1, 0, 3], -1)
    repeated = [QPoly.one()]
    for _ in range(8):
        repeated.append(repeated[-1] * p)
    products = []
    mul = QPoly.__mul__
    monkeypatch.setattr(QPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for n in range(65):
        products.clear()
        value = p ** n
        assert len(products) == (n.bit_length() + n.bit_count() - 2 if n else 0)
        if n <= 8:
            assert value == repeated[n]
    assert QPoly.zero() ** 0 == QPoly.one() and QPoly.zero() ** 3 == QPoly.zero()


def test_canonical_trim_and_zero_rep():
    assert QPoly([0, 0, 1, 0], min_exp=-1) == QPoly.q(1)
    z = QPoly([0, 0, 0], min_exp=5)
    assert z.min_exp == 0 and z.coeffs == ()
    assert z == QPoly.zero()


def test_str_formatting():
    assert str(QPoly([4, 3, 1])) == "4 + 3*q + q^2"
    assert str(QPoly([1, -3, 6, -7, 5, -1])) == "1 - 3*q + 6*q^2 - 7*q^3 + 5*q^4 - q^5"
    assert str(QPoly([1], -2)) == "q^-2"
    assert str(QPoly.zero()) == "0"


def _reference_str(p: QPoly) -> str:
    """QPoly's text form, written term by term with an explicit sign
    per term; str(p) renders the same text in one pass."""
    if p.is_zero:
        return "0"
    parts = []
    for e, c in terms(p):
        if e == 0:
            body = str(abs(c))
        else:
            qs = "q" if e == 1 else f"q^{e}"
            body = qs if abs(c) == 1 else f"{abs(c)}*{qs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# Coefficients: mostly 0 and +-1 (bare q, -q), some small, some past 64 bits.
render_coeffs = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-(2**90), max_value=2**90),
)


@pytest.mark.parametrize("p", [
    QPoly.zero(),
    QPoly([1, 1, 1], -1),
    QPoly([-1, -1, -1], -1),
    QPoly([-1, 1, -1], -1),
    QPoly([2**70, -(2**65) - 3, 1], -1),
    QPoly([-(2**64), 0, 0, 7], 2),
])
def test_str_matches_reference_renderer(p):
    assert str(p) == _reference_str(p)


@settings(max_examples=300)
@given(st.lists(render_coeffs, max_size=8), st.integers(min_value=-4, max_value=4))
def test_str_matches_reference_renderer_laurent(coeffs, min_exp):
    p = QPoly(coeffs, min_exp)
    assert str(p) == _reference_str(p)
    assert p.to_json_dict()["coeffs"] == [str(c) for c in p.coeffs]


def test_subs_inv_q_on_q_factorial_identity():
    # [3]! under q -> 1/q equals q^-3 [3]!  (binomial(3,2) = 3)
    fact3 = QPoly([1, 1]) * QPoly([1, 1, 1])
    assert fact3.subs_inv_q() == fact3.shift(-3)


def test_subs_neg_q():
    assert QPoly([1, 1]).subs_neg_q() == QPoly([1, -1])


def test_eval_at_one_matches_fubini_value():
    assert QPoly([4, 5, 3, 1]).at_one() == 13


def test_eval_at_zero_pole():
    with pytest.raises(PoleError):
        QPoly([1], -1).eval_rational(0)
    assert QPoly([7, 1]).eval_rational(0) == 7


def _fraction_horner(p: QPoly, v: Fraction) -> Fraction:
    """p at v by Horner's rule over Fractions, one Fraction per step;
    a negative power of v = 0 raises ZeroDivisionError."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc * v ** p.min_exp


rational_points = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=300)
@given(
    st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12), max_size=9),
    st.integers(min_value=-4, max_value=4),
    rational_points,
)
def test_eval_rational_matches_fraction_horner(coeffs, min_exp, v):
    p = QPoly(coeffs, min_exp)
    if v == 0 and p.min_exp < 0:
        with pytest.raises(PoleError):
            p.eval_rational(v)
    else:
        assert p.eval_rational(v) == _fraction_horner(p, v)


def test_exact_div_and_failure():
    num = QPoly([1, 2, 1])
    assert num.exact_div(QPoly([1, 1])) == QPoly([1, 1])
    with pytest.raises(ValueError):
        QPoly([1, 1, 1]).exact_div(QPoly([1, 1]))


@settings(max_examples=120)
@given(small_polys, small_polys, st.integers(min_value=1, max_value=7), st.integers(min_value=-2, max_value=2))
def test_exact_div_by_a_q_integer_matches_long_division(a, b, m, shift):
    # an all-ones divisor takes the running-sum route; long division by a
    # divisor with the same quotient, [m] * (1 + 2q), is the reference
    by = QPoly([1] * m, shift)
    assert (a * by).exact_div(by) == a
    c = a * by + b
    try:
        want = (c * QPoly([1, 2])).exact_div(by * QPoly([1, 2]))
    except ValueError:
        with pytest.raises(ValueError):
            c.exact_div(by)
    else:
        assert c.exact_div(by) == want


@settings(max_examples=80)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=80)
@given(small_polys)
def test_inv_q_is_involutive(p):
    assert p.subs_inv_q().subs_inv_q() == p


@settings(max_examples=50)
@given(small_polys, st.integers(min_value=-2, max_value=2))
def test_json_round_trip(p, shift):
    p = p.shift(shift)
    d = p.to_json_dict()
    assert d["var"] == "q"
    assert QPoly([int(c) for c in d["coeffs"]], d["min_exp"]) == p


# Multiplication has three paths (schoolbook, the all-ones window, Kronecker
# substitution); each is checked against this reference, which works on the
# coefficient tuples and never calls QPoly.__mul__.
def reference_product(a: QPoly, b: QPoly) -> QPoly:
    if a.is_zero or b.is_zero:
        return QPoly.zero()
    cs = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            cs[i + j] += x * y
    return QPoly(cs, a.min_exp + b.min_exp)


def assert_product(a: QPoly, b: QPoly) -> None:
    expected = reference_product(a, b)
    for got in (a * b, b * a):
        assert (got.min_exp, got.coeffs) == (expected.min_exp, expected.coeffs), (a, b)
        assert hash(got) == hash(expected)


def random_poly(rng: random.Random, length: int, bits: int, zeros: float = 0.0) -> QPoly:
    """Signed Laurent polynomial with nonzero ends, some inner zeros."""
    def coeff(inner: bool) -> int:
        if inner and rng.random() < zeros:
            return 0
        return rng.choice((1, -1)) * rng.randint(1, 2 ** bits)

    cs = [coeff(0 < i < length - 1) for i in range(length)]
    return QPoly(cs, rng.randint(-30, 30))


def test_mul_random_signed_operands_across_the_size_gate():
    rng = random.Random(2024)
    lengths = (1, 2, 3, 5, 7, 8, 11, 12, 15, 16, 17, 24, 31, 50, 97, 200)
    for _ in range(400):
        la, lb = rng.choice(lengths), rng.choice(lengths)
        bits = rng.choice((1, 8, 63, 64, 65, 130, 200))
        a = random_poly(rng, la, bits, rng.choice((0.0, 0.3)))
        b = random_poly(rng, lb, rng.choice((1, 64, 100)), rng.choice((0.0, 0.3)))
        assert_product(a, b)


def test_mul_extreme_coefficients_fill_the_digit_width():
    # Equal-sign coefficients of the largest size a bit length allows, at the
    # largest length a bit length allows, reach the bound on a product
    # coefficient that the packed digit width is sized from.
    for bits in (7, 8, 63, 64, 65, 127):
        top = 2 ** bits - 1
        for n in (15, 31, 63, 127):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                assert_product(QPoly([sa * top] * n), QPoly([sb * top] * n, -n))
            alternating = QPoly([top * (-1) ** i for i in range(n)], 3)
            assert_product(alternating, alternating)


def test_mul_sparse_short_and_all_ones_operands():
    rng = random.Random(7)
    others = [random_poly(rng, length, bits) for length in (1, 2, 5, 13, 40, 100)
              for bits in (3, 70)]
    others += [QPoly([5] + [0] * 28 + [-7], 4), QPoly.q(-9), QPoly.const(-(2 ** 80))]
    for m in range(1, 41):
        ones = QPoly([1] * m, rng.randint(-5, 5))
        assert_product(ones, ones)
        for p in others:
            assert_product(ones, p)
    # The cigler weight q**(n-1) + (m-1) against long dense rows.
    for n in (2, 20, 60):
        for m in (1, 2, 9):
            weight = QPoly.q(n - 1) + (m - 1)
            for length in (12, 60, 150):
                assert_product(weight, random_poly(rng, length, 90))
    for p in others:
        for c in (1, -1, 3, -(2 ** 70)):
            assert p * c == c * p == reference_product(p, QPoly.const(c))
        assert p * 1 is p
        assert (p * 0).is_zero


# The packed form: the value at q = 2**(8*width), read back digit by digit.
def assert_packed_round_trip(p: QPoly, width: int) -> None:
    value = p.packed(width)
    assert value == sum(c << (8 * width * e) for e, c in terms(p))
    back = QPoly.from_packed(value, width)
    assert (back.min_exp, back.coeffs) == (p.min_exp, p.coeffs)
    assert hash(back) == hash(p)


def test_packed_zero_polynomial():
    for width in (1, 2, 7):
        assert QPoly.zero().packed(width) == 0
        assert_packed_round_trip(QPoly.zero(), width)


def test_packed_positive_min_exp():
    # from_packed reads from the lowest nonzero digit, however far up; the
    # cigler coefficients (41 bits) need the widest digits
    for width in (1, 3, 9):
        for p in (QPoly.q(1), QPoly.q(13), QPoly([5, 0, 0, 2], 4), QPoly([1, 2, 3], 1),
                  QPoly.q(1176), QPoly([1, 0, 7], 600), q_stirling("cigler", 49, 2).shift(5)):
            if max(p.coeffs).bit_length() <= 8 * width:
                assert_packed_round_trip(p, width)


def test_packed_digit_at_the_top_of_the_width():
    for width in (1, 2, 8, 9):
        top = 2 ** (8 * width) - 1
        for p in (QPoly.const(top), QPoly([top] * 5), QPoly([top, 0, 1, top], 2), QPoly([1, top, 1], 3)):
            assert_packed_round_trip(p, width)


def test_signed_packed_round_trip():
    for width in (1, 2, 8, 9):
        top = 2 ** (8 * width - 1) - 1
        for p in (QPoly.zero(), QPoly.const(-1), QPoly([-top, top]), QPoly([top, 0, -top]),
                  QPoly([-3, 0, 0, -top], 2), QPoly([1, -1] * 4, 1)):
            value = p.packed(width)
            assert value == sum(c << (8 * width * e) for e, c in terms(p))
            back = QPoly.from_signed_packed(value, width)
            assert (back.min_exp, back.coeffs) == (p.min_exp, p.coeffs)


def test_packed_negative_exponent_raises():
    for p in (QPoly.q(-1), QPoly([1, 2, 3], -2), QPoly([4, 5], -7)):
        with pytest.raises(ValueError):
            p.packed(2)


# The packed pair: the values at q = 2**h and q = -2**h, h = 4*width bits.
def packed_pair(p: QPoly, width: int) -> tuple[int, int]:
    h = 4 * width
    return int(p.eval_rational(2 ** h)), int(p.eval_rational(-(2 ** h)))


def assert_packed_pair_round_trip(p: QPoly, width: int) -> None:
    back = QPoly.from_packed_pair(*packed_pair(p, width), width)
    assert (back.min_exp, back.coeffs) == (p.min_exp, p.coeffs)
    assert hash(back) == hash(p)


def smallest_width(p: QPoly) -> int:
    return max(max(p.coeffs, default=0).bit_length() + 7, 8) // 8


PAIR_CASES = [
    QPoly.zero(), QPoly.one(), QPoly.q(1), QPoly.q(7), QPoly.q(600),
    QPoly([3, 0, 5, 0, 9]),          # even coefficients only
    QPoly([3, 0, 5, 0, 9], 1),       # odd coefficients only
    QPoly([1, 2]), QPoly([1, 2, 3, 4], 2),     # top coefficient at an odd index
    QPoly([5, 0, 0, 2], 4), QPoly([1, 0, 7], 3),
    q_stirling("carlitz", 17, 9), q_stirling("cigler", 49, 2).shift(5),
]


@pytest.mark.parametrize("p", PAIR_CASES, ids=str)
def test_packed_pair_round_trip_at_the_smallest_width(p):
    # coefficients fill their top digit here, or reach the next byte below it
    for width in (smallest_width(p), smallest_width(p) + 1):
        assert_packed_pair_round_trip(p, width)


def test_packed_pair_digit_at_the_top_of_the_width():
    for width in (1, 2, 3, 8, 9):
        top = 2 ** (8 * width) - 1
        for p in (QPoly.const(top), QPoly([top] * 5), QPoly([top, 0, 1, top], 2),
                  QPoly([1, top, 1], 3), QPoly([top, top], 1), QPoly([0, top], 5)):
            assert_packed_pair_round_trip(p, width)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=12), st.integers(0, 9))
def test_packed_pair_of_a_sum_of_products(coeffs, shift):
    # The pair is a ring map on each side, so a sum of pairwise products
    # reads back as the polynomial sum of products, as in paired_table.
    p, r = QPoly(coeffs, shift), QPoly(coeffs[::-1], 1)
    total = p * r + r * r
    width = smallest_width(total)
    (pp, pm), (rp, rm) = packed_pair(p, width), packed_pair(r, width)
    assert QPoly.from_packed_pair(pp * rp + rp * rp, pm * rm + rm * rm, width) == total


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70), max_size=12),
    st.integers(min_value=-20, max_value=20),
    st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70), max_size=12),
    st.integers(min_value=-20, max_value=20),
)
def test_add_matches_termwise_sum(ca, ea, cb, eb):
    a, b = QPoly(ca, ea), QPoly(cb, eb)
    summed: dict[int, int] = {}
    for p in (a, b):
        for e, c in terms(p):
            summed[e] = summed.get(e, 0) + c
    expected = from_terms(summed)
    for got in (a + b, b + a):
        assert (got.min_exp, got.coeffs) == (expected.min_exp, expected.coeffs)
        assert hash(got) == hash(expected)
    assert a - a == QPoly.zero() and (a - b) + b == a


# ---------------------------------------------------------------------------
# QRational
# ---------------------------------------------------------------------------

# Denominators as qpb builds them: a nonzero integer c times q**s times a
# product of cyclotomic polynomials Phi_d, as the triple (c, s, {d: e}).
denominators = st.tuples(
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=0, max_value=3),
    st.dictionaries(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=2), max_size=3),
)


def _product(phis: dict) -> QPoly:
    return prod((cyclotomic(d) ** e for d, e in phis.items()), start=QPoly.one())


def den_poly(den: tuple) -> QPoly:
    """The denominator (c, s, {d: e}) as a polynomial."""
    c, s, phis = den
    return QPoly.q(s) * c * _product(phis)


def den_times(x: tuple, y: tuple) -> tuple:
    """The product of two denominators (c, s, {d: e})."""
    phis = dict(x[2])
    for d, e in y[2].items():
        phis[d] = phis.get(d, 0) + e
    return x[0] * y[0], x[1] + y[1], phis


def over(num: QPoly, den: tuple) -> QRational:
    """num / (c * q**s * the product of Phi_d**e): the map goes to the
    constructor, q**s to num, and c to a Fraction factor."""
    c, s, phis = den
    return QRational(num.shift(-s), phis) * Fraction(1, c)


def den_of(r: QRational) -> tuple:
    """r's denominator as (c, s, {d: e})."""
    return r.c, 0, r.phis


def assert_invariants(r: QRational) -> None:
    """c > 0, no integer content shared with num, no zero exponent, no
    Phi_d of the map dividing num, and den built from the parts."""
    assert r.c > 0
    assert gcd(r.c, *r.num.coeffs) == 1 or r.num.is_zero
    assert all(e > 0 for e in r.phis.values())
    for d in r.phis:
        with pytest.raises(ValueError):
            r.num.exact_div(cyclotomic(d))
    assert r.den == prod((cyclotomic(d) ** e for d, e in r.phis.items()), start=QPoly.const(r.c))


def test_qrational_normalization_unique():
    a = over(QPoly([0, 1, 1], -1), (2, 0, {2: 1}))  # (q^-1)(q + q^2) / (2 + 2q)
    b = QRational(QPoly([1])) * Fraction(1, 2)
    assert a == b
    assert hash(a) == hash(b)
    # from_int and from_fraction build their parts directly, as the
    # constructor and a Fraction factor would reduce them
    for built, reduced in ((QRational.from_int(0), QRational(QPoly.zero())),
                           (QRational.from_int(-4), QRational(QPoly.const(-4))),
                           (QRational.from_fraction(Fraction(-6, 4)), QRational(QPoly.const(-6)) * Fraction(1, 4))):
        assert (built.num, built.c, built.phis) == (reduced.num, reduced.c, reduced.phis)


def test_qrational_den_has_constant_term():
    r = over(QPoly.one(), (1, 1, {2: 1}))  # 1 / (q + q^2)
    assert r.den.min_exp == 0
    assert r.den.coeff(0) != 0
    assert r == QRational(QPoly([1], -1), {2: 1})


def test_qrational_sign_normalization():
    r = over(QPoly([1]), (-1, 0, {2: 1}))  # 1 / (-1 - q)
    assert r.den == QPoly([1, 1])
    assert r.num == QPoly([-1])


def test_qrational_arithmetic():
    half = QRational.from_fraction(Fraction(1, 2))
    third = QRational.from_fraction(Fraction(1, 3))
    assert (half + third).as_fraction() == Fraction(5, 6)
    assert QRational(QPoly.q(1), {2: 1}) + QRational(QPoly.one(), {2: 1}) == QRational.from_int(1)


def test_qrational_pow_negative():
    # a negative power is refused, as QPoly's is: its denominator would be
    # the numerator, so the caller gives the map instead
    r = QRational(QPoly([1, 1]))
    for x in (r, QRational(QPoly.one(), {2: 1}), QRational.from_int(0)):
        with pytest.raises(ValueError):
            x ** -2
    with pytest.raises(ValueError):
        QPoly([1, 1]) ** -2
    assert QRational(QPoly.one(), {2: 1}) ** 2 == QRational(QPoly.one(), {2: 2})


def test_qrational_as_qpoly():
    assert (QRational(QPoly([2, 2])) * Fraction(1, 2)).as_qpoly() == QPoly([1, 1])
    with pytest.raises(ValueError):
        QRational(QPoly([1]), {2: 1}).as_qpoly()


def test_a_denominator_is_only_a_map():
    # no polynomial is factored back into its Phi_d: a QPoly or an integer
    # denominator is refused, and there is no division
    for den in (QPoly([1, 1]), QPoly([2]), 2):
        with pytest.raises(TypeError):
            QRational(QPoly([1, 1]), den)
    x, y = QRational(QPoly([1, 1])), QRational(QPoly.one(), {2: 1})
    for divide in (lambda: x / y, lambda: 1 / x, lambda: x / 2):
        with pytest.raises(TypeError):
            divide()


def test_a_denominator_map_needs_d_at_least_one_and_no_negative_power():
    for phis in ({0: 1}, {-1: 2}, {2: -1}, {3: 1, 2: -1}):
        with pytest.raises(ValueError):
            QRational(QPoly([1, 2]), phis)


@settings(max_examples=40)
@given(small_polys, denominators)
def test_zero_powers_and_differences_leave_an_empty_map(a, b):
    x = over(a, b)
    for got, want in ((x ** 0, 1), (x - x, 0), (x * 0, 0), (0 * x, 0), (x + (-x), 0)):
        assert got.phis == {} and got.c == 1
        assert got == QRational.from_int(want)
        assert (got.num, got.den) == (QPoly.const(want), QPoly.one())


@settings(max_examples=150)
@given(small_polys, denominators, rational_points)
def test_qrational_eval_rational_matches_fraction_horner(a, den, v):
    # den's value is read from c and the Phi_d values; the reference
    # evaluates the built den.  Phi_1 vanishes at 1 and Phi_2 at -1.
    x = over(a, den)
    d = _fraction_horner(x.den, v)
    if d == 0 or (v == 0 and x.num.min_exp < 0):
        with pytest.raises(PoleError):
            x.eval_rational(v)
    else:
        assert x.eval_rational(v) == _fraction_horner(x.num, v) / d


def test_eval_at_a_root_of_a_denominator_phi_is_a_pole():
    for phis, root in (({1: 1}, 1), ({2: 3}, -1), ({2: 1, 3: 1}, -1)):
        with pytest.raises(PoleError):
            QRational(QPoly.one(), phis).eval_rational(root)
    assert QRational(QPoly.one(), {2: 1}).eval_rational(1) == Fraction(1, 2)


@settings(max_examples=60)
@given(small_polys, denominators, denominators)
def test_qrational_normal_form_unique(a, den, mult):
    # common factors never leak into the normal form
    direct = over(a, den)
    scaled = over(a * den_poly(mult), den_times(den, mult))
    assert direct == scaled
    assert direct.num == scaled.num and direct.den == scaled.den
    assert_invariants(direct)


@settings(max_examples=80)
@given(small_polys, denominators, denominators)
def test_qrational_cancels_any_common_factor(a, b, c):
    assert over(a * den_poly(c), den_times(b, c)) == over(a, b)


def test_factored_denominator_cancelling_and_coprime_cases():
    phi2, phi3, phi4 = cyclotomic(2), cyclotomic(3), cyclotomic(4)
    phis = {2: 3, 3: 1, 4: 2}
    den = _product(phis)
    # cancelling: two copies of phi2 and the one phi3 divide the numerator
    rest = QPoly([3, -1, 4], 1) * 6
    got = QRational(rest * phi2 ** 2 * phi3, phis)
    assert got.num == rest and got.c == 1
    assert got.den == phi2 * phi4 ** 2 and got.phis == {2: 1, 4: 2}
    # coprime: nothing divides, so the denominator is the whole product
    num = QPoly([5, 0, -2, 7], -2)
    got = QRational(num, phis)
    assert got.num == num
    assert got.den == den and got.phis == phis
    assert QRational(QPoly.zero(), phis) == QRational.from_int(0)
    assert QRational(QPoly.const(4), {}) == QRational.from_int(4)
    assert QRational(QPoly.const(4), {5: 0}).phis == {}


def test_factored_denominator_settles_the_sign_and_content():
    # over -3 * (q - 1)**2 * Phi_6: the sign goes to the numerator, and 3
    # leaves both parts
    got = over(QPoly([6, 12]), (-3, 0, {1: 2, 6: 1}))
    assert (got.num, got.c, got.phis) == (QPoly([-2, -4]), 1, {1: 2, 6: 1})
    assert got.den.coeffs[-1] > 0
    mapped = QRational(QPoly([-2, -4]), {1: 2, 6: 1})
    assert (mapped.num, mapped.den) == (got.num, got.den)


def test_factored_denominator_confirms_a_packed_coincidence():
    # num = 1 - q + q**2 - ... + q**256 has digits of one byte, so the packed
    # point is q = 256, and num(256) = (256**257 + 1) / 257 is a multiple of
    # 257 = Phi_2(256).  Yet Phi_2 = 1 + q does not divide num: num(-1) = 257.
    num = QPoly([(-1) ** i for i in range(257)])
    assert num.packed(1) % 257 == 0
    got = QRational(num, {2: 1})
    assert (got.num, got.den, got.phis) == (num, QPoly([1, 1]), {2: 1})


@settings(max_examples=80)
@given(
    small_polys,
    st.dictionaries(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=3), max_size=4),
    st.dictionaries(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=3), max_size=4),
)
def test_factored_denominator_matches_the_polynomial_form(a, shared, phis):
    # a times some of the factors (and others) over the factors: the same
    # value as the polynomial ratio, by cross multiplication, in normal form
    num = a * _product(shared)
    got = QRational(num, phis)
    assert got.num * _product(phis) == num * got.den
    assert_invariants(got)


def _sympy_parts(expr, q) -> tuple[QPoly, QPoly]:
    """(num, den) of expr in QRational's normal form, from sympy.cancel:
    integer coefficients with no common content, lc(den) > 0, and any power
    of q moved from den to num."""
    sympy = pytest.importorskip("sympy")
    polys = [sympy.Poly(p, q, domain="QQ") for p in sympy.fraction(sympy.cancel(expr))]
    coeffs = [p.all_coeffs()[::-1] for p in polys]
    scale = lcm(*(c.q for cs in coeffs for c in cs))
    num, den = ([int(c * scale) for c in cs] for cs in coeffs)
    g = gcd(*num, *den) * (1 if den[-1] > 0 else -1)
    num, den = [c // g for c in num], [c // g for c in den]
    s = next(i for i, c in enumerate(den) if c)
    return QPoly(num, -s), QPoly(den[s:])


@settings(max_examples=50, deadline=None)
@given(small_polys, denominators, st.one_of(small_polys, denominators.map(den_poly)), denominators,
       st.integers(min_value=0, max_value=3))
def test_qrational_matches_sympy_cancel(a, b, c, d, n):
    # an independent reference for the constructor and every operator
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def sym(p: QPoly):
        return sum((coef * q ** e for e, coef in terms(p)), sympy.Integer(0))

    x, y = over(a, b), over(c, d)
    xs, ys = sym(a) / sym(den_poly(b)), sym(c) / sym(den_poly(d))
    cases = [(x, xs), (y, ys), (x + y, xs + ys), (x - y, xs - ys), (x * y, xs * ys), (x ** n, xs ** n)]
    for got, expr in cases:
        assert_invariants(got)
        assert (got.num, got.den) == _sympy_parts(expr, q), (got, expr)


@settings(max_examples=40)
@given(small_polys, denominators, small_polys, denominators)
def test_qrational_field_axioms(a, b, c, d):
    x = over(a, b)
    y = over(c, d)
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x + y) * y == x * y + y * y


# The operators reduce over the operands' parts; the constructor, given the
# plain cross product's numerator and denominator map, is their reference.
PLANTED = (
    QPoly([1, 1]), QPoly([1, 1, 1]), QPoly([1, 0, 1]), QPoly.q(1),
    QPoly.const(2), QPoly.const(3), QPoly.const(-1), QPoly([2, 2]),
)


def planted_poly(rng: random.Random, laurent: bool) -> QPoly:
    """A small nonzero polynomial times up to two factors of PLANTED, so
    that operands share factors often."""
    p = QPoly()
    while p.is_zero:
        p = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))],
                  rng.randint(-2, 2) if laurent else 0)
    for _ in range(rng.randint(0, 2)):
        p = p * rng.choice(PLANTED)
    return p


def cyclotomic_den(rng: random.Random) -> tuple:
    """An integer times q**s times up to three Phi_d, d <= 8, some shared
    with PLANTED, as (c, s, {d: e})."""
    phis: dict[int, int] = {}
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(1, 8)
        phis[d] = phis.get(d, 0) + 1
    return rng.choice((1, 2, -3, 6)), rng.randint(0, 2), phis


def random_operand_pair(rng: random.Random) -> tuple[QRational, QRational]:
    def den() -> tuple:
        return (1, 0, {}) if rng.random() < 0.2 else cyclotomic_den(rng)

    def num() -> QPoly:
        # a numerator made of Phi_d, so that they can cancel, or any other
        return den_poly(cyclotomic_den(rng)) if rng.random() < 0.3 else planted_poly(rng, True)

    x = over(num(), den())
    shape = rng.randrange(7)
    if shape == 0:  # mostly equal denominators
        y = over(num(), den_of(x))
    elif shape == 1:  # denominators with a common factor
        y = over(num(), den_times(den_of(x), cyclotomic_den(rng)))
    elif shape == 2:  # zero results: x - x, x + (-x)
        y = rng.choice((x, -x))
    elif shape == 3:  # a polynomial operand
        y = QRational(num())
    elif shape == 4:  # y = z - x, so that x + y cancels x's denominator
        z = over(num(), den())
        y = over(z.num * x.den - x.num * z.den, den_times(den_of(z), den_of(x)))
    else:
        y = over(num(), den())
    return (x, y) if rng.random() < 0.5 else (y, x)


def normal_form(r: QRational) -> tuple:
    return r.num.min_exp, r.num.coeffs, r.den.min_exp, r.den.coeffs


def assert_ops_match_constructor(x: QRational, y: QRational) -> None:
    """The operators against the constructor on the cross products."""
    a, b, c, d = x.num, x.den, y.num, y.den
    bd = den_times(den_of(x), den_of(y))
    cases = [
        ("+", lambda: x + y, a * d + c * b, bd),
        ("-", lambda: x - y, a * d - c * b, bd),
        ("*", lambda: x * y, a * c, bd),
    ]
    for n in range(4):
        cases.append((f"**{n}", lambda n=n: x ** n, a ** n, (x.c ** n, 0, {e: f * n for e, f in x.phis.items()})))
    for op, got, num, den in cases:
        assert normal_form(got()) == normal_form(over(num, den)), (x, op, y)


def test_qrational_ops_match_constructor_on_cross_products():
    rng = random.Random(20261018)
    for _ in range(1500):
        assert_ops_match_constructor(*random_operand_pair(rng))


def test_qrational_ops_with_int_fraction_and_qpoly_operands():
    rng = random.Random(7)
    for _ in range(200):
        x, _ = random_operand_pair(rng)
        p = den_poly(cyclotomic_den(rng))
        k = rng.choice((-2, 3, 6))
        f = Fraction(rng.choice((-3, 2)), rng.choice((4, 9)))
        for other, y in ((p, QRational(p)), (k, QRational.from_int(k)), (f, QRational.from_fraction(f))):
            assert_ops_match_constructor(x, y)
            pairs = [(x + other, x + y), (other + x, y + x), (x - other, x - y),
                     (other - x, y - x), (x * other, x * y), (other * x, y * x)]
            for got, want in pairs:
                assert normal_form(got) == normal_form(want), (x, other)


def test_equal_values_hash_equal_across_types():
    half = QRational.from_fraction(Fraction(1, 2))
    values = [
        0, 1, 5, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(5),
        QPoly.zero(), QPoly.one(), QPoly.const(5), QPoly.const(-3), QPoly([1, 1]),
        QPoly.q(-1), QRational.from_int(0), QRational.from_int(5),
        QRational(QPoly([2, 2])) * Fraction(1, 2), half, half * 2,
        QRational(QPoly([-14])) * Fraction(1, 6), QRational(QPoly.q(-1)),
        QRational(QPoly([1, 1])) * Fraction(1, 2), QRational(QPoly([1, 1]), {2: 2}),
        QRational(QPoly.one(), {2: 1}), QRational(QPoly([-1, 0, 1]), {1: 1, 2: 2}),
    ]
    cross_type = 0
    for u in values:
        for v in values:
            if u == v:
                assert hash(u) == hash(v), (u, v)
                cross_type += type(u) is not type(v)
    assert cross_type == 34
    assert len({QPoly.const(5), 5, QRational.from_int(5), Fraction(5)}) == 1
    assert QPoly.const(5) == Fraction(5) and Fraction(5) == QPoly.const(5)
    assert QPoly.const(1) != Fraction(1, 2) and Fraction(1, 2) != QPoly.const(1)


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------

def test_charpoly_identity_and_zero():
    assert IntMatrix([[1, 0], [0, 1]]).charpoly() == QPoly([1, -2, 1])
    assert IntMatrix([[0] * 3 for _ in range(3)]).charpoly() == QPoly([0, 0, 0, -1])


def test_charpoly_leading_and_constant():
    m = IntMatrix([[1, 2, 0], [0, 3, 1], [5, 0, 1]])
    p = m.charpoly()
    assert p.coeff(3) == -1
    assert p.coeff(0) == _det_by_expansion(m) == 13


def _det_by_expansion(m: IntMatrix) -> int:
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m.entries[i][perm[i]]
        total += sign * prod
    return total


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_charpoly_at_zero_is_independent_det(n, data):
    rows = [
        [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(n)]
        for _ in range(n)
    ]
    m = IntMatrix(rows)
    assert m.charpoly().eval_rational(0) == _det_by_expansion(m)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_charpoly_at_small_points_is_det_of_shifted_matrix(n, data):
    # charpoly is det(M - q*I), so at q = t it is the determinant of M - t*I
    rows = [
        [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(n)]
        for _ in range(n)
    ]
    p = IntMatrix(rows).charpoly()
    for t in (1, 2, 3):
        shifted = IntMatrix([[v - t * (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)])
        assert p.eval_rational(t) == _det_by_expansion(shifted)


def test_charpoly_rejects_non_square():
    with pytest.raises(NonSquareError):
        IntMatrix([[1, 2]]).charpoly()
    with pytest.raises(NonSquareError):
        IntMatrix([[1, 2]]).permanent()


@pytest.mark.parametrize("entry", [1.5, Fraction(7, 2), "3", -0.5])
def test_int_matrix_rejects_inexact_entries(entry):
    with pytest.raises(ValueError):
        IntMatrix([[1, entry], [0, 1]])


def test_int_matrix_converts_integral_entries():
    # a board's cells of 1.0 and True are the integer 1
    assert IntMatrix([[1.0, True], [Fraction(4, 2), 0]]) == IntMatrix([[1, 1], [2, 0]])
    assert Board(((1.0, True), (True, 1))).to_int_matrix().permanent() == 2


def test_permanent_small_cases():
    assert IntMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)]).permanent() == 1
    assert IntMatrix([[1] * 3 for _ in range(3)]).permanent() == 6
    assert IntMatrix([[1, 2], [3, 4]]).permanent() == 10


def test_permanent_of_permutation_matrices():
    for sigma in permutations(range(4)):
        m = IntMatrix([[1 if j == sigma[i] else 0 for j in range(4)] for i in range(4)])
        assert m.permanent() == 1


def test_permanent_bound():
    assert MAX_PERMANENT_DIM == 20
    with pytest.raises(SizeLimitError, match="permanent of 21x21 exceeds bound 20"):
        IntMatrix([[1 if i == j else 0 for j in range(21)] for i in range(21)]).permanent()


def _permanent_by_expansion(m: IntMatrix) -> int:
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m.entries[i][perm[i]]
        total += prod
    return total


def test_permanent_matches_expansion_with_signed_entries():
    rng = random.Random(2010)
    cases = [[[-1]], [[0]]]
    for d in range(2, 7):
        # alternating row signs: at even d every column sum starts at 0
        cases.append([[(-1) ** i] * d for i in range(d)])
        for _ in range(15):
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d - 1)]
            # a last row that cancels the column sums of the others
            cases.append(rows + [[-sum(col) for col in zip(*rows)]])
            # entries in {-1, 0, 1}, whose column sums often cancel under a sign flip
            cases.append([[rng.choice((-1, 0, 1)) for _ in range(d)] for _ in range(d)])
    values = set()
    for rows in cases:
        m = IntMatrix(rows)
        expected = _permanent_by_expansion(m)
        assert m.permanent() == expected, rows
        values.add(expected)
    assert min(values) < 0 < max(values)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_permanent_matches_expansion_and_permutation_invariance(n, data):
    rows = [
        [data.draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
        for _ in range(n)
    ]
    m = IntMatrix(rows)
    expected = _permanent_by_expansion(m)
    assert m.permanent() == expected
    sigma = data.draw(st.permutations(list(range(n))))
    row_shuffled = IntMatrix([rows[sigma[i]] for i in range(n)])
    assert row_shuffled.permanent() == expected
    col_shuffled = IntMatrix([[row[sigma[j]] for j in range(n)] for row in rows])
    assert col_shuffled.permanent() == expected
    transposed = IntMatrix([[rows[i][j] for i in range(n)] for j in range(n)])
    assert transposed.permanent() == expected


def _permanent_by_laplace(rows) -> int:
    """Laplace expansion along the rows, memoised on the set of used columns."""
    n = len(rows)
    memo: dict[int, int] = {}

    def expand(used: int) -> int:
        i = used.bit_count()
        if i == n:
            return 1
        if used not in memo:
            memo[used] = sum(
                v * expand(used | 1 << j) for j, v in enumerate(rows[i]) if v and not used >> j & 1
            )
        return memo[used]

    return expand(0)


def test_permanent_transfer_count_matches_laplace(monkeypatch):
    rng = random.Random(74)
    cases = []
    for d in range(7, 13):
        for low in (1, d // 2, d - 2):
            # band board: cell (i, j) iff -(d - low) <= i - j <= low
            cases.append(("band", [[int(low - d <= i - j <= low) for j in range(d)] for i in range(d)]))
        cases.append(("ones", [[1] * d for _ in range(d)]))
        for p in (0.5, 0.9):
            cases.append(("random01", [[int(rng.random() < p) for _ in range(d)] for _ in range(d)]))
        cases.append(("signed", [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]))
    big = [[rng.randint(-(10**30), 10**30) for _ in range(9)] for _ in range(9)]
    cases.append(("big", big))
    zero_col = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]
    for row in zero_col:
        row[5] = 0
    zero_row = [[rng.randint(1, 3) for _ in range(8)] for _ in range(8)]
    zero_row[3] = [0] * 8
    cases += [("zero", zero_col), ("zero", zero_row)]

    # Each transfer step takes the previous step's states; the rows left to
    # the pairing start again from one fresh state, so a second call on a
    # dict that no step returned marks a matrix that reached the pairing.
    fresh: list[bool] = []
    previous: list = [None]
    step = exactnum._row_step

    def watching_step(states, *args):
        fresh.append(states is not previous[0])
        previous[0] = step(states, *args)
        return previous[0]

    monkeypatch.setattr(exactnum, "_row_step", watching_step)
    paired = {}
    for kind, rows in cases:
        fresh.clear()
        assert IntMatrix(rows).permanent() == _permanent_by_laplace(rows), (kind, rows)
        paired.setdefault(kind, set()).add(sum(fresh) > 1)
    # Both ends are covered: all-ones matrices and the narrow-below bands
    # finish as a pure transfer count, the other kinds reach the pairing.
    assert paired["ones"] == {False}
    assert paired["band"] == {False, True}
    assert True in paired["random01"] and True in paired["signed"] and paired["big"] == {True}
    assert _permanent_by_laplace(big) != 0


def test_permanent_band_orientations_agree_and_reach_below_needs_no_pairing(monkeypatch):
    # As in the Laplace test: a second call on a dict that no step returned
    # marks a matrix whose rows reached the pairing.
    fresh: list[bool] = []
    previous: list = [None]
    step = exactnum._row_step

    def watching_step(states, *args):
        fresh.append(states is not previous[0])
        previous[0] = step(states, *args)
        return previous[0]

    monkeypatch.setattr(exactnum, "_row_step", watching_step)
    for d in range(7, 21):
        for below in (d - 1, d - 2, d // 2, 1):
            # cell (i, j) iff -1 <= i - j <= below: the band reaches `below`
            # rows below the diagonal and one above
            rows = [[int(-1 <= i - j <= below) for j in range(d)] for i in range(d)]
            transposed = [list(col) for col in zip(*rows)]
            rotated = [row[::-1] for row in rows[::-1]]
            values = []
            for m in (rows, transposed, rotated):
                fresh.clear()
                values.append(IntMatrix(m).permanent())
                # every orientation of a band one wide above (or below) the
                # diagonal finishes as a pure transfer count
                assert sum(fresh) == 1, (d, below)
            assert len(set(values)) == 1, (d, below)
            if d <= 10:
                assert values[0] == _permanent_by_laplace(rows), (d, below)
