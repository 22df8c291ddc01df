"""q-kernel tests, each derived value frozen from an independent oracle."""

import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest

from qpb import exactnum, qkernels
from qpb.exactnum import QPoly, QRational, TruncatedSeries
from qpb.qkernels import (
    STIRLING_VARIANTS,
    cyclotomic,
    q_binomial,
    q_exponential,
    q_factorial,
    q_int,
    q_ring_at,
    q_stirling,
    q_stirling_at,
    s2_inv_q,
    s2_q,
    stirling2,
    surjections,
)
from reference_objects import from_terms, gen_set_partitions, inv_star, stirling_columns


def test_cyclotomic_factors_q_power_minus_one():
    for j in range(1, 41):
        divisors = [d for d in range(1, j + 1) if j % d == 0]
        assert prod(map(cyclotomic, divisors), start=QPoly.one()) == QPoly.q(j) - 1


def test_cyclotomic_degree_and_primes():
    for d in range(1, 41):
        phi = cyclotomic(d)
        assert phi.min_exp == 0 and phi.coeffs[-1] == 1
        assert phi.max_exp == sum(gcd(d, i) == 1 for i in range(1, d + 1))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert cyclotomic(p) == q_int(p)
    assert cyclotomic(1) == QPoly([-1, 1])
    assert cyclotomic(12) == QPoly([1, 0, -1, 0, 1])
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_q_int_and_factorial_basics():
    assert q_int(0) == QPoly.zero()
    assert q_int(3) == QPoly([1, 1, 1])
    assert q_factorial(0) == QPoly.one()
    assert q_factorial(3) == QPoly([1, 1]) * QPoly([1, 1, 1])
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_binomial_frozen_value():
    assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
    with pytest.raises(ValueError):
        q_binomial(3, 4)


def test_q_binomial_against_pascal_recurrence():
    # independent oracle: [n k] = [n-1 k-1] + q^k [n-1 k]
    table = {(0, 0): QPoly.one()}
    for n in range(1, 9):
        for k in range(n + 1):
            left = table.get((n - 1, k - 1), QPoly.zero())
            right = table.get((n - 1, k), QPoly.zero())
            table[(n, k)] = left + QPoly.q(k) * right
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k) == table[(n, k)]


def _carlitz_oracle(n, m):
    counts = {}
    for part in gen_set_partitions(list(range(1, n + 1))):
        if len(part) == m:
            w = inv_star(part)
            counts[w] = counts.get(w, 0) + 1
    return from_terms(counts)


def _cigler_oracle(n, m):
    counts = {}
    for part in gen_set_partitions(list(range(n))):
        if len(part) == m:
            zero_block = next((b for b in part if 0 in b), ())
            w = sum(zero_block)
            counts[w] = counts.get(w, 0) + 1
    return from_terms(counts)


def test_carlitz_frozen_example():
    assert q_stirling("carlitz", 3, 2) == QPoly([2, 1])


def test_cigler_frozen_example():
    assert q_stirling("cigler", 3, 2) == QPoly([1, 1, 1])


def test_shifted_frozen_example():
    assert q_stirling("shifted", 2, 2) == QPoly.q(1)


def test_carlitz_matches_partition_inversions():
    for n in range(8):
        for m in range(n + 2):
            assert q_stirling("carlitz", n, m) == _carlitz_oracle(n, m)


def test_cigler_matches_zero_block_weight():
    for n in range(8):
        for m in range(n + 2):
            assert q_stirling("cigler", n, m) == _cigler_oracle(n, m)


def test_cigler_zero_block_split():
    # Element 0's block takes i of the elements 1..n, weighted over the
    # i-sets by q**C(i+1, 2) * [n choose i]; the rest form m plain blocks.
    # paired_table builds lonesum_q tables from this split.
    for n in range(13):
        for m in range(n + 1):
            split = sum((QPoly.q(comb(i + 1, 2)) * q_binomial(n, i) * stirling2(n - i, m) for i in range(n + 1)),
                        QPoly.zero())
            assert q_stirling("cigler", n + 1, m + 1) == split


def test_shifted_is_graded_carlitz():
    for n in range(9):
        for k in range(n + 1):
            assert q_stirling("shifted", n, k) == QPoly.q(comb(k, 2)) * q_stirling("carlitz", n, k)


def test_stirling2_matches_explicit_sum():
    # independent of the row recurrence: k! S(n,k) = sum_j (-1)^(k-j) C(k,j) j^n
    for n in range(50):
        for k in range(n + 2):
            alternating = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
            assert factorial(k) * stirling2(n, k) == alternating


def test_row_kernel_matches_the_column_recurrence():
    # Every entry for n <= 40, then whole rows and columns up to n = 300:
    # tall (m small), wide (m = n) and past the diagonal.
    cols = stirling_columns(302, 302)

    def S(n, m):
        return cols[m][n - m] if m <= n else 0

    for n in range(41):
        for m in range(n + 3):
            assert stirling2(n, m) == S(n, m)
        assert surjections(n, n + 2) == [factorial(m) * S(n, m) for m in range(n + 3)]
    for n in (150, 299, 300):
        for top in (0, 1, 7, n // 2, n, n + 2):
            assert surjections(n, top) == [factorial(m) * S(n, m) for m in range(top + 1)]
    for m in (0, 1, 2, 3, 150, 300, 301):
        assert stirling2(300, m) == S(300, m)
    # s2_q reads column j of the triangle, rows j..n
    for n, j in ((40, 3), (40, 20), (40, 40)):
        assert s2_q(n, j) == sum((QPoly.q(n - i) * (comb(n, i) * S(i, j)) for i in range(j, n + 1)),
                                 QPoly.zero())
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            surjections(*bad)
        with pytest.raises(ValueError):
            stirling2(*bad)


def test_all_variants_collapse_to_classical():
    for variant in ("carlitz", "cigler", "shifted"):
        for n in range(31):
            for m in range(n + 1):
                assert q_stirling(variant, n, m).at_one() == stirling2(n, m)


def test_out_of_triangle_is_zero():
    assert q_stirling("carlitz", 2, 5) == QPoly.zero()
    with pytest.raises(ValueError):
        q_stirling("carlitz", -1, 0)
    with pytest.raises(ValueError):
        q_stirling("weird", 2, 1)


def test_s2_q_values():
    assert s2_q(2, 1) == QPoly([1, 2])
    for n in range(7):
        assert s2_q(n, n) == QPoly.one()
        for j in range(n + 1):
            assert s2_q(n, j).eval_rational(0) == stirling2(n, j)


def test_s2_inv_q_base_case():
    assert s2_inv_q(0, 0) == QRational(QPoly.q(-1))


def test_s2_inv_q_collapses_to_classical_at_one():
    for j in range(4):
        for n in range(j, 8):
            assert s2_inv_q(n, j).eval_rational(1) == stirling2(n + 1, j + 1)


def test_s2_inv_q_matches_generating_function():
    # oracle: expand (u*e^t - 1)^j * u*e^t / j! symbolically with u = q^-1
    order = 6
    u = QRational(QPoly.q(-1))
    one = QRational.from_int(1)
    zero = QRational.from_int(0)
    exp_t = TruncatedSeries(
        [QRational.from_fraction(Fraction(1, factorial(i))) for i in range(order + 1)]
    )
    for j in range(4):
        base = exp_t * u - TruncatedSeries([one] + [zero] * order)
        prod = TruncatedSeries([one] + [zero] * order)
        for _ in range(j):
            prod = prod * base
        egf = prod * exp_t * (u * Fraction(1, factorial(j)))
        for n in range(order + 1):
            assert egf.coefficient(n) * factorial(n) == s2_inv_q(n, j)


def test_q_exponential_coefficients():
    e = q_exponential(QPoly.one(), 4)
    assert e.coefficient(0) == QRational.from_int(1)
    assert e.coefficient(2) == QRational(QPoly.one(), {2: 1})  # 1 / [2]!
    for k in range(5):
        assert e.coefficient(k).eval_rational(1) == Fraction(1, factorial(k))
    zero_arg = q_exponential(QPoly.zero(), 3)
    assert zero_arg.coefficient(0) == QRational.from_int(1)
    assert all(zero_arg.coefficient(k).is_zero for k in range(1, 4))


def test_ernst_polynomial_identity():
    # sum_i [m i] (-1)^i q^C(i,2) [m-i]^n == [m]! q^C(m,2) {n,m}_q
    for m in range(5):
        for n in range(9):
            lhs = QPoly.zero()
            for i in range(m + 1):
                term = q_binomial(m, i) * QPoly.q(comb(i, 2)) * (q_int(m - i) ** n)
                lhs = lhs + (term if i % 2 == 0 else -term)
            rhs = q_factorial(m) * QPoly.q(comb(m, 2)) * q_stirling("carlitz", n, m)
            assert lhs == rhs


def _fresh_memo_tables(monkeypatch):
    # Each triangle starts as its column 0 holding T(0, 0).  The Phi_d memo
    # lives in exactnum, beside QRational, its one structural user.
    monkeypatch.setattr(qkernels, "_q_factorials", [QPoly.one()])
    monkeypatch.setattr(
        qkernels, "_stirling_tables", {v: [[QPoly.one()]] for v in STIRLING_VARIANTS}
    )
    monkeypatch.setattr(exactnum, "_cyclotomics", [QPoly((-1, 1))])


def _grow_all(top):
    # (top, 1) first, so the sweep below extends columns that already exist.
    for variant in STIRLING_VARIANTS:
        q_stirling(variant, top, 1)
    for n in range(top + 1):
        q_factorial(n)
        cyclotomic(n + 1)
        for variant in STIRLING_VARIANTS:
            q_stirling(variant, n, n // 2)


def _memo_snapshot():
    # Columns keep growing after the snapshot, so copy each one.
    return (
        list(qkernels._q_factorials),
        {v: [list(col) for col in cols] for v, cols in qkernels._stirling_tables.items()},
        list(exactnum._cyclotomics),
    )


def test_memo_growth_is_thread_safe(monkeypatch):
    top = 24
    _fresh_memo_tables(monkeypatch)
    _grow_all(top)
    expected = _memo_snapshot()
    for _ in range(5):
        _fresh_memo_tables(monkeypatch)
        start = threading.Barrier(4)
        errors = []

        def worker():
            try:
                start.wait(timeout=10)
                _grow_all(top)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert _memo_snapshot() == expected


def test_column_memo_builds_only_the_requested_columns(monkeypatch):
    _fresh_memo_tables(monkeypatch)
    for variant in STIRLING_VARIANTS:
        q_stirling(variant, 49, 2)
        # columns 0..2, each to index 49 - 2
        assert [len(col) for col in qkernels._stirling_tables[variant]] == [48, 48, 48]


def _row_recurrence_tables(top):
    """Every variant's triangle to row top by the row recurrence, as dicts."""
    weights = {
        "carlitz": lambda n, m: (1, q_int(m)),
        "cigler": lambda n, m: (1, QPoly.q(n - 1) + (m - 1)),
        "shifted": lambda n, m: (QPoly.q(m - 1), q_int(m)),
    }
    tables = {}
    for name, weight in weights.items():
        zero = QPoly.zero()
        t = {(0, 0): QPoly.one()}
        for n in range(1, top + 1):
            t[(n, 0)] = zero
            for m in range(1, n + 1):
                a, b = weight(n, m)
                t[(n, m)] = a * t[(n - 1, m - 1)] + b * t.get((n - 1, m), zero)
        tables[name] = t
    return tables


def test_column_memo_matches_row_recurrence_in_any_order(monkeypatch):
    top = 30
    tables = _row_recurrence_tables(top)
    cells = [(n, m) for n in range(top + 1) for m in range(n + 1)]
    shuffled = list(cells)
    random.Random(1009).shuffle(shuffled)
    decreasing = sorted(cells, key=lambda c: (-c[0], c[1]))
    for order in (shuffled, decreasing):
        _fresh_memo_tables(monkeypatch)
        for n, m in order:
            for variant in STIRLING_VARIANTS:
                assert q_stirling(variant, n, m) == tables[variant][(n, m)]


@pytest.mark.parametrize("x", [1, -1, 2, -2, 2 ** 5, -(2 ** 5), 2 ** 40])
def test_stirling_triangle_at_a_point_is_the_memo_triangle_evaluated(x):
    # q_stirling_at runs the same recurrence on the integers at q = x, so
    # each entry is the memoised QPoly evaluated at x, for every variant
    # (shifted included, which no table reads) and at q = 1 stirling2.
    n, m = 14, 9
    for variant in STIRLING_VARIANTS:
        cols = q_stirling_at(variant, x, n, m)
        assert [len(col) for col in cols] == [n + 1 - j for j in range(m + 1)]
        for j, col in enumerate(cols):
            for i, value in enumerate(col):
                assert value == q_stirling(variant, j + i, j).eval_rational(x)
                if x == 1:
                    assert value == stirling2(j + i, j)
    assert len(q_stirling_at("cigler", x, 3, 7)) == 4
    times, bracket = q_ring_at(x)
    assert [bracket(j) for j in range(6)] == [q_int(j).eval_rational(x) for j in range(6)]
    assert times(3, 5) == 3 * x ** 5


@pytest.mark.parametrize("x", [0, 3, -6, 12])
def test_ring_at_a_point_needs_a_power_of_two(x):
    with pytest.raises(ValueError):
        q_ring_at(x)
    with pytest.raises(ValueError):
        q_stirling_at("carlitz", x, 4, 2)
