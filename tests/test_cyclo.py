"""Exact cyclotomic arithmetic: constructors, field axioms, roots, embedding."""

import cmath
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring import cyclo
from fusionring.mdf import MAX_ORDER
from fusionring.cyclo import (Cyclotomic, InconsistentSystemError,
                              UnderdeterminedError, conj, eliminate, embed,
                              exact_sum, format_exact, galois, inverse, is_real,
                              root_of_unity, sqrt_int, weighted_sum)

ORDERS = [1, 3, 4, 5, 7, 8, 9, 12, 16, 20, 24]


def elements(max_terms=3):
    """Random exact elements with small support and small coefficients."""
    def build(order, picks):
        total = Cyclotomic.zero()
        for e, num, den in picks:
            total = total + root_of_unity(order, e % order) * Fraction(num, den)
        return total

    return st.builds(
        build,
        st.sampled_from(ORDERS),
        st.lists(st.tuples(st.integers(0, 23), st.integers(-4, 4),
                           st.integers(1, 4)), min_size=0, max_size=max_terms))


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert abs(embed(root_of_unity(4, 1)) - 1j) < 1e-12
    assert root_of_unity(8, 1) * root_of_unity(8, 7) == 1
    with pytest.raises(ValueError):
        root_of_unity(0)


def test_every_root_embeds_correctly():
    for n in range(1, 40):
        for e in range(n):
            value = root_of_unity(n, e)
            assert abs(embed(value) - cmath.exp(2j * cmath.pi * e / n)) < 1e-10


def test_sqrt2_squares_to_two():
    s2 = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert s2 * s2 == 2
    assert sqrt_int(2) == s2


def test_w_symbol_embedding():
    # (4/3)(zeta_18 + zeta_18^17); the float oracle is (8/3)cos(pi/9).
    w1 = (root_of_unity(18, 1) + root_of_unity(18, 17)) * Fraction(4, 3)
    assert abs(embed(w1) - (8 / 3) * math.cos(math.pi / 9)) < 1e-12


def test_additive_identity_random():
    x = root_of_unity(9, 2) * Fraction(5, 3) - root_of_unity(7, 1)
    assert x + Cyclotomic.zero() == x
    assert x - x == 0


def test_inverse_examples():
    assert inverse(Cyclotomic.from_rational(2)) == Fraction(1, 2)
    assert inverse(root_of_unity(8, 1)) == root_of_unity(8, 7)
    y = Cyclotomic.one() + root_of_unity(4, 1)
    assert inverse(y) * y == 1
    with pytest.raises(ZeroDivisionError):
        inverse(Cyclotomic.zero())


def test_inverse_dense_fallback():
    t = root_of_unity(5, 1) + root_of_unity(7, 3) * 2 + Fraction(1, 2)
    assert inverse(t) * t == 1


def test_inverse_dense_fallback_where_one_is_not_a_basis_root():
    # At order 9 the canonical form of 1 is -zeta^3 - zeta^6.
    t = root_of_unity(9, 1) + 2
    assert (t * conj(t)).order != 1
    assert inverse(t) * t == 1
    assert inverse(t).order == 9


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), st.integers(2, 200))
def test_galois_is_a_ring_homomorphism(a, b, start):
    n = math.lcm(a.order, b.order)
    k = next(k for k in range(start, start + n + 1) if math.gcd(k, n) == 1)
    assert galois(a + b, k) == galois(a, k) + galois(b, k)
    assert galois(a * b, k) == galois(a, k) * galois(b, k)
    assert galois(a, 1) == a
    assert galois(a, -1) == conj(a)


def test_galois_needs_a_unit():
    with pytest.raises(ValueError):
        galois(root_of_unity(12, 1), 3)


def su2_vacuum_entry(k):
    """S[0,0] = sqrt(2/(k+2)) sin(pi/(k+2)) of su(2)_k."""
    h = k + 2
    sine = (root_of_unity(2 * h, 1) - root_of_unity(2 * h, -1)) * root_of_unity(4, 3)
    return sqrt_int(2) * inverse(sqrt_int(h)) * sine * Fraction(1, 2)


@pytest.mark.parametrize("k", range(18, 33))
def test_inverse_su2_vacuum_entry(k):
    # S[0,0] is real but a * conj(a) = a^2 is not rational, so the inverse
    # takes the norm of the real subfield.
    a = su2_vacuum_entry(k)
    assert inverse(a) * a == 1


@pytest.mark.parametrize("k, products", [(24, 10), (32, 14)])
def test_inverse_of_a_real_element_uses_half_the_units(monkeypatch, k, products):
    # S[0,0] lies at order 13 (k = 24) or 17 (k = 32): the units 2..6 or 2..8
    # give the real norm, one product each, plus one product per conjugate
    # collected and one to scale by the norm.
    a = su2_vacuum_entry(k)
    calls = []
    mul = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    inv = inverse(a)
    assert len(calls) == products
    monkeypatch.undo()
    assert inv * a == 1


def test_every_root_has_unit_basis_coefficients():
    # The Verlinde certificate bounds every basis coefficient of a sum in
    # Z[C_N] by its l1 norm, which needs this for each zeta_N^e.
    for n in range(1, 300):
        if n % 4 == 2:
            continue
        for e in range(n):
            assert set(cyclo._reduce_terms(n, {e: 1}).values()) <= {-1, 1}, (n, e)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from([45045, 60060, 65520, 65521, 65536]),
                 st.integers(1, MAX_ORDER).filter(lambda n: n % 4 != 2)),
       st.data())
def test_every_root_has_unit_basis_coefficients_up_to_the_parser_cap(n, data):
    # The image certificates rely on the same lemma at every order a datum
    # file can name.
    e = data.draw(st.integers(0, n - 1))
    assert set(cyclo._reduce_terms(n, {e: 1}).values()) <= {-1, 1}


@pytest.mark.parametrize("order", [60, 104, 288])
def test_inverse_random_dense_elements(order):
    rng = random.Random(order)
    a = Cyclotomic(order, {rng.randrange(order): Fraction(rng.randint(1, 5), rng.randint(1, 3))
                           for _ in range(8)})
    assert a.order == order
    assert inverse(a) * a == 1


def test_inverse_of_a_root_costs_two_products(monkeypatch):
    # The units of a huge order are enumerated lazily: zeta * conj(zeta) = 1
    # ends the search after one product, and scaling by 1/1 is the second.
    root = root_of_unity(1000003)
    calls = []
    mul = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    assert inverse(root) == root_of_unity(1000003, -1)
    assert len(calls) <= 2


def test_eliminate_rational_system():
    rows = [({"x": 1, "y": 1, "z": 1}, Fraction(6), ("a",)),
            ({"y": 2, "z": Fraction(1, 2), "x": 0}, Fraction(11, 2), ("b",)),
            ({"x": 1, "z": -1}, Fraction(-2), ("c",)),
            ({"x": 2, "y": 2, "z": 2}, Fraction(12), ("d",))]
    solution = eliminate(rows, ["x", "y", "z"])
    assert solution == {"x": 1, "y": 2, "z": 3}
    assert all(type(value) is Fraction for value in solution.values())
    assert eliminate([], []) == {}
    # Integer coefficients are inverted exactly, never as floats.
    solution = eliminate([({"x": 3, "y": 1}, Fraction(1), ("a",)), ({"y": 7}, 1, ("b",))],
                         ["x", "y"])
    assert solution == {"x": Fraction(2, 7), "y": Fraction(1, 7)}
    assert all(type(value) is Fraction for value in solution.values())


def test_eliminate_cyclotomic_rhs_with_rational_coefficients():
    w = root_of_unity(5, 2)
    rows = [({0: Fraction(2), 1: Fraction(1)}, w * 3, ("a",)),
            ({1: Fraction(1, 3)}, w, ("b",))]
    assert eliminate(rows, [0, 1]) == {0: Cyclotomic.zero(), 1: w * 3}


def test_eliminate_certificate_merges_labels():
    rows = [({"x": 1, "y": 1}, Fraction(1), ("a",)),
            ({"x": 1, "y": -1}, Fraction(0), ("b",)),
            ({"z": 1}, Fraction(5), ("e",)),
            ({"x": 2}, Fraction(3), ("c",))]
    with pytest.raises(InconsistentSystemError) as info:
        eliminate(rows, ["x", "y", "z"])
    assert info.value.certificate == ["a", "b", "c"]
    assert info.value.residual == 2


@pytest.mark.parametrize("rows, certificate, residual", [
    # The pivot on x already gives d: 0 = 5, so d is reported, not the
    # earlier row c, which only the later pivot on y zeroes (0 = 4).
    ([({"x": 1, "y": 1}, 2, ("a",)), ({"y": 1}, 1, ("b",)),
      ({"y": 1}, 5, ("c",)), ({"x": 1, "y": 1}, 7, ("d",))], ["a", "d"], 5),
    # x has no pivot.  A row without coefficients counts as zeroed by the
    # first pivot, on y, which zeroes the earlier row b too.
    ([({"y": 2}, 1, ("a",)), ({"y": 1}, -2, ("b",)), ({}, 2, ("c",))],
     ["a", "b"], Fraction(-5, 2)),
    # a and b pin x and y; c is consistent, and d, reduced by both pivots,
    # reads 0 = 5.
    ([({"x": 1, "y": 1}, 3, ("a",)), ({"y": 1}, 1, ("b",)),
      ({"x": 2}, 4, ("c",)), ({"x": 1}, 7, ("d",))], ["a", "b", "d"], 5),
])
def test_eliminate_reports_the_row_the_earliest_pivot_zeroes(rows, certificate, residual):
    with pytest.raises(InconsistentSystemError) as info:
        eliminate(rows, ["x", "y"])
    assert info.value.certificate == certificate and info.value.residual == residual


@pytest.mark.parametrize("rows, unknowns", [
    ([({}, Fraction(5), ("a",))], []),
    ([({"x": 0}, Fraction(0), ("b",)), ({}, 5, ("a",))], ["x"]),
])
def test_eliminate_reports_a_contradiction_no_pivot_reduces(rows, unknowns):
    with pytest.raises(InconsistentSystemError) as info:
        eliminate(rows, unknowns)
    assert info.value.certificate == ["a"] and info.value.residual == 5


def _determinant(matrix):
    if not matrix:
        return 1
    return sum((-1) ** j * matrix[0][j] * _determinant([row[:j] + row[j + 1:]
                                                        for row in matrix[1:]])
               for j in range(len(matrix)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eliminate_solves_integer_systems_exactly(data):
    # A square integer system with a nonzero determinant and a rational
    # solution, plus integer combinations of its rows, in random order.
    n = data.draw(st.integers(1, 4))
    coeff = st.integers(-4, 4)
    square = data.draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                                min_size=n, max_size=n).filter(_determinant))
    x = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                           min_size=n, max_size=n))
    extra = data.draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=4))
    matrix = square + [[sum(c * row[u] for c, row in zip(mix, square)) for u in range(n)]
                       for mix in extra]
    rows = [({u: a for u, a in enumerate(row)}, sum(a * v for a, v in zip(row, x)), (f"r{i}",))
            for i, row in enumerate(matrix)]
    rows = data.draw(st.permutations(rows))
    solution = eliminate(rows, list(range(n)))
    assert solution == dict(enumerate(x))
    assert all(type(value) is Fraction for value in solution.values())
    # One more row whose right-hand side is off by delta makes it inconsistent,
    # and the certificate names that row.
    bad = data.draw(st.lists(coeff, min_size=n, max_size=n))
    delta = data.draw(st.fractions(min_value=-3, max_value=3).filter(bool))
    at = data.draw(st.integers(0, len(rows)))
    inconsistent = ({u: a for u, a in enumerate(bad)},
                    sum(a * v for a, v in zip(bad, x)) + delta, ("bad",))
    with pytest.raises(InconsistentSystemError) as info:
        eliminate(rows[:at] + [inconsistent] + rows[at:], list(range(n)))
    assert "bad" in info.value.certificate


def test_eliminate_underdetermined_names_free_unknowns():
    rows = [({"x": 1, "y": 1}, Fraction(1), ("a",)),
            ({"z": 0}, Fraction(0), ("b",))]
    with pytest.raises(UnderdeterminedError) as info:
        eliminate(rows, ["x", "y", "z"])
    assert info.value.free_unknowns == ["y", "z"]


def test_conj_examples():
    assert conj(root_of_unity(4, 1)) == root_of_unity(4, 3)
    real = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert conj(real) == real
    assert is_real(real)


def test_conj_norm_nonnegative():
    a = root_of_unity(16, 3) * Fraction(2, 5) - root_of_unity(9, 4)
    norm = conj(a) * a
    z = embed(norm)
    assert abs(z.imag) < 1e-10 and z.real >= 0
    assert abs(z.real - abs(embed(a)) ** 2) < 1e-10


def test_sqrt_int_examples():
    assert sqrt_int(1) == 1
    assert sqrt_int(2) * sqrt_int(2) == 2
    assert sqrt_int(18) == sqrt_int(2) * 3
    assert sqrt_int(18) * sqrt_int(18) == 18


def test_sqrt_int_all_to_100():
    # Plus the primes 101..199: their Gauss sums fix the sign with no flip.
    primes = [p for p in range(101, 200) if all(p % d for d in range(2, 15))]
    for m in [*range(1, 101), *primes]:
        r = sqrt_int(m)
        assert r * r == m
        assert embed(r).real > 0


def test_embed_examples():
    assert abs(embed(Cyclotomic.from_rational(Fraction(1, 6))) - (1 / 6)) < 1e-15
    p1 = root_of_unity(32, 1) + root_of_unity(32, 31)
    assert abs(embed(p1) - 2 * math.cos(math.pi / 16)) < 1e-12


def test_minimal_orders():
    assert root_of_unity(2, 1).order == 1          # equals -1
    assert root_of_unity(6, 1).order == 3          # orders 2 mod 4 collapse
    assert (root_of_unity(3, 1) + root_of_unity(3, 2)).order == 1
    assert sqrt_int(2).order == 8
    assert root_of_unity(12, 3).order == 4         # equals i


def test_rational_at_a_large_prime_order_is_cheap():
    # z^k conj(z)^k = 1 is formed at order 1000003; the common factor of the
    # order and the exponent 0 is dropped before any basis rewriting, so no
    # product expands into 1000002 roots.
    import time

    z = root_of_unity(1000003)
    zbar = conj(z)
    started = time.perf_counter()
    for k in range(1, 11):
        assert z ** k * zbar ** k == 1
    assert time.perf_counter() - started < 0.5


def test_equality_is_structural():
    a = root_of_unity(8, 1) + root_of_unity(8, 7)
    b = sqrt_int(2)
    assert a == b and hash(a) == hash(b)
    assert a != b + 1


@settings(max_examples=80, deadline=None)
@given(elements(), elements())
def test_integer_numerators_over_one_reduced_denominator(a, b):
    x = a * b
    for value in (a, b, x, a + b, -a, conj(a), inverse(a) if a else a):
        assert value.denom > 0 and math.gcd(value.denom, *value.coeffs.values()) == 1
        assert all(type(c) is int for c in value.coeffs.values())
    halves = [x * Fraction(2, 4), x / 2, exact_sum([x, -x / 2])]
    assert all(h == halves[0] and hash(h) == hash(halves[0]) for h in halves)


def test_canonicalization_idempotent():
    a = root_of_unity(12, 5) * Fraction(3, 7) + root_of_unity(9, 2)
    again = Cyclotomic(a.order, {e: Fraction(c, a.denom) for e, c in a.coeffs.items()})
    assert again == a and again.order == a.order and again.coeffs == a.coeffs


# Canonical forms against an oracle that shares no code with the engine: the
# float embedding of raw exponent maps, its Galois conjugates, and the basis
# condition written out here.

CANON_ORDERS = [1, 2, 3, 4, 6, 8, 9, 10, 12, 14, 18, 30, 56, 104, 120, 288]


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _float_value(order, terms, a=1):
    """sum c_e exp(2 pi i a e / order), straight from an exponent map."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * a * e / order) for e, c in terms.items())


def _random_terms(rng, order):
    return {rng.randrange(order): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, 6))}


def _in_basis(m, e):
    """zeta_m^e is in the Zumbroich basis of Q(zeta_m)."""
    for p in _primes(m):
        q = p
        while m % (q * p) == 0:
            q *= p
        a = e * pow(m // q, -1, q) % q
        if (p == 2 and a >= q // 2) or (p > 2 and a // (q // p) == 0):
            return False
    return True


def _assert_minimal_canonical(value, order, terms):
    m, coeffs = value.order, {e: Fraction(c, value.denom) for e, c in value.coeffs.items()}
    assert m % 4 != 2
    assert abs(_float_value(m, coeffs) - _float_value(order, terms)) < 1e-9
    assert all(c and 0 <= e < m and _in_basis(m, e) for e, c in coeffs.items())
    if m == 1:
        assert set(coeffs) <= {0}
    # For each p | m, Gal(Q(zeta_m)/Q(zeta_{m/p})) is {a = 1 mod m/p, gcd(a, m) = 1}
    # (m/4 when 4 || m, since Q(zeta_{m/2}) is then Q(zeta_{m/4})); a value
    # that needs p is moved by one of them.
    here = _float_value(m, coeffs)
    for p in _primes(m):
        r = m // 4 if p == 2 and m % 8 else m // p
        moves = [abs(_float_value(m, coeffs, a) - here) for a in range(1, m + 1, r)
                 if math.gcd(a, m) == 1]
        assert max(moves) > 1e-9, (m, coeffs, p)


@pytest.mark.parametrize("n", CANON_ORDERS)
def test_lifting_to_a_multiple_keeps_the_canonical_form(n):
    rng = random.Random(n)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        for _ in range(4):
            terms = _random_terms(rng, d)
            here = Cyclotomic(d, terms)
            lifted = Cyclotomic(n, {e * (n // d): c for e, c in terms.items()})
            assert ((lifted.order, lifted.denom, lifted.coeffs)
                    == (here.order, here.denom, here.coeffs))
            _assert_minimal_canonical(lifted, d, terms)


@pytest.mark.parametrize("n", CANON_ORDERS)
def test_canonical_order_is_minimal(n):
    rng = random.Random(1000 + n)
    for _ in range(40):
        terms = _random_terms(rng, n)
        _assert_minimal_canonical(Cyclotomic(n, terms), n, terms)


def test_format_round_trips_through_parser():
    from fusionring.mdf import eval_expr, parse_expr

    for value in [Cyclotomic.from_rational(Fraction(-7, 3)),
                  sqrt_int(18),
                  root_of_unity(9, 2) * Fraction(4, 3) - root_of_unity(16, 5),
                  Cyclotomic.zero()]:
        assert eval_expr(parse_expr(format_exact(value))) == value


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_field_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert inverse(a) * a == 1


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_embed_is_a_homomorphism(a, b):
    assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-10
    assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(elements())
def test_zero_iff_empty_canonical_form(a):
    # The exact check is authoritative; the embedding must agree.
    if a.is_zero():
        assert abs(embed(a)) < 1e-10
    else:
        assert abs(embed(a)) > 1e-10


# -- the exact accumulation kernel --------------------------------------------

def _sum_by_constructor(xs):
    """Oracle: add raw Fraction exponent maps at a common order, canonicalize
    through the constructor."""
    order = 1
    for x in xs:
        order = math.lcm(order, x.order)
    terms = {}
    for x in xs:
        for e, c in x.coeffs.items():
            key = e * (order // x.order)
            terms[key] = terms.get(key, 0) + Fraction(c, x.denom)
    return Cyclotomic(order, terms)


@settings(max_examples=80, deadline=None)
@given(st.lists(elements(), max_size=8))
def test_exact_sum_matches_per_addition(xs):
    total = exact_sum(xs)
    assert total == reduce(operator.add, xs, Cyclotomic.zero())
    assert total == _sum_by_constructor(xs)
    assert abs(embed(total) - sum(embed(x) for x in xs)) < 1e-9


def test_exact_sum_edge_cases():
    assert exact_sum([]) == 0
    assert exact_sum(iter([Cyclotomic.zero(), Cyclotomic.zero()])).is_zero()
    x = root_of_unity(9, 2) * Fraction(5, 3)
    assert exact_sum([x]) == x
    assert exact_sum([x, -x, Cyclotomic.zero()]).is_zero()
    # 1 + zeta_5 + ... + zeta_5^4 = 0, and the result drops to order 1.
    assert exact_sum([root_of_unity(5, e) for e in range(5)]).order == 1


def _weighted_by_constructor(pairs):
    """Oracle: sum w * x as raw Fraction exponent maps at the lcm of the
    orders, canonicalized through the constructor."""
    order = math.lcm(1, *(x.order for x, _ in pairs))
    terms = {}
    for x, w in pairs:
        for e, c in x.coeffs.items():
            key = e * (order // x.order)
            terms[key] = terms.get(key, 0) + Fraction(c, x.denom) * w
    return Cyclotomic(order, terms)


def _assert_same(fast, slow):
    assert isinstance(fast, Cyclotomic)
    assert (fast.order, fast.coeffs, fast.denom) == (slow.order, slow.coeffs, slow.denom)
    assert hash(fast) == hash(slow)


@settings(max_examples=80, deadline=None)
@given(elements(), elements(), st.integers(-6, 6),
       st.fractions(-5, 5, max_denominator=6))
def test_rational_fast_paths_match_the_coerced_path(x, y, n, q):
    # A rational operand scales numerators and denominator, and a difference
    # is one weighted lift; each must give the element the coerced path gives.
    coerced = Cyclotomic.from_rational
    for fast, slow, pairs in [
            (x * n, x * coerced(n), [(x, n)]),
            (n * x, coerced(n) * x, [(x, n)]),
            (x * q, x * coerced(q), [(x, q)]),
            (q * x, coerced(q) * x, [(x, q)]),
            (x * 0, x * coerced(0), []),
            (x * True, x * coerced(1), [(x, 1)]),
            (x - y, exact_sum([x, -y]), [(x, 1), (y, -1)]),
            (y - x, exact_sum([y, -x]), [(y, 1), (x, -1)]),
            (0 - x, -x, [(x, -1)]),
            (q - x, exact_sum([coerced(q), -x]), [(coerced(q), 1), (x, -1)]),
            (x - q, exact_sum([x, -coerced(q)]), [(x, 1), (coerced(q), -1)])]:
        _assert_same(fast, slow)
        _assert_same(fast, _weighted_by_constructor(pairs))
    if n:
        _assert_same(x / n, x * inverse(coerced(n)))
    if q:
        _assert_same(x / q, x * inverse(coerced(q)))
    if x:
        _assert_same(q / x, coerced(q) * inverse(x))
    for r in (n, q, x.as_rational() if x.order == 1 else 0):
        assert (x == r) is (x == coerced(r))
        assert (x == r) is (x.order == 1 and x.as_rational() == r)
        assert coerced(r) == r


def test_division_by_a_zero_rational_raises():
    with pytest.raises(ZeroDivisionError):
        root_of_unity(3) / 0
    with pytest.raises(ZeroDivisionError):
        root_of_unity(3) / Fraction(0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(elements(), st.integers(-3, 3)), max_size=6), st.data())
def test_weighted_sum_matches_the_constructor(pairs, data):
    # Zero, negative and repeated weights, and the same value twice.
    if pairs:
        pairs.append(data.draw(st.sampled_from(pairs)))
    pairs.append((data.draw(elements()), 0))
    _assert_same(weighted_sum(pairs), _weighted_by_constructor(pairs))
    _assert_same(weighted_sum(pairs), exact_sum([x * w for x, w in pairs]))


# -- images in split prime fields ---------------------------------------------

@pytest.mark.parametrize("order", [1, 4, 13, 52, 288])
def test_split_primes_carry_an_element_of_exact_order(order):
    found = cyclo._split_primes(order, 1 << 20, 7)
    for _ in range(3):
        p, w = next(found)
        assert cyclo._is_prime(p) and (p - 1) % order == 0 and p % 7
        assert pow(w, order, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, order) if order % d == 0)


def test_is_prime_against_trial_division():
    def trial(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))

    assert [m for m in range(2000) if cyclo._is_prime(m)] == [m for m in range(2000) if trial(m)]


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_images_are_ring_homomorphisms(a, b):
    # Each prime's map zeta_N -> w, on lifts over a denominator, respects
    # sums and products; both sides are imaged by one kernel.
    values = [a, b, a + b, a * b]
    images = cyclo.Images(values)
    chosen = images.choose_primes(1 << 40)
    assert len(chosen) >= 2
    for p, residues in chosen:
        x, y, total, product = (residues[images.index[v]] for v in values)
        assert (x + y - total) % p == 0 and (x * y - product) % p == 0


def test_images_are_one_residue_list_per_prime():
    # Real and complex values alike are imaged once per prime, at w itself;
    # a repeated value is imaged once.  Primes come largest first.
    for values in ([sqrt_int(2), sqrt_int(3), root_of_unity(5, 1) + root_of_unity(5, 4)],
                   [root_of_unity(3), Fraction(1, 2) * root_of_unity(8)]):
        images = cyclo.Images(values + values[:1])
        assert images.index == {v: i for i, v in enumerate(values)}
        chosen = images.choose_primes(1 << 70)
        assert len(chosen) >= 3
        found = cyclo._split_primes(images.order, images._limit, images.denom)
        for (p, residues), (q, w) in zip(chosen, found):
            assert p == q
            powers = {e: pow(w, e, p) for e in range(images.order)}
            expected = [sum(c * pow(v.denom, -1, p)
                            * powers[e * images.order // v.order] for e, c in v.coeffs.items())
                        for v in values]
            assert residues == [x % p for x in expected]
    primes = [p for p, _ in chosen]
    assert primes == sorted(primes, reverse=True)
    assert cyclo.combine(primes, [[p - 1] for p in primes]) == [math.prod(primes) - 1]


def test_images_add_primes_only_when_a_bound_needs_them(monkeypatch):
    # One pass takes the fewest primes, largest first, whose product exceeds
    # the bound, and draws no prime past them; a prime dividing ``avoid`` is
    # skipped.
    drawn = []
    split_primes = cyclo._split_primes

    def counted(*args):
        for prime in split_primes(*args):
            drawn.append(prime[0])
            yield prime

    monkeypatch.setattr(cyclo, "_split_primes", counted)
    images = cyclo.Images([Fraction(3, 10) * sqrt_int(3)])
    assert images.denom == 10 and images.norms == [6]
    ((p, residues),) = images.choose_primes(1)
    assert drawn == [p]
    # A bound of p needs a second, smaller prime; the first images as before.
    ((first, again), (q, _)) = images.choose_primes(p)
    assert (first, again) == (p, residues) and p > q and drawn == [p, p, q]
    # A prime dividing ``avoid`` is skipped.
    assert [r for r, _ in images.choose_primes(1, avoid=2 * p)] == [q]


def test_without_a_split_prime_no_primes_are_chosen(monkeypatch):
    monkeypatch.setattr(cyclo, "_PRIME_BOUND", 32)
    images = cyclo.Images([root_of_unity(288)])
    assert images.choose_primes(10) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_product_is_a_vector_matrix_product(data):
    # Inputs stay inside the documented contract, rows * (p - 1)^2 < 2^64,
    # so that no 64-bit slot carries into the next.
    p = data.draw(st.sampled_from([2, 97, 4294967291]))
    rows = data.draw(st.integers(1, min(6, ((1 << 64) - 1) // (p - 1) ** 2)))
    width = data.draw(st.integers(1, 6))
    residue = st.integers(0, p - 1)
    matrix = data.draw(st.lists(st.lists(residue, min_size=width, max_size=width),
                                min_size=rows, max_size=rows))
    vector = data.draw(st.lists(residue, min_size=rows, max_size=rows))
    expected = [sum(v * row[k] for v, row in zip(vector, matrix)) % p for k in range(width)]
    packed = [cyclo.pack(row) for row in matrix]
    assert cyclo.packed_product(vector, packed, width, p) == expected


@pytest.mark.parametrize("rows", [1, 5, 28])
def test_packed_product_at_the_largest_allowed_prime(rows):
    # The largest prime choose_primes takes for ``rows`` summands, with every
    # residue at its maximum p - 1: each slot holds rows * (p - 1)^2.
    images = cyclo.Images([Cyclotomic.one()], summands=rows)
    ((p, _),) = images.choose_primes(1)
    assert rows * (p - 1) ** 2 < 1 << 64 < rows * (p + 1) ** 2 * 2
    width = 3
    packed = [cyclo.pack([p - 1] * width) for _ in range(rows)]
    assert cyclo.packed_product([p - 1] * rows, packed, width, p) == [rows % p] * width


@settings(max_examples=200, deadline=None)
@given(st.integers(1, MAX_ORDER).filter(lambda n: n % 4 != 2))
def test_unit_generators_generate_the_units(n):
    closure, frontier = {1 % n}, [1 % n]
    gens = cyclo.unit_generators(n)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % n
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert closure == {a % n for a in range(1, n + 1) if math.gcd(a, n) == 1}
