"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every scalar handled by this package is an element of some Q(zeta_n),
zeta_n = exp(2*pi*i/n), stored in the canonical (Zumbroich) basis of
Q(zeta_n) over Q as FLINT's ``fmpq_poly`` stores a rational polynomial:
integer numerators over one positive denominator, coprime to their content.
Canonical forms are unique, so equality is a structural comparison and
zero-testing is exact.  Elements are always kept at the minimal order that
can represent them, which keeps arithmetic in long accumulation loops cheap:
plain rationals sit at order 1, and an order n = 2 mod 4 is never used (an
exponent map there is read at 2n, e -> 2e).  One routine, ``_element``,
builds every element: ``_canonicalize`` rewrites an integer exponent map
into the basis and then, in one pass over the primes of the order, drops each
prime for as long as the element allows (see ``_deflate``), and the common
factor of the numerators and the denominator is divided out.  An operator
never makes a rational operand an element: a product by an ``int`` or
``Fraction`` scales the numerators and ``denom`` of a form that stays
canonical, and every sum or difference is one call of the weighted
accumulation kernel, ``weighted_sum``, in which rationals are weights.

The Zumbroich basis of Q(zeta_n) consists of the roots zeta_n^e whose
residue at each prime power p^v || n avoids a forbidden digit: writing the
CRT component of e at p^v as a, the basis requires a // p^(v-1) != 0 for odd
p and a < 2^(v-1) for p = 2, v >= 2.  Any exponent can be rewritten into the
basis with the relations 1 + zeta_p + ... + zeta_p^(p-1) = 0 (shifted by a
root) and zeta_{2^v}^{2^(v-1)} = -1.

Inversion needs no linear algebra: ``inverse`` multiplies an element by its
Galois conjugates (``galois``) until the product is rational, so the inverse
is the product of those conjugates over that rational.

Verlinde coefficients and the entries of S^2 are certified by one image
kernel, ``Images``: the entries of S lifted to their common order N and
imaged, in one pass, modulo the fewest primes p = 1 mod N that a bound needs,
which suffices once the Galois symmetry of S makes each sum rational.
"""

from __future__ import annotations

import cmath
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from math import gcd, isqrt, lcm
from operator import mul


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((p, p**v), ...)."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, m))
    return tuple(out)


@lru_cache(maxsize=None)
def _crt_data(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per prime power q = p**v of n: (p, q, inverse of n/q mod q)."""
    return tuple((p, q, pow(n // q, -1, q)) for p, q in _factorize(n))


@lru_cache(maxsize=None)
def _allowed_exponents(n: int) -> bytes:
    """Byte table: 1 at e iff zeta_n^e is a canonical basis element."""
    flags = bytearray([1]) * n
    for p, q, c in _crt_data(n):
        sub = q // p
        for e in range(n):
            a = (e * c) % q
            if p == 2:
                ok = q == 2 or a < sub
            else:
                ok = (a // sub) % p != 0
            if not ok:
                flags[e] = 0
    return bytes(flags)


def _reduce_terms(n: int, terms: dict[int, int]) -> dict[int, int]:
    """Rewrite a raw exponent->coefficient map into the canonical basis at order n."""
    allowed = _allowed_exponents(n)
    crt = _crt_data(n)
    out: dict[int, int] = {}
    stack = []
    for e, c in terms.items():
        e %= n
        if allowed[e]:
            out[e] = out.get(e, 0) + c
        else:
            stack.append((e, c))
    while stack:
        e, c = stack.pop()
        for p, q, inv in crt:
            a = (e * inv) % q
            sub = q // p
            if p == 2:
                if q > 2 and a >= sub:
                    e2 = (e - n // 2) % n
                    if allowed[e2]:
                        out[e2] = out.get(e2, 0) - c
                    else:
                        stack.append((e2, -c))
                    break
            elif (a // sub) % p == 0:
                step = n // p
                for t in range(1, p):
                    e2 = (e + t * step) % n
                    if allowed[e2]:
                        out[e2] = out.get(e2, 0) - c
                    else:
                        stack.append((e2, -c))
                break
    return {e: c for e, c in out.items() if c}


def _deflate(n: int, coeffs: dict[int, int]):
    """The minimal order of a canonical element and its form there.

    One pass over the primes p of n drops p for as long as the element
    allows.  When p^2 | n the bases are nested: the element lies in
    Q(zeta_{n/p}) iff every exponent is divisible by the step (p, or 4 when
    4 || n, since orders 2 mod 4 are not used), and e maps to e // step.
    When an odd p || n, with m = n/p, the element lies in Q(zeta_m) iff the
    exponents in each class e mod m are p - 1 roots sharing one coefficient
    c (so p - 1 divides the term count); since 1 + zeta_p + ... + zeta_p^(p-1) = 0 the class
    is -c zeta_m^w with w = e p^-1 mod m.  An element that needs p at order n needs it at
    every smaller order p divides, so no prime is revisited.
    """
    if not coeffs:
        return 1, {}
    for p, _ in _factorize(n):
        while n % p == 0:
            if n % (p * p) == 0:
                step = 4 if p == 2 and n % 8 else p
                if any(e % step for e in coeffs):
                    break
                n //= step
                coeffs = {e // step: c for e, c in coeffs.items()}
                continue
            if len(coeffs) % (p - 1):
                break
            m = n // p
            classes: dict[int, list] = {}
            for e, c in coeffs.items():
                classes.setdefault(e % m, []).append(c)
            if any(len(cs) != p - 1 or cs.count(cs[0]) != p - 1
                   for cs in classes.values()):
                break
            inv = pow(p, -1, m)
            n = m
            coeffs = {r * inv % m: -cs[0] for r, cs in classes.items()}
    return n, coeffs


def _canonicalize(n: int, terms: dict[int, int]):
    """The canonical (order, coeffs) of a raw exponent->coefficient map at order n."""
    g = gcd(n, *terms)
    if g > 1:
        # zeta_n^e = zeta_{n/g}^(e/g).  Dropping the common factor first keeps
        # a rational at a large prime order from expanding into p - 1 roots.
        n //= g
        terms = {e // g: c for e, c in terms.items()}
    if n % 4 == 2:
        # zeta_n = zeta_{2n}^2: canonical orders are never 2 mod 4, so neither
        # is the lcm of two of them.
        n *= 2
        terms = {2 * e: c for e, c in terms.items()}
    return _deflate(n, _reduce_terms(n, terms))


class Cyclotomic:
    """An exact element of a cyclotomic field, immutable and always canonical:
    integer numerators ``coeffs`` of the basis roots at ``order`` over one
    ``denom`` > 0, gcd(denom, *coeffs.values()) = 1.  The constructor takes
    a map to rationals."""

    __slots__ = ("order", "coeffs", "denom", "_hash")

    def __init__(self, order: int, coeffs: dict[int, Fraction], _canonical: bool = False):
        denom = lcm(*(c.denominator for c in coeffs.values()))
        _element(order, {e: c.numerator * (denom // c.denominator) for e, c in coeffs.items()},
                 denom, _canonical, self)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value) -> Cyclotomic:
        c = Fraction(value)
        return _element(1, {0: c.numerator} if c else {}, c.denominator, True)

    @staticmethod
    def zero() -> Cyclotomic:
        return _element(1, {}, 1, True)

    @staticmethod
    def one() -> Cyclotomic:
        return _element(1, {0: 1}, 1, True)

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return self.order == 1

    def as_rational(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self.coeffs.get(0, 0), self.denom)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Cyclotomic):
            return (self.order, self.denom, self.coeffs) == (other.order, other.denom, other.coeffs)
        if isinstance(other, (int, Fraction)):
            return (self.order == 1 and self.denom == other.denominator
                    and self.coeffs.get(0, 0) == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.denom, frozenset(self.coeffs.items())))
        return self._hash

    # -- arithmetic --------------------------------------------------------
    #
    # A rational operand is never made an element: it scales the numerators
    # and ``denom`` of a product, and rides as the weight of one in a sum.

    def __add__(self, other) -> Cyclotomic:
        return weighted_sum(((self, 1), _weighted(other, 1)))

    __radd__ = __add__

    def __neg__(self) -> Cyclotomic:
        return _element(self.order, {e: -c for e, c in self.coeffs.items()}, self.denom, True)

    def __sub__(self, other) -> Cyclotomic:
        return weighted_sum(((self, 1), _weighted(other, -1)))

    def __rsub__(self, other) -> Cyclotomic:
        return weighted_sum(((self, -1), _weighted(other, 1)))

    def __mul__(self, other) -> Cyclotomic:
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        elif other.order == 1:
            num, den = other.coeffs.get(0, 0), other.denom
        elif self.order == 1:
            return other.__mul__(self)
        else:
            n = lcm(self.order, other.order)
            terms = _convolve(_lift_into({}, self, n, 1), _lift_into({}, other, n, 1), n)
            return _element(n, terms, self.denom * other.denom)
        if not num:
            return Cyclotomic.zero()
        # A nonzero rational multiple of a canonical form is canonical.
        return _element(self.order, {e: c * num for e, c in self.coeffs.items()},
                        self.denom * den, True)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Cyclotomic:
        if k < 0:
            return inverse(self) ** (-k)
        acc = Cyclotomic.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __truediv__(self, other) -> Cyclotomic:
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * inverse(other)

    def __rtruediv__(self, other) -> Cyclotomic:
        return inverse(self) * other

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {format_exact(self)!r})"

    def __str__(self) -> str:
        return format_exact(self)


def _element(order: int, terms: dict[int, int], denom: int, canonical: bool = False,
             out: Cyclotomic | None = None) -> Cyclotomic:
    """The element sum_e terms[e] zeta_order^e / denom, filled into ``out`` or
    a new ``Cyclotomic``; ``canonical`` says that ``terms`` is canonical at
    ``order`` already."""
    if not canonical:
        order, terms = _canonicalize(order, terms)
    g = gcd(denom, *terms.values())
    if g > 1:
        denom //= g
        terms = {e: c // g for e, c in terms.items()}
    if out is None:
        out = object.__new__(Cyclotomic)
    out.order, out.coeffs, out.denom, out._hash = order, terms, denom, None
    return out


# -- the exact accumulation kernel --------------------------------------------
#
# Every sum of many cyclotomic terms (matrix products, Verlinde sums, global
# dimensions, linear residuals, and every binary + and -) goes through one
# path: lift the terms once to their common order N over one common
# denominator, add them as integer exponent maps in the group ring Z[C_N], and
# canonicalize once at the end.  Each term carries a rational weight, so a sum
# sum_i w_i v_i with integer multiplicities or signs w_i costs one lift per
# value and builds no element for w_i or for any product w_i v_i.  The
# reduction Z[C_N] -> Z[zeta_N] is a ring homomorphism, so deferring it gives
# exactly the element that per-addition canonicalization would, at the price
# of one canonicalization per result instead of one per addition.

def _common_order(values) -> int:
    """The least order (never 2 mod 4) at which every value can be written."""
    order = 1
    for v in values:
        if order % v.order:
            order = lcm(order, v.order)
    return order


def _lift_into(dest: dict[int, int], value: Cyclotomic, order: int,
               scale: int) -> dict[int, int]:
    """dest += scale * (the numerators of value) as an integer exponent map at
    ``order``, a multiple of ``value.order``."""
    step = order // value.order
    get = dest.get
    for e, c in value.coeffs.items():
        e *= step
        dest[e] = get(e, 0) + c * scale
    return dest


def _convolve(a: dict[int, int], b: dict[int, int], order: int) -> dict[int, int]:
    """The product a * b of integer exponent maps, in Z[C_order].

    Exponents must lie in 0..order-1; the result's do too.
    """
    acc: dict[int, int] = {}
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e >= order:
                e -= order
            acc[e] = get(e, 0) + c1 * c2
    return acc


def weighted_sum(pairs) -> Cyclotomic:
    """The exact sum of w * v over (Cyclotomic v, int or Fraction w) pairs,
    canonicalized once."""
    pairs = [(v, w) for v, w in pairs if w and v.coeffs]
    if not pairs:
        return Cyclotomic.zero()
    if len(pairs) == 1:
        v, w = pairs[0]
        return v if w == 1 else v * w
    order = _common_order(v for v, _ in pairs)
    denoms = [v.denom * w.denominator for v, w in pairs]
    denom = lcm(*denoms)
    acc: dict[int, int] = {}
    for (v, w), d in zip(pairs, denoms):
        _lift_into(acc, v, order, denom // d * w.numerator)
    return _element(order, acc, denom)


def exact_sum(values) -> Cyclotomic:
    """The exact sum of cyclotomic values, canonicalized once."""
    return weighted_sum(zip(values, repeat(1)))


def _weighted(x, weight) -> tuple[Cyclotomic, int | Fraction]:
    """x times weight as a ``weighted_sum`` pair; a rational x is a weight on one."""
    if isinstance(x, Cyclotomic):
        return x, weight
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.one(), x * weight
    raise TypeError(f"cannot add {type(x).__name__} to Cyclotomic")


def minus_product(x, a, b):
    """x - a * b for ints, Fractions and Cyclotomics: one ``weighted_sum``
    with a rational a or b as the other's weight."""
    if isinstance(a, Cyclotomic) is isinstance(b, Cyclotomic):
        return x - a * b
    return weighted_sum((_weighted(x, 1), (a, -b) if isinstance(a, Cyclotomic) else (b, -a)))


# -- images in split prime fields ---------------------------------------------
#
# A value known to be a rational integer, or an identity whose sides must
# agree, is certified from its images modulo primes instead of being
# canonicalized (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5).
# Lift every value to an integer exponent map at one common order N over a
# shared denominator D; the quantity to certify then becomes a sum A in
# Z[C_N] whose l1 norm is cheap to bound, and since every zeta_N^e has
# Zumbroich coefficients in {-1, 0, 1}, that bound also bounds every basis
# coefficient of the reduction a of A.  For a prime p = 1 mod N and w of exact
# order N in F_p, zeta_N -> w is a ring map onto F_p.  The callers first show
# a rational, by the Galois symmetry of S; then a is an integer with image
# a mod p, so one image per prime suffices: when a - c has image 0 at primes
# whose product exceeds twice the bound on A - c, then a = c.

# Primes stay below this bound.
_PRIME_BOUND = 1 << 32


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3 * 10^12 (primes here stay below 2^32)."""
    bases = (2, 3, 5, 7, 11, 13)
    if m < 2:
        return False
    for b in bases:
        if m % b == 0:
            return m == b
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def unit_generators(n: int) -> tuple[int, ...]:
    """Generators of the units mod n: per prime power q || n, -1 and 5 for
    q = 2^v (-1 alone for q = 4) or a primitive root for odd q, each lifted
    by the CRT to 1 mod n/q."""
    gens = []
    for p, q, inv in _crt_data(n):
        phi = q // p * (p - 1)
        local = [q - 1, 5][:(q >= 4) + (q >= 8)] if p == 2 else [next(
            g for g in count(2) if g % p and all(pow(g, phi // r, q) != 1
                                                 for r, _ in _factorize(phi)))]
        gens += [(1 + n // q * ((g - 1) * inv % q)) % n for g in local]
    return tuple(gens)


def _split_primes(order: int, limit: int, denom: int):
    """Primes p = 1 mod order below limit that do not divide denom, largest
    first, each with an element w of exact order ``order`` in F_p."""
    factors = [q for q, _ in _factorize(order)]
    for t in range((limit - 2) // order, 0, -1):
        p = t * order + 1
        if denom % p == 0 or not _is_prime(p):
            continue
        for g in count(2):
            w = pow(g, (p - 1) // order, p)
            if all(pow(w, order // q, p) != 1 for q in factors):
                yield p, w
                break


class Images:
    """Values lifted to one order N and imaged in F_p at split primes p.

    ``index`` maps each distinct value to its place; the values are lifted,
    over one denominator D (``denom``), to the integer exponent maps of D v
    at the common order N (``lifts``), with l1 norms ``norms``.  Only
    ``choose_primes`` images them, under zeta_N -> w of exact order N in F_p,
    at no p dividing D; every p stays below ``_PRIME_BOUND`` and
    sqrt(2^64 / summands), so that a sum of ``summands`` products of two
    residues fits one 64-bit slot of ``packed_product``.
    """

    def __init__(self, values, summands: int = 1):
        self.index = {v: i for i, v in enumerate(dict.fromkeys(values))}
        order = self.order = _common_order(self.index)
        denom = self.denom = lcm(*(v.denom for v in self.index))
        self.lifts = [list(_lift_into({}, v, order, denom // v.denom).items())
                      for v in self.index]
        self.norms = [sum(abs(c) for _, c in lift) for lift in self.lifts]
        self._exponents = {e for lift in self.lifts for e, _ in lift}
        self._limit = min(_PRIME_BOUND, isqrt(((1 << 64) - 1) // max(summands, 1)))

    def choose_primes(self, bound: int, avoid: int = 1) -> list[tuple[int, list[int]]]:
        """In one pass, the largest split primes not dividing ``avoid`` whose
        product exceeds ``bound``, as (p, every value's image at p); [] if too few."""
        chosen, modulus = [], 1
        for p, w in _split_primes(self.order, self._limit, self.denom * avoid):
            powers = {e: pow(w, e, p) for e in self._exponents}
            scale = pow(self.denom, -1, p)
            chosen.append((p, [sum(c * powers[e] for e, c in lift) * scale % p
                               for lift in self.lifts]))
            modulus *= p
            if modulus > bound:
                return chosen
        return []


def combine(primes: list[int], residues) -> list[int]:
    """Lists of residues, one per prime in order, joined by the CRT into
    residues modulo the primes' product.

    Garner's incremental form (Garner 1959): start from the first prime's
    residues x modulo M = p_1 and fold in each further prime p as
    x + M * ((r - x) / M mod p), one modular step per value; with one prime
    nothing is folded.
    """
    residues = iter(residues)
    out = list(next(residues))
    modulus = primes[0]
    for p, rs in zip(primes[1:], residues):
        inv = pow(modulus, -1, p)
        out = [x + (r - x) * inv % p * modulus for x, r in zip(out, rs)]
        modulus *= p
    return out


def pack(residues) -> int:
    """Integers below 2^64 as one integer with a 64-bit slot each."""
    return int.from_bytes(array("Q", residues).tobytes(), sys.byteorder)


def packed_product(vector: list[int], packed: list[int], width: int, p: int) -> list[int]:
    """The row vector times the matrix of ``width`` columns whose rows are
    ``packed``, mod p.

    One sum of len(vector) products of packed integers; no slot carries as
    long as len(vector) * p^2 < 2^64 (see ``Images.choose_primes``).
    """
    acc = sum(map(mul, vector, packed))
    slots = array("Q")
    slots.frombytes(acc.to_bytes(8 * width, sys.byteorder))
    return [x % p for x in slots]


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k as an exact element, in canonical form at minimal order."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return Cyclotomic(n, {k % n: 1})


def galois(a: Cyclotomic, k: int) -> Cyclotomic:
    """The automorphism zeta -> zeta^k of Q(zeta_n), n = a.order, k prime to n.  It fixes
    each subfield Q(zeta_m) and maps Z[zeta_n], on which the basis is integral (Bosma
    1990), onto itself, so the image rewritten into the basis at n is canonical."""
    n = a.order
    if gcd(k, n) != 1:
        raise ValueError(f"{k} is not a unit mod {n}")
    return _element(n, _reduce_terms(n, {e * k: c for e, c in a.coeffs.items()}), a.denom, True)


def conj(a: Cyclotomic) -> Cyclotomic:
    """Complex conjugation, zeta^e -> zeta^(-e) extended linearly."""
    return galois(a, -1)


def is_real(a: Cyclotomic) -> bool:
    return conj(a) == a


@lru_cache(maxsize=None)
def sqrt_int(m: int) -> Cyclotomic:
    """The positive square root of a positive integer, as a cyclotomic.

    Built multiplicatively from primes: sqrt(2) = zeta_8 + zeta_8^-1, and for
    an odd prime p the quadratic Gauss sum sum_a zeta_p^(a^2) equals +sqrt(p)
    for p = 1 mod 4 and +i*sqrt(p) for p = 3 mod 4 (corrected by zeta_4^-1).
    Gauss's sign theorem fixes both signs, so every factor is the positive
    root and no float embedding is consulted.
    """
    if m < 1:
        raise ValueError("argument must be a positive integer")
    result = Cyclotomic.one()
    rational_part = 1
    for p, q in _factorize(m):
        v = 0
        while q > 1:
            q //= p
            v += 1
        rational_part *= p ** (v // 2)
        if v % 2:
            result = result * _sqrt_prime(p)
    return result * Fraction(rational_part)


def _sqrt_prime(p: int) -> Cyclotomic:
    if p == 2:
        return Cyclotomic(8, {1: 1, 7: 1})
    terms: dict[int, int] = {}
    for a in range(p):
        e = (a * a) % p
        terms[e] = terms.get(e, 0) + 1
    g = Cyclotomic(p, terms)
    if p % 4 == 3:
        g = g * root_of_unity(4, 3)
    return g


def inverse(a: Cyclotomic) -> Cyclotomic:
    """The exact multiplicative inverse; raises ZeroDivisionError at 0.

    The product of a with its conjugates over every unit k is the field norm,
    a nonzero rational, so multiplying a by conjugates until the product is
    rational always ends; the inverse is then the product of the conjugates
    over that rational.  Complex conjugation comes first, so a root of unity,
    or any a with a * conj(a) rational, costs one product.  A real a equals
    its conjugate under k and -k alike, so only the units up to n/2 are
    used, which gives the norm of the real subfield.  The units are
    enumerated lazily, so a huge order costs nothing up front.
    """
    if a.is_zero():
        raise ZeroDivisionError("division by zero cyclotomic")
    if a.order == 1:
        return Cyclotomic.one() * Fraction(a.denom, a.coeffs[0])
    n = a.order
    others = [conj(a)]
    if others[0] == a:
        others, norm, top = [], a, n // 2
    else:
        norm, top = a * others[0], n - 2
    units = (k for k in range(2, top + 1) if gcd(k, n) == 1)
    while not norm.is_rational():
        image = galois(a, next(units))
        others.append(image)
        norm = norm * image
    result = others[0]
    for image in others[1:]:
        result = result * image
    return result * Fraction(norm.denom, norm.coeffs[0])


def embed(a: Cyclotomic) -> complex:
    """Floating-point image sum c_e * exp(2*pi*i*e/n), for reports and cross-checks."""
    n = a.order
    z = 0j
    for e, c in a.coeffs.items():
        z += c / a.denom * cmath.exp(2j * cmath.pi * e / n)
    return z


def format_exact(a: Cyclotomic) -> str:
    """Render in the scalar expression grammar: rationals and E(n)^k terms.

    The output parses back to an equal element, which keeps serialized data
    files exact and byte-stable.
    """
    if a.is_zero():
        return "0"
    n = a.order
    out = ""
    for e in sorted(a.coeffs):
        c = Fraction(a.coeffs[e], a.denom)
        out += "-" if c < 0 else "+" if out else ""
        root = f"E({n})" if e == 1 else f"E({n})^{e}"
        if e == 0:
            out += str(abs(c))
        elif abs(c) == 1:
            out += root
        else:
            out += f"{abs(c)}*{root}"
    return out


def format_brief(a: Cyclotomic) -> str:
    """``format_exact`` up to 64 terms, else the order and the term count, so
    that an error message stays short."""
    terms = len(a.coeffs)
    if terms <= 64:
        return format_exact(a)
    return f"an element of Q(zeta_{a.order}) with {terms} terms"

