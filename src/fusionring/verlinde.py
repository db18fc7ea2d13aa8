"""Fusion coefficients and fusion-ring structure from a modular datum.

The central sum is N[i,j]^k = sum_s S[i,s] S[j,s] S[s,k'] / S[0,s]: once
``modular_data.validate`` certifies S^2 = C, S^-1[s,k] = S[s,k'], so no
matrix is inverted.  Every coefficient must be a nonnegative rational
integer; anything else signals an inconsistent S-matrix and aborts the
tensor computation with the offending triple.

``fusion_tensor`` is the one tensor entry point.  It chooses its own index
set, the modules whose S row and dual column are fully known
(``computable_indices``): every module of a full datum, and the fully known
block of a partial one, so the same call certifies a completed datum and
checks a partial one before completion.  ``fusion_product`` evaluates one
row of that tensor with the same engine.

Coefficients are certified from the datum's one image of S modulo each
prime p = 1 mod N (``ModularDatum.images``), once the Galois symmetry of S
(``ModularDatum.galois``) makes each one rational; no float is consulted,
and a coefficient that fails is summed exactly, so its error carries its
exact value (see ``_Engine``).  ``check_ring`` certifies qdim
multiplicativity and associativity by one character identity through the
same image, and searches for a non-associative quadruple directly only when
that identity does not prove the ring associative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm
from operator import mul

from . import cyclo
from .cyclo import Cyclotomic, format_brief, inverse
from .mdf import (DuplicateEntryError, FixtureRecord, IndexRangeError, ParseError,
                  format_formal_sum)
from .modular_data import (MissingEntryError, ModularDatum, NotPermutationError,
                           charge_conjugation, computable_indices, quantum_dimensions)

__all__ = [
    "NonIntegerResultError", "NegativeResultError",
    "FusionTensor", "fusion_tensor", "fusion_product",
    "check_ring", "applicable_fixtures", "compare_fixtures",
    "tensor_to_triples", "triples_to_fixtures",
]


class NonIntegerResultError(ArithmeticError):
    """A Verlinde sum failed to canonicalize to a rational integer; the exact
    ``residual`` is printed as ``cyclo.format_brief`` shows it."""

    def __init__(self, triple, residual):
        super().__init__(f"N{triple} is not a rational integer: {format_brief(residual)}")
        self.triple = triple
        self.residual = residual


class NegativeResultError(ArithmeticError):
    """A Verlinde sum produced a negative integer."""

    def __init__(self, triple, value):
        super().__init__(f"N{triple} = {value} is negative")
        self.triple = triple
        self.value = value


class FusionTensor:
    """Nonnegative-integer coefficients N[i,j]^k over a set of module indices.

    ``indices`` are the datum-level module indices of the three axes; a full
    tensor has indices 0..d, a partial one (for block computations on a
    partly known S-matrix) any subset.
    """

    def __init__(self, indices: list[int], values: list[list[list[int]]]):
        self.indices = list(indices)
        self.values = values
        self._pos = {idx: p for p, idx in enumerate(self.indices)}

    @property
    def size(self) -> int:
        return len(self.indices)

    def has_index(self, i: int) -> bool:
        return i in self._pos

    def coeff(self, i: int, j: int, k: int) -> int:
        return self.values[self._pos[i]][self._pos[j]][self._pos[k]]

    def product(self, i: int, j: int) -> dict[int, int]:
        """The fusion product of irreducibles i and j as a formal sum."""
        pi, pj = self._pos[i], self._pos[j]
        row = self.values[pi][pj]
        return {self.indices[pk]: m for pk, m in enumerate(row) if m}

    def fusion_matrix(self, i: int) -> list[list[int]]:
        return self.values[self._pos[i]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionTensor):
            return NotImplemented
        return self.indices == other.indices and self.values == other.values


def _integer_coeff(value: Cyclotomic, triple) -> int:
    if not value.is_rational() or value.as_rational().denominator != 1:
        raise NonIntegerResultError(triple, value)
    n = value.as_rational().numerator
    if n < 0:
        raise NegativeResultError(triple, n)
    return n


class _Engine:
    """Memoized per-datum quantities for the tensor of ``fusion_tensor``, whose
    ``indices`` are ``computable_indices(datum)``.

    A row is certified from the datum's one image of S (``ModularDatum.images``),
    never by canonicalizing a coefficient.  The datum's Galois permutations
    (``ModularDatum.galois``, on the rows 0 and ``indices`` and the dual
    columns of ``indices``) make every N[i,j]^k rational, the sign of column
    s cancelling in S[i,s] S[j,s] S[s,k'] / S[0,s].  Over the denominators D
    of S and D_inv of the vacuum inverses, the sum over s of the lifts of
    (D S[i,s]) (D S[j,s]) (D_inv / S[0,s]) (D S[s,k']) to Z[C_N] reduces to
    D^3 D_inv N[i,j]^k, with l1 norm at most B = sum_s max_i |D S[i,s]|_1^2
    |D_inv / S[0,s]|_1 max_k |D S[s,k']|_1.  At primes p = 1 mod N dividing
    neither D nor D_inv, whose product P exceeds 4B, N[i,j]^k images to
    c = sum_s x(i,s) x(j,s) y(s) x(s,k'), x the image of S and
    y(s) = x(0,s)^-1; lifted to 0..P-1, 0 <= c <= B / (D^3 D_inv) certifies
    N[i,j]^k = c, and any other c that it is not a nonnegative integer.
    Certified rows are cached by the images of S[i,s] S[j,s].

    A row that fails is recomputed with ``cyclo.exact_sum``, which names the
    first bad triple and its exact value; so is every row when the check
    fails or no usable prime exists."""

    def __init__(self, datum: ModularDatum, indices: list[int]):
        self.datum, self.indices = datum, indices
        dual = datum.dual_permutation()
        cols = self.cols = [dual[k] for k in indices]
        inverses: dict[Cyclotomic, Cyclotomic] = {}
        for s in range(datum.size):
            denom = datum.entry(0, s)  # MissingEntryError if the vacuum row has a hole
            if denom.is_zero():
                raise ZeroDivisionError(f"S[0,{s}] = 0 in the Verlinde denominator")
            if denom not in inverses:
                # Vacuum-row entries repeat, e.g. S[0,s] = S[0,k-s] for su(2)_k.
                inverses[denom] = inverse(denom)
        self.inverses = [inverses[v] for v in datum.s[0]]
        # The sum reads S^-1[s,k] as S[s,k'], so a full datum's labels must be
        # C; without a C to compare, a bad sum names its own triple.
        if datum.fully_known() and datum.galois is not None:
            try:
                wrong = [i for i, j in enumerate(charge_conjugation(datum)) if dual[i] != j]
            except NotPermutationError:
                wrong = []
            if wrong:
                raise ValueError(f"dual labels disagree with S^2 = C at modules {wrong}")
        self._times = lru_cache(maxsize=None)(mul)
        self._row_cache: dict = {}
        self.primes: list[int] = []
        if datum.galois is None:
            return

        images = datum.images
        norms = datum.as_matrix(images.norms)
        d_inv = lcm(*(c.denominator for v in inverses.values() for c in v.coeffs.values()))
        bound = sum(max((norms[i][s] for i in indices), default=0) ** 2
                    * int(sum(map(abs, inv.coeffs.values())) * d_inv)
                    * max((norms[s][c] for c in cols), default=0)
                    for s, inv in enumerate(self.inverses))
        self.max_coeff = bound // (images.denom ** 3 * d_inv)
        chosen = images.choose_primes(4 * bound, avoid=d_inv)
        self.primes = [p for p, _ in chosen]
        # Per prime, the rows of S, and for each s the images y(s) x(s,k')
        # packed into one integer with a 64-bit slot per k, so one row costs
        # n small modular products and one sum of n packed products.
        self._rows, self._packed = [], []
        for p, x in chosen:
            rows = datum.as_matrix(x)
            self._rows.append(rows)
            self._packed.append([cyclo.pack([y * row[c] % p for c in cols])
                                 for y, row in zip((pow(v, -1, p) for v in rows[0]), rows)])

    def row_for_pair(self, i: int, j: int) -> list[int]:
        """All N[i,j]^k for k in the index set, in index order."""
        if self.primes:
            pairs = [[a * b % p for a, b in zip(rows[i], rows[j])]
                     for p, rows in zip(self.primes, self._rows)]
            key = tuple(map(tuple, pairs))
            out = self._row_cache.get(key)
            if out is None:
                out = cyclo.combine(self.primes, (
                    cyclo.packed_product(pair, packed, len(self.indices), p)
                    for pair, packed, p in zip(pairs, self._packed, self.primes)))
                # A lift above the bound is negative or not an integer: [].
                out = self._row_cache[key] = out if max(out) <= self.max_coeff else []
            if out:
                return out
        times, s = self._times, self.datum.s
        pair = [times(times(a, b), inv) for a, b, inv in zip(s[i], s[j], self.inverses)]
        return [_integer_coeff(cyclo.exact_sum([times(a, row[c]) for a, row in zip(pair, s)]),
                               (i, j, k))
                for k, c in zip(self.indices, self.cols)]


def fusion_tensor(datum: ModularDatum, jobs: int = 1) -> FusionTensor:
    """Every coefficient N[i,j]^k over the computable modules, from one engine.

    The index set is ``computable_indices(datum)``: every module of a fully
    known datum, and the fully known block of a partial one, whose modules
    ``tensor.indices`` lists (``check_ring`` rejects such a tensor).  Raises
    MissingEntryError if the vacuum row is not fully known, ValueError if the
    dual labels of a fully known datum disagree with its S^2 = C, and fails
    atomically on the first non-integer or negative coefficient.  ``jobs``
    is accepted for compatibility and ignored: the tensor is filled pair by
    pair in this process.
    """
    indices = computable_indices(datum)
    engine = _Engine(datum, indices)
    m = len(indices)
    values = [[[0] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            values[a][b] = values[b][a] = engine.row_for_pair(indices[a], indices[b])
    return FusionTensor(indices, values)


def fusion_product(datum: ModularDatum, i: int, j: int) -> dict[int, int]:
    """The fusion product of modules i and j as a formal sum, from one Verlinde row.

    Channels range over ``computable_indices(datum)``.  Raises IndexRangeError
    for an index outside the datum and MissingEntryError when row i or j is
    not fully known.
    """
    for idx in (i, j):
        if not 0 <= idx < datum.size:
            raise IndexRangeError(f"module index {idx} out of range for {datum.size} modules")
    indices = computable_indices(datum)
    # The engine comes first, as in fusion_tensor: a hole in the vacuum row
    # is reported as such before any row is blamed.
    engine = _Engine(datum, indices)
    if i not in indices or j not in indices:
        raise MissingEntryError(f"rows {i}, {j} are not fully known")
    return {k: m for k, m in zip(indices, engine.row_for_pair(i, j)) if m}


# -- ring-property verification ---------------------------------------------

@dataclass
class PropertyReport:
    vacuum_identity: bool = False
    commutative: bool = False
    associative: bool = False
    duality_symmetric: bool = False
    qdim_multiplicative: bool | None = None
    simple_currents: list[int] = field(default_factory=list)
    simple_currents_are_permutations: bool | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.vacuum_identity and self.commutative and self.associative
                and self.duality_symmetric
                and self.qdim_multiplicative is not False
                and self.simple_currents_are_permutations is not False)

    def to_text(self) -> str:
        def mark(v):
            return "ok" if v else ("n/a" if v is None else "FAILED")

        lines = [
            f"vacuum identity: {mark(self.vacuum_identity)}",
            f"commutativity: {mark(self.commutative)}",
            f"associativity: {mark(self.associative)}",
            f"duality symmetry: {mark(self.duality_symmetric)}",
            f"qdim multiplicativity: {mark(self.qdim_multiplicative)}",
            f"simple currents: {self.simple_currents}"
            f" (fusion matrices are permutations: {mark(self.simple_currents_are_permutations)})",
        ]
        for f in self.failures:
            lines.append(f"  failure: {f}")
        return "\n".join(lines)


def check_ring(tensor: FusionTensor, datum: ModularDatum) -> PropertyReport:
    """Verify ring axioms, duality, qdim laws and simple currents exactly.

    Vacuum identity, commutativity, duality and simple currents are integer
    loops.  Qdim multiplicativity and associativity rest on one character
    identity (``_character_identity``): its column 0 is the qdim identity,
    and all its columns, for every pair, prove associativity.  A pair it
    leaves open is compared exactly; unless it holds for every pair,
    associativity is decided by the direct search ``_first_nonassociative``.
    """
    if tensor.indices != list(range(datum.size)):
        raise ValueError("check_ring needs the full tensor over all modules")
    report = PropertyReport()
    n, N, dual = datum.size, tensor.values, datum.dual_permutation()
    every = range(n)
    report.vacuum_identity = all(N[0][j][k] == (j == k) for j in every for k in every)
    if not report.vacuum_identity:
        report.failures.append("N[0,j]^k != delta_jk")
    report.commutative = all(N[i][j] == N[j][i] for i in every for j in range(i))
    if not report.commutative:
        report.failures.append("N[i,j]^k != N[j,i]^k somewhere")
    report.duality_symmetric = all(N[i][j][k] == N[i][dual[k]][dual[j]]
                                   for i in every for j in every for k in every)
    if not report.duality_symmetric:
        report.failures.append("N[i,j]^k != N[i,k']^{j'} somewhere")

    qdims = quantum_dimensions(datum) if datum.known(0, 0) else [None]
    holds = _character_identity(datum, {(i, j): N[i][j] for i in every for j in every})
    certified, bad_pair = holds is not None, None
    # Once N is commutative, pair (j, i) fails iff (i, j) does, and the first
    # failing pair in row-major order has i <= j; only those pairs are checked.
    pairs = [(i, j) for i in every for j in range(i if report.commutative else 0, n)]
    for i, j in pairs if None not in qdims else []:
        verdict = holds and holds(i, j)
        certified = certified and verdict is True
        if verdict is False or verdict is None and cyclo.exact_sum(
                qdims[k] * m for k, m in enumerate(N[i][j]) if m) != qdims[i] * qdims[j]:
            bad_pair = i, j
            break
    bad = None if certified else _first_nonassociative(N)
    report.associative = bad is None
    if bad:
        report.failures.append(f"associativity fails at quadruple {bad}")
    if None in qdims:
        report.qdim_multiplicative = report.simple_currents_are_permutations = None
        return report
    if bad_pair:
        report.failures.append(f"qdim multiplicativity fails at pair {bad_pair}")
    report.qdim_multiplicative = bad_pair is None

    report.simple_currents = [i for i in every if qdims[i] == 1]
    report.simple_currents_are_permutations = True
    for i in report.simple_currents:
        if not all(sorted(line) == [0] * (n - 1) + [1] for line in (*N[i], *zip(*N[i]))):
            report.simple_currents_are_permutations = False
            report.failures.append(f"simple current {i} has a non-permutation fusion matrix")
    return report


def _character_identity(datum: ModularDatum, products: dict):
    """A test of E_ij(s) = S[0,s] sum_k N[i,j]^k S[k,s] - S[i,s] S[j,s] = 0 at
    every column s, for the rows N[i,j] = ``products[i, j]`` (lists of n
    integers), or None without S fully known, its Galois permutations and
    S^2 = C.  ``check_ring`` passes the whole tensor: with those, E_ij = 0 for
    all pairs (i <= j for a commutative N) makes R[m,s] = S[m,s]/S[0,s]
    invertible, and i -> R[i,.] embeds N in C^n with the pointwise product,
    so N is associative (Etingof-Gelaki-Nikshych-Ostrik, *Tensor Categories*,
    ch. 3).  ``branching.eigen_complete`` passes the recorded fusion products,
    to certify its eigenvector relations at every column at once.  sigma_a
    maps E_ij(s) to E_ij(pi_a(s)), the column signs cancelling, so the
    datum's one image of S per prime (``ModularDatum.images``) images every
    E_ij(s) at every unit.  With x = D S lifted to Z[C_N],
    |D^2 E_ij(s)|_1 <= |x[0,s]| W t_s + t_s^2, t_s = max_k |x[k,s]|_1 and W
    the largest row sum of |N| over ``products``; primes whose product
    exceeds twice that prove E_ij = 0 from zero images.  The test of (i, j)
    gives True then, False on a nonzero image at s = 0 (a certified qdim
    failure), and None otherwise.
    """
    if not datum.fully_known() or datum.galois is None:
        return None
    try:
        charge_conjugation(datum)
    except NotPermutationError:
        return None
    images, n = datum.images, datum.size
    norms = datum.as_matrix(images.norms)
    weight = max(sum(map(abs, row)) for row in products.values())
    chosen = images.choose_primes(2 * max(x0 * weight * t + t * t for x0, t in
                                          zip(norms[0], map(max, zip(*norms)))))
    if not chosen:
        return None
    # Per prime, S and its rows with column s scaled by S[0,s], packed.
    primes = []
    for p, x in chosen:
        x = datum.as_matrix(x)
        primes.append((p, x, [cyclo.pack([a * b % p for a, b in zip(row, x[0])]) for row in x]))

    def holds(i: int, j: int) -> bool | None:
        verdict = True
        for p, x, rows in primes:
            lhs = cyclo.packed_product([m % p for m in products[i, j]], rows, n, p)
            if lhs[0] != x[i][0] * x[j][0] % p:
                return False
            if lhs != [a * b % p for a, b in zip(x[i], x[j])]:
                verdict = None
        return verdict

    return holds


def _first_nonassociative(values) -> tuple[int, int, int, int] | None:
    """The first quadruple (i, j, k, l), in row-major order, with
    sum_m N[i,j]^m N[m,k]^l != sum_m N[j,k]^m N[i,m]^l; None if there is none.

    Per (i, j), each side is one integer with a b-bit slot per (k, l) at
    place kn + l, X = 2^b: sum_m N[i,j]^m P_m, P_m the plane N[m] packed, and
    sum_m A_im B_jm, A_im = sum_l N[i,m]^l X^l, B_jm = sum_k N[j,k]^m X^kn.
    No slot exceeds n max|N|^2 < X/4, so the sides are equal iff all slots
    are, and the lowest set bit of their difference is in the first slot
    that differs.
    """
    n = len(values)
    top = max(abs(m) for plane in values for row in plane for m in row)
    width = (4 * n * top * top).bit_length() + 1

    def packed(entries, stride=1):
        return sum(m << stride * width * t for t, m in enumerate(entries))

    planes = [packed([m for row in plane for m in row]) for plane in values]
    rows = [[packed(row) for row in plane] for plane in values]
    columns = [[packed(column, n) for column in zip(*plane)] for plane in values]
    for i in range(n):
        for j in range(n):
            diff = sum(map(mul, values[i][j], planes)) - sum(map(mul, rows[i], columns[j]))
            if diff:
                return (i, j, *divmod(((diff & -diff).bit_length() - 1) // width, n))
    return None


# -- fixture regression -------------------------------------------------------

@dataclass
class Discrepancy:
    left: int
    right: int
    expected: dict[int, int]
    computed: dict[int, int]
    soft: bool = False
    citation: str = ""

    def to_text(self, names: list[str] | None = None) -> str:
        kind = "soft" if self.soft else "hard"
        cite = f" [{self.citation}]" if self.citation else ""
        return (f"{kind} fixture ({self.left}, {self.right}){cite}: expected "
                f"{format_formal_sum(self.expected, names)}, computed "
                f"{format_formal_sum(self.computed, names)}")


def applicable_fixtures(tensor: FusionTensor, fixtures) -> list:
    """The fixtures whose modules all lie in the tensor's index set: the comparable ones."""
    return [fx for fx in fixtures
            if all(tensor.has_index(i) for i in (fx.left, fx.right, *fx.terms))]


def compare_fixtures(tensor: FusionTensor, fixtures) -> list[Discrepancy]:
    """Empty list iff every applicable fixture matches the tensor exactly."""
    out = []
    for fx in applicable_fixtures(tensor, fixtures):
        computed = tensor.product(fx.left, fx.right)
        # A partial tensor only sees channels inside its index set.
        expected = dict(sorted(fx.terms.items()))
        if computed != expected:
            out.append(Discrepancy(fx.left, fx.right, expected, computed,
                                   soft=fx.soft, citation=fx.citation))
    return out


def tensor_to_triples(tensor: FusionTensor) -> str:
    """Canonical regression artifact: lines "i j k N", sorted, zeros omitted."""
    lines = []
    for i in tensor.indices:
        for j in tensor.indices:
            for k, m in sorted(tensor.product(i, j).items()):
                lines.append(f"{i} {j} {k} {m}")
    return "\n".join(lines) + ("\n" if lines else "")


def triples_to_fixtures(text: str):
    """Read a triples file back as fixture records (for regression runs).

    A triple declared twice is a DuplicateEntryError, and N <= 0 a ParseError,
    as in datum files.
    """
    sums: dict[tuple[int, int], dict[int, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            i, j, k, m = (int(x) for x in line.split())
        except ValueError:
            raise ParseError("triple lines are: i j k N", 0, line_no) from None
        if m <= 0:
            raise ParseError("multiplicities must be positive", 0, line_no)
        channels = sums.setdefault((i, j), {})
        if k in channels:
            raise DuplicateEntryError(f"line {line_no}: triple {(i, j, k)} declared twice")
        channels[k] = m
    return [FixtureRecord(left=i, right=j, terms=terms)
            for (i, j), terms in sorted(sums.items())]
