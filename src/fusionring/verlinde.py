"""Fusion coefficients and fusion-ring structure from a modular datum.

The central sum is N[i,j]^k = sum_s S[i,s] S[j,s] S[s,k'] / S[0,s], with the
inverse S-matrix realized through the dual permutation k -> k' rather than a
matrix inversion; the two agree for valid data (``modular_data.validate``
certifies S^2 = C, hence S^-1[s,k] = S[s,k'], and checks that this equals
conj(S[k,s])) and the permutation form is exact and O(1) per entry.  Every
coefficient must be a nonnegative rational integer; anything else signals
an inconsistent S-matrix and aborts the tensor computation with the
offending triple.

``fusion_tensor`` is the one tensor entry point.  It chooses its own index
set, the modules whose S row and dual column are fully known
(``computable_indices``): every module of a full datum, and the fully known
block of a partial one, so the same call certifies a completed datum and
checks a partial one before completion.  ``fusion_product`` evaluates one
row of that tensor with the same engine.

Coefficients are certified by their images modulo primes p = 1 mod N, N
the common order of the sum's terms (``cyclo.Images``): each image is a
plain integer contraction mod p, and an l1 bound on the deferred sum in
Z[C_N] turns agreement of every image into an exact equality (see
``_Engine``).  No coefficient is canonicalized and no float is consulted.  A
coefficient that fails is recomputed with ``cyclo.exact_sum``, so the error
carries its exact value.  Column quantities S[i,s]/S[0,s] and S[0,s] S[s,k']
are memoized, rows are cached by their exact pair products, and the (i,j)
pair work can be partitioned across processes.  ``check_ring`` certifies
qdim multiplicativity through the same images.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from operator import mul

from . import cyclo
from .cyclo import Cyclotomic, inverse
from .mdf import (DuplicateEntryError, FixtureRecord, IndexRangeError, ParseError,
                  format_formal_sum)
from .modular_data import MissingEntryError, ModularDatum, quantum_dimensions

__all__ = [
    "NonIntegerResultError", "NegativeResultError",
    "FusionTensor", "fusion_tensor", "fusion_product",
    "check_ring", "applicable_fixtures", "compare_fixtures",
    "tensor_to_triples", "triples_to_fixtures",
]


class NonIntegerResultError(ArithmeticError):
    """A Verlinde sum failed to canonicalize to a rational integer."""

    def __init__(self, triple, residual):
        super().__init__(f"N{triple} is not a rational integer: {residual}")
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


def computable_indices(datum: ModularDatum) -> list[int]:
    """The modules whose S row and dual column are fully known.

    Every coefficient N[i,j]^k with i, j, k among them needs only those rows
    and columns besides the vacuum row; ``fusion_tensor`` computes over them.
    """
    n = datum.size
    dual = datum.dual_permutation()
    return [i for i in range(n)
            if all(datum.known(i, s) and datum.known(s, dual[i]) for s in range(n))]


def _integer_coeff(value: Cyclotomic, triple) -> int:
    if not value.is_rational():
        raise NonIntegerResultError(triple, value)
    r = value.as_rational()
    if r.denominator != 1:
        raise NonIntegerResultError(triple, value)
    n = r.numerator
    if n < 0:
        raise NegativeResultError(triple, n)
    return n


def _positions(ids) -> dict[int, int]:
    """Each distinct id mapped to the order of its first occurrence."""
    return {v: p for p, v in enumerate(dict.fromkeys(ids))}


class _Image:
    """The engine's ratios and column values at one unit of one prime p.

    The column images are packed, for each s, into one integer with a 64-bit
    slot per k, so one row costs n small modular products and one sum of n
    packed products.
    """

    def __init__(self, ratio: dict[int, list[int]], colq: list[list[int]], p: int, images):
        # No reference back to the engine: a cycle would keep every engine
        # alive until the next garbage collection.
        self.values, col = images
        self.p = p
        self.ratio = ratio
        self.slots = len(colq)
        self.packed = [cyclo.pack([col[c] for c in column]) for column in zip(*colq)]

    def row(self, i: int, j: int) -> list[int]:
        """sum_s R[i,s] R[j,s] T[s,k] mod p for every k, in index order."""
        p, values = self.p, self.values
        pair = [values[x] * values[y] % p for x, y in zip(self.ratio[i], self.ratio[j])]
        return cyclo.packed_product(pair, self.packed, self.slots, p)


class _Engine:
    """Memoized per-datum quantities for bulk tensor computation.

    Column ratios r_i(s) = S[i,s]/S[0,s] and column products
    t_k(s) = S[0,s]*S[s,k'] are canonical products taken from a
    ``cyclo.ProductMemo``.  Rows are cached by the vector of pair-product ids
    r_i(s) r_j(s), which collapses e.g. a cyclic group datum from
    quadratically to linearly many distinct rows.

    A row is certified from its images in prime fields (``cyclo.Images``),
    never by canonicalizing a coefficient.  Lift every r_i(s) and t_k(s) to
    an integer exponent map at the common order N over the denominators D_r
    and D_t; then A = sum_s r_i r_j t_k, summed in Z[C_N], reduces to
    D N[i,j]^k with D = D_r^2 D_t, and its l1 norm is at most
    B = sum_s (max_i |r_i(s)|_1)^2 max_k |t_k(s)|_1.  If every image of
    N[i,j]^k is c mod p, for primes p = 1 mod N whose product P exceeds 4B
    and c lifted to 0..P-1, then 0 <= c <= B/D certifies N[i,j]^k = c, and
    any other c certifies that it is not a nonnegative integer.

    A row that fails -- images that disagree, or a lift out of range -- is
    recomputed with ``cyclo.exact_sum``, which names the first bad triple and
    its exact value.  So does every row when no usable prime exists.
    """

    def __init__(self, datum: ModularDatum, indices: list[int]):
        n = self.n = datum.size
        self.indices = indices
        dual = datum.dual_permutation()
        inverses: dict[Cyclotomic, Cyclotomic] = {}
        inv0 = []
        for s in range(n):
            denom = datum.entry(0, s)  # MissingEntryError if the vacuum row has a hole
            if denom.is_zero():
                raise ZeroDivisionError(f"S[0,{s}] = 0 in the Verlinde denominator")
            if denom not in inverses:
                # Vacuum-row entries repeat, e.g. S[0,s] = S[0,k-s] for su(2)_k.
                inverses[denom] = inverse(denom)
            inv0.append(inverses[denom])
        memo = self.memo = cyclo.ProductMemo()
        intern, product, values = memo.intern, memo.product, memo.values
        inv0_ids = [intern(v) for v in inv0]
        self.ratio = {i: [product(intern(datum.entry(i, s)), inv0_ids[s]) for s in range(n)]
                      for i in indices}
        self.colq = {k: [product(intern(datum.entry(0, s)), intern(datum.entry(s, dual[k])))
                         for s in range(n)] for k in indices}
        self._row_cache: dict = {}

        # Each distinct ratio and column value is imaged once, at its position.
        ratio_pos = _positions(v for ids in self.ratio.values() for v in ids)
        col_pos = _positions(v for ids in self.colq.values() for v in ids)
        ratio = {i: [ratio_pos[v] for v in ids] for i, ids in self.ratio.items()}
        colq = [[col_pos[v] for v in self.colq[k]] for k in indices]
        images = self.images = cyclo.Images(
            [[values[v] for v in ratio_pos], [values[v] for v in col_pos]],
            partial(_Image, ratio, colq))
        (d_r, d_t), (r_norm, t_norm) = images.denoms, images.norms
        bound = sum(max((r_norm[ratio[i][s]] for i in indices), default=0) ** 2
                    * max((t_norm[col[s]] for col in colq), default=0)
                    for s in range(n))
        self.max_coeff = bound // (d_r * d_r * d_t)
        images.choose_primes(4 * bound, summands=n)
        self.primes = images.primes

    def _certified_row(self, i: int, j: int) -> list[int] | None:
        """The row if its images certify it, else None."""
        out = self.images.common(lambda image: image.row(i, j))
        if out is None or any(c > self.max_coeff for c in out):
            return None  # negative, or not an integer
        return out

    def row_for_pair(self, i: int, j: int) -> list[int]:
        """All N[i,j]^k for k in the index set, in index order."""
        product = self.memo.product
        pair = tuple(product(a, b) for a, b in zip(self.ratio[i], self.ratio[j]))
        cached = self._row_cache.get(pair)
        if cached is not None:
            return cached
        out = self._certified_row(i, j) if self.primes else None
        if out is None:
            values = self.memo.values
            out = [_integer_coeff(cyclo.exact_sum([values[a] * values[b]
                                                   for a, b in zip(pair, self.colq[k])]),
                                  (i, j, k))
                   for k in self.indices]
        self._row_cache[pair] = out
        return out


def _pair_rows(engine: _Engine, pairs: list[tuple[int, int]]):
    return [(i, j, engine.row_for_pair(i, j)) for i, j in pairs]


_worker_engine: _Engine | None = None


def _worker_init(datum: ModularDatum, indices: list[int]) -> None:
    global _worker_engine
    _worker_engine = _Engine(datum, indices)


def _worker_rows(pairs: list[tuple[int, int]]):
    return _pair_rows(_worker_engine, pairs)


def fusion_tensor(datum: ModularDatum, jobs: int = 1) -> FusionTensor:
    """Every coefficient N[i,j]^k over the computable modules.

    The index set is ``computable_indices(datum)``: every module of a fully
    known datum, and the fully known block of a partial one, whose modules
    ``tensor.indices`` lists (``check_ring`` rejects such a tensor).  Raises
    MissingEntryError if the vacuum row is not fully known, and fails
    atomically on the first non-integer or negative coefficient.  With
    jobs > 1 the (i,j) pairs are partitioned over worker processes and the
    results merged in deterministic order; the worker count is capped by the
    CPU count and the number of pairs.
    """
    indices = computable_indices(datum)
    pos = {idx: p for p, idx in enumerate(indices)}
    m = len(indices)
    pairs = [(indices[a], indices[b]) for a in range(m) for b in range(a, m)]
    workers = min(jobs, os.cpu_count() or 1, len(pairs))
    if workers > 1:
        chunks = [pairs[c::workers] for c in range(workers)]
        results = []
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(datum, indices)) as pool:
            for part in pool.map(_worker_rows, chunks):
                results.extend(part)
    else:
        engine = _Engine(datum, indices)
        results = _pair_rows(engine, pairs)
    values = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i, j, row in sorted(results, key=lambda t: (t[0], t[1])):
        a, b = pos[i], pos[j]
        values[a][b] = row
        if a != b:
            values[b][a] = row
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
    """Verify ring axioms, duality, qdim laws and simple currents exactly."""
    import numpy as np

    report = PropertyReport()
    if tensor.indices != list(range(datum.size)):
        raise ValueError("check_ring needs the full tensor over all modules")
    n = datum.size
    N = np.array(tensor.values, dtype=np.int64)

    ident = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(ident, 1)
    report.vacuum_identity = bool((N[0] == ident).all())
    if not report.vacuum_identity:
        report.failures.append("N[0,j]^k != delta_jk")

    report.commutative = bool((N == N.transpose(1, 0, 2)).all())
    if not report.commutative:
        report.failures.append("N[i,j]^k != N[j,i]^k somewhere")

    dual = datum.dual_permutation()
    dualized = N[:, dual, :][:, :, dual].transpose(0, 2, 1)
    report.duality_symmetric = bool((N == dualized).all())
    if not report.duality_symmetric:
        report.failures.append("N[i,j]^k != N[i,k']^{j'} somewhere")

    # (i j) k = i (j k): sum_m N[i,j,m] N[m,k,l] = sum_m N[j,k,m] N[i,m,l] for
    # every quadruple.  Compare one i at a time so memory stays O(n^3).
    report.associative = True
    by_first, by_last = N.reshape(n, n * n), N.reshape(n * n, n)
    for i in range(n):
        left = (N[i] @ by_first).reshape(n, n, n)
        right = (by_last @ N[i]).reshape(n, n, n)
        if not (left == right).all():
            report.associative = False
            bad = (i, *np.argwhere(left != right)[0])
            report.failures.append(
                f"associativity fails at quadruple {tuple(int(x) for x in bad)}")
            break

    qdims = quantum_dimensions(datum) if datum.known(0, 0) else [None]
    if any(q is None for q in qdims):
        report.qdim_multiplicative = None
        report.simple_currents_are_permutations = None
        return report

    # Once N is commutative, pair (j, i) fails iff (i, j) does, and the first
    # failing pair in row-major order has i <= j; only those pairs are checked.
    bad = _first_qdim_failure(tensor.values, qdims, report.commutative)
    if bad is not None:
        report.failures.append(f"qdim multiplicativity fails at pair {bad}")
    report.qdim_multiplicative = bad is None

    one = Cyclotomic.one()
    report.simple_currents = [i for i in range(n) if qdims[i] == one]
    perm_ok = True
    for i in report.simple_currents:
        mat = N[i]
        if not ((mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
                and ((mat == 0) | (mat == 1)).all()):
            perm_ok = False
            report.failures.append(f"simple current {i} has a non-permutation fusion matrix")
    report.simple_currents_are_permutations = perm_ok
    return report


def _first_qdim_failure(values, qdims, commutative: bool) -> tuple[int, int] | None:
    """The first pair (i, j), in row-major order, with sum_k N[i,j]^k d_k != d_i d_j.

    With x = D d lifted to Z[C_N] (``cyclo.Images``), the difference times D^2
    is A = D sum_k N[i,j]^k x_k - x_i x_j, whose l1 norm is at most
    D |x|_max sum_k N[i,j]^k + |x|_max^2.  A nonzero image of a pair certifies
    that it fails; zero images at every unit of primes whose product exceeds
    twice that bound certify that it holds.  Without such primes every pair
    is compared exactly.
    """
    n = len(qdims)
    images = cyclo.Images([qdims], lambda p, images: (p, images[0]))
    (norms,), (denom,) = images.norms, images.denoms
    top = max(norms)
    bound = denom * top * max(sum(row) for plane in values for row in plane) + top * top
    certified = images.choose_primes(2 * bound)
    for i in range(n):
        pairs = range(i if commutative else 0, n)
        if certified:
            nonzero = set()
            for q in range(len(images.primes)):
                for p, x in images.images(q):
                    xi = x[i]
                    nonzero.update(j for j in pairs
                                   if (sum(map(mul, values[i][j], x)) - xi * x[j]) % p)
            if nonzero:
                return i, min(nonzero)
        else:
            for j in pairs:
                lhs = cyclo.exact_sum(qdims[k] * m for k, m in enumerate(values[i][j]) if m)
                if lhs != qdims[i] * qdims[j]:
                    return i, j
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

    A triple declared twice is a DuplicateEntryError, as in datum files.
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
        channels = sums.setdefault((i, j), {})
        if k in channels:
            raise DuplicateEntryError(f"line {line_no}: triple {(i, j, k)} declared twice")
        channels[k] = m
    return [FixtureRecord(left=i, right=j, terms=terms)
            for (i, j), terms in sorted(sums.items())]
