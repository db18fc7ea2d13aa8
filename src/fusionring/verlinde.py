"""Fusion coefficients and fusion-ring structure from a modular datum.

The central sum is N[i,j]^k = sum_s S[i,s] S[j,s] S[s,k'] / S[0,s], with the
inverse S-matrix realized through the dual permutation k -> k' rather than a
matrix inversion; the two agree for valid data (``modular_data.validate``
certifies S^2 = C, hence S^-1[s,k] = S[s,k'], and checks that this equals
conj(S[k,s])) and the permutation form is exact and O(1) per entry.  Every
coefficient is computed in exact cyclotomic arithmetic and must canonicalize
to a nonnegative rational integer; anything else signals an inconsistent
S-matrix and aborts the tensor computation with the offending triple.

``fusion_tensor`` is the one tensor entry point.  It chooses its own index
set, the modules whose S row and dual column are fully known
(``computable_indices``): every module of a full datum, and the fully known
block of a partial one, so the same call certifies a completed datum and
checks a partial one before completion.  ``fusion_product`` evaluates one
row of that tensor with the same engine.

Every coefficient goes through the exact accumulation kernel of ``cyclo``:
its terms are summed as integer exponent maps at one common order and
canonicalized once, never once per addition.  Column quantities S[i,s]/S[0,s]
and S[0,s] S[s,k'] are memoized, so the full tensor costs one raw integer
multiply-add per (i,j,k,s) with i <= j, and the (i,j) pair work can be
partitioned across processes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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


class _Engine:
    """Memoized per-datum quantities for bulk tensor computation.

    Column ratios S[i,s]/S[0,s] and column products S[0,s]*S[s,k'] are
    canonical products taken from a ``cyclo.ProductMemo``, and every
    coefficient uses the kernel's integer path: terms are lifted once to the
    common order over a shared denominator, summed in Z[C_N] and canonicalized
    once by ``_from_int_terms``.  The engine convolves each pair product with
    each column product through ``cyclo._convolve`` instead of going through
    ``cyclo.matmul``: those products rarely repeat, so memoizing them would
    canonicalize every term and save nothing (it made the su(2)_24 tensor
    about 1.6 times slower).  Rows are cached by the vector of pair-product
    ids, which collapses e.g. a cyclic group datum from quadratically to
    linearly many distinct inner loops.
    """

    def __init__(self, datum: ModularDatum, indices: list[int]):
        n = datum.size
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
        memo = cyclo.ProductMemo()
        intern = memo.intern
        inv0_ids = [intern(v) for v in inv0]
        ratio = {i: [memo.product(intern(datum.entry(i, s)), inv0_ids[s])
                     for s in range(n)] for i in indices}
        colq = {k: [memo.values[memo.product(intern(datum.entry(0, s)),
                                             intern(datum.entry(s, dual[k])))]
                    for s in range(n)] for k in indices}
        ratio_values = [memo.values[r] for ids in ratio.values() for r in ids]
        col_values = [v for vals in colq.values() for v in vals]
        self.common = cyclo._common_order(ratio_values + col_values)
        self.memo = memo
        self.ratio = ratio
        denom_r = cyclo._denominator_lcm(ratio_values)
        denom_t = cyclo._denominator_lcm(col_values)
        # A product of two ratios has denominators dividing denom_r^2, because
        # the canonical basis is integral.
        self.pair_denom = denom_r * denom_r
        self.acc_denom = self.pair_denom * denom_t
        self.col_int = {k: [cyclo._lift_into({}, v, self.common, denom_t) for v in vals]
                        for k, vals in colq.items()}
        self._pair_int: dict[int, dict[int, int]] = {}
        self._row_cache: dict = {}

    def _lifted_pair(self, pid: int) -> dict[int, int]:
        lifted = self._pair_int.get(pid)
        if lifted is None:
            lifted = self._pair_int[pid] = cyclo._lift_into(
                {}, self.memo.values[pid], self.common, self.pair_denom)
        return lifted

    def row_for_pair(self, i: int, j: int) -> list[int]:
        """All N[i,j]^k for k in the index set, in index order."""
        product = self.memo.product
        pair = tuple(product(a, b) for a, b in zip(self.ratio[i], self.ratio[j]))
        cached = self._row_cache.get(pair)
        if cached is not None:
            return cached
        common = self.common
        pair_int = [self._lifted_pair(p) for p in pair]
        out = []
        for k in self.indices:
            acc = cyclo._convolve(zip(pair_int, self.col_int[k]), common)
            value = cyclo._from_int_terms(common, acc, self.acc_denom)
            out.append(_integer_coeff(value, (i, j, k)))
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

    ok = True
    for i in range(n):
        for j in range(n):
            lhs = cyclo.exact_sum(qdims[k] * m for k, m in enumerate(tensor.values[i][j]) if m)
            if lhs != qdims[i] * qdims[j]:
                ok = False
                report.failures.append(f"qdim multiplicativity fails at pair ({i}, {j})")
                break
        if not ok:
            break
    report.qdim_multiplicative = ok

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
