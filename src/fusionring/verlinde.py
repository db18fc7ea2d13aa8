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

Coefficients are certified by the datum's one engine (``ModularDatum.engine``,
which certifies S^2 = C too) from its image of S modulo primes p = 1 mod N;
no float is consulted, and a row that fails is summed exactly, so its error
carries its exact value (``_row_for_pair``).  The engine serves
``fusion_tensor``, ``fusion_product`` and ``check_ring``, which certifies
qdim multiplicativity and associativity when the engine reproduces every
row of the tensor (``_reproduces``), and otherwise compares qdims exactly
and searches for a non-associative quadruple directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import cyclo
from .cyclo import Cyclotomic, format_brief
from .mdf import (DuplicateEntryError, FixtureRecord, IndexRangeError, ParseError,
                  format_formal_sum)
from .modular_data import (MissingEntryError, ModularDatum, NotPermutationError,
                           dual_mismatches, quantum_dimensions)

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


def _engine(datum: ModularDatum):
    """``datum.engine``; ValueError if a full datum passing the Galois check
    has dual labels other than its C, as the rows read S^-1[s,k] as S[s,k'].
    Without a C to compare, a bad sum names its own triple."""
    engine = datum.engine
    if datum.fully_known() and datum.galois is not None:
        try:
            wrong = dual_mismatches(datum)
        except NotPermutationError:
            wrong = []
        if wrong:
            raise ValueError(f"dual labels disagree with S^2 = C at modules {wrong}")
    return engine


def _row_for_pair(engine, i: int, j: int) -> list[int]:
    """All N[i,j]^k for k in ``engine.indices``, in index order: the engine's
    certified row, or else the row summed exactly with ``cyclo.exact_sum``,
    which names the first bad triple and its exact value."""
    out = engine.certified(i, j)
    if out:
        return out
    times, s = engine.times, engine.s
    pair = [times(times(a, b), inv) for a, b, inv in zip(s[i], s[j], engine.inverses)]
    return [_integer_coeff(cyclo.exact_sum([times(a, row[c]) for a, row in zip(pair, s)]),
                           (i, j, k))
            for k, c in zip(engine.indices, engine.cols)]


def fusion_tensor(datum: ModularDatum, jobs: int = 1) -> FusionTensor:
    """Every coefficient N[i,j]^k over the computable modules, from one engine.

    The index set is ``computable_indices(datum)``: every module of a fully
    known datum, and the fully known block of a partial one, whose modules
    ``tensor.indices`` lists (``check_ring`` rejects such a tensor).  Raises
    MissingEntryError if the vacuum row is not fully known, ValueError if the
    dual labels of a fully known datum disagree with its S^2 = C, and fails
    atomically on the first non-integer or negative coefficient.  Each row is
    a list of its own.  ``jobs`` is accepted for compatibility and ignored.
    """
    engine = _engine(datum)
    indices = engine.indices
    m = len(indices)
    values = [[[0] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            row = values[a][b] = _row_for_pair(engine, indices[a], indices[b])
            values[b][a] = row[:]
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
    # The engine comes first, as in fusion_tensor: a hole in the vacuum row
    # is reported as such before any row is blamed.
    engine = _engine(datum)
    if i not in engine.indices or j not in engine.indices:
        raise MissingEntryError(f"rows {i}, {j} are not fully known")
    return {k: m for k, m in zip(engine.indices, _row_for_pair(engine, i, j)) if m}


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
    loops.  Qdim multiplicativity and associativity hold when the datum's
    engine reproduces the tensor (``_reproduces``); otherwise the qdims of
    each pair are compared by exact sums, and associativity is decided by
    the direct search ``_first_nonassociative``.
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
    # Once N is commutative, pair (j, i) fails iff (i, j) does, and the first
    # failing pair in row-major order has i <= j; only those pairs are checked.
    pairs = [(i, j) for i in every for j in range(i if report.commutative else 0, n)]
    certified = _reproduces(datum, {(i, j): N[i][j] for i, j in pairs})
    bad_pair = None if certified or None in qdims else next((
        (i, j) for i, j in pairs if cyclo.exact_sum(
            qdims[k] * m for k, m in enumerate(N[i][j]) if m) != qdims[i] * qdims[j]), None)
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


def _reproduces(datum: ModularDatum, rows: dict) -> bool:
    """Whether S is fully known, passes ``datum.galois`` and S^2 = C, its dual
    labels are C (``dual_mismatches``), its engine has primes, and each
    ``rows[i, j]`` (n integers) equals the engine's certified row N[i,j].
    Then S^-1[s,k] = S[s,k'] gives N[i,j] = v S^-1, v(s) = S[i,s] S[j,s] / S[0,s],
    so E_ij(s) = S[0,s] sum_k N[i,j]^k S[k,s] - S[i,s] S[j,s] = 0 at every
    column s, whose column 0 is the qdim identity.  ``check_ring`` passes the
    whole tensor (i <= j for a commutative N): the matrix
    R[m,s] = S[m,s]/S[0,s] is invertible, and i -> R[i,.] embeds N in C^n
    with the pointwise product, so N is associative
    (Etingof-Gelaki-Nikshych-Ostrik, *Tensor Categories*, ch. 3).
    ``branching.eigen_complete`` passes the recorded fusion products, to
    certify its eigenvector relations at every column at once."""
    if not datum.fully_known() or datum.galois is None:
        return False
    try:
        engine, wrong = datum.engine, dual_mismatches(datum)
    except (ZeroDivisionError, NotPermutationError):  # S[0,s] = 0, S^2 != C
        return False
    return not wrong and bool(engine.primes) and all(
        engine.certified(i, j) == row for (i, j), row in rows.items())


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
