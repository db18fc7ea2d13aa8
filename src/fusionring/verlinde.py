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

Every row comes from the datum's one engine (``ModularDatum.engine``, which
certifies S^2 = C too): certified from its image of S modulo primes
p = 1 mod N, no float consulted, or else summed exactly, so its error
(``NonIntegerResultError``, ``NegativeResultError``) carries its exact value
(``modular_data._Engine.row``).  The engine serves ``fusion_tensor``,
``fusion_product`` and ``check_ring``.  A row is one tuple, which the engine
and every tensor that holds it share.  The ring check compares N[i,j] with
N[j,i]; when the datum then reproduces every row (``ModularDatum.reproduces``),
each pair imaged once per datum, N is the Verlinde tensor of an S with
S^2 = C, so qdims, associativity and simple currents are certified, the
vacuum identity N[0,j]^k = (S^2)[j,k'] = delta_jk holds unread, and so does
duality when S = S^T.  Otherwise it compares rows with rows and permuted
columns and decides the rest exactly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import itemgetter, mul

from . import cyclo
from .mdf import (DuplicateEntryError, FixtureRecord, IndexRangeError, ParseError,
                  Record, format_formal_sum)
from .modular_data import (MissingEntryError, ModularDatum, NegativeResultError,
                           NonIntegerResultError, NotPermutationError,
                           dual_mismatches, quantum_dimensions)

__all__ = [
    "NonIntegerResultError", "NegativeResultError",
    "FusionTensor", "fusion_tensor", "fusion_product",
    "check_ring", "applicable_fixtures", "compare_fixtures",
    "tensor_to_triples", "triples_to_fixtures",
]


class FusionTensor:
    """Nonnegative-integer coefficients N[i,j]^k over a set of module indices.

    ``indices`` are the datum-level module indices of the three axes; a full
    tensor has indices 0..d, a partial one (for block computations on a
    partly known S-matrix) any subset.  ``rows[a][b]``, a tuple, is N[i,j] for
    the a-th and b-th indices i and j; ``values`` is a fresh nested-list copy.
    """

    def __init__(self, indices: list[int], values):
        self.indices, n = list(indices), len(indices)
        # Lists first: tuple() of an iterator resizes as it grows, fragmenting the heap.
        self.rows = tuple([tuple([tuple(row) for row in plane]) for plane in values])
        if {len(self.rows), *map(len, self.rows), *map(len, chain(*self.rows))} != {n}:
            raise ValueError(f"a tensor over {n} modules is not {n} x {n} x {n}")
        self._pos = {idx: p for p, idx in enumerate(self.indices)}

    @property
    def values(self) -> list[list[list[int]]]:
        return [[list(row) for row in plane] for plane in self.rows]

    @property
    def size(self) -> int:
        return len(self.indices)

    def has_index(self, i: int) -> bool:
        return i in self._pos

    def coeff(self, i: int, j: int, k: int) -> int:
        return self.rows[self._pos[i]][self._pos[j]][self._pos[k]]

    def product(self, i: int, j: int) -> dict[int, int]:
        """The fusion product of irreducibles i and j as a formal sum."""
        row = self.rows[self._pos[i]][self._pos[j]]
        return {self.indices[pk]: m for pk, m in enumerate(row) if m}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionTensor):
            return NotImplemented
        return self.indices == other.indices and self.rows == other.rows


def _engine(datum: ModularDatum):
    """``datum.engine``; ValueError if a full datum whose engine passed the
    Galois check (``engine.galois``) has dual labels other than its C, as the
    rows read S^-1[s,k] as S[s,k'].  Without a C to compare, a bad sum names
    its own triple."""
    engine = datum.engine
    if datum.fully_known() and engine.galois is not None:
        try:
            wrong = dual_mismatches(datum)
        except NotPermutationError:
            wrong = []
        if wrong:
            raise ValueError(f"dual labels disagree with S^2 = C at modules {wrong}")
    return engine


def fusion_tensor(datum: ModularDatum, jobs: int = 1) -> FusionTensor:
    """Every coefficient N[i,j]^k over the computable modules, from one engine.

    The index set is ``computable_indices(datum)``: every module of a fully
    known datum, and the fully known block of a partial one, whose modules
    ``tensor.indices`` lists (``check_ring`` rejects such a tensor).  Raises
    MissingEntryError if the vacuum row is not fully known, ValueError if the
    dual labels of a fully known datum disagree with its S^2 = C, and fails
    atomically on the first non-integer or negative coefficient.  N[i,j] and
    N[j,i] are both the engine's row, one tuple.  ``jobs`` is accepted for
    compatibility and ignored.
    """
    engine = _engine(datum)
    indices = engine.indices
    m = len(indices)
    values = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            values[a][b] = values[b][a] = engine.row(indices[a], indices[b])
    return FusionTensor(indices, values)


def fusion_product(datum: ModularDatum, i: int, j: int) -> dict[int, int]:
    """The fusion product of modules i and j as a formal sum, from one Verlinde row.

    Channels range over ``computable_indices(datum)``.  Raises IndexRangeError
    for an index outside the datum and MissingEntryError naming the rows
    among i and j that are not fully known.
    """
    for idx in (i, j):
        if not 0 <= idx < datum.size:
            raise IndexRangeError(f"module index {idx} out of range for {datum.size} modules")
    # The engine comes first, as in fusion_tensor: a hole in the vacuum row
    # is reported as such before any row is blamed.
    engine = _engine(datum)
    missing = [idx for idx in dict.fromkeys((i, j)) if idx not in engine.indices]
    if missing:
        rows = f"row {missing[0]} is" if len(missing) == 1 else f"rows {i}, {j} are"
        raise MissingEntryError(f"{rows} not fully known")
    return {k: m for k, m in zip(engine.indices, engine.row(i, j)) if m}


# -- ring-property verification ---------------------------------------------

class PropertyReport(Record):
    """The verdicts of ``check_ring``; None where a check does not apply."""

    def __init__(self, vacuum_identity: bool = False, commutative: bool = False,
                 associative: bool = False, duality_symmetric: bool = False,
                 qdim_multiplicative: bool | None = None,
                 simple_currents: list[int] | None = None,
                 simple_currents_are_permutations: bool | None = None,
                 failures: list[str] | None = None):
        self.vacuum_identity, self.commutative = vacuum_identity, commutative
        self.associative, self.duality_symmetric = associative, duality_symmetric
        self.qdim_multiplicative = qdim_multiplicative
        self.simple_currents = [] if simple_currents is None else simple_currents
        self.simple_currents_are_permutations = simple_currents_are_permutations
        self.failures = [] if failures is None else failures

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

    Commutativity compares N[i,j] with N[j,i].  If the datum's engine then
    reproduces the tensor (``ModularDatum.reproduces``), N is the Verlinde
    tensor of an S with S^2 = C and dual labels C: qdims multiply, N is
    associative, the simple currents have S[i,0] = S[0,0], and
    N[0,j]^k = sum_s S[j,s] S[s,k'] = (S^2)[j,k'] = delta_jk, so no row of N[0]
    is read.  If S = S^T too, N[i,k']^{j'} = sum_s S[i,s] S[k',s] S[s,j] / S[0,s]
    is N[i,j]^k term by term, so duality holds unread; an S with S^2 = C that
    is not symmetric can break it.  Otherwise the vacuum identity and
    duality compare rows of N with rows and permuted columns, the qdims of
    each pair are compared by exact sums and ``_first_nonassociative``
    searches directly.  With S[0,0] unknown or zero there are no qdims, and
    their verdicts are None.
    """
    if tensor.indices != list(range(datum.size)):
        raise ValueError("check_ring needs the full tensor over all modules")
    report = PropertyReport()
    n, N, dual = datum.size, tensor.rows, datum.dual_permutation()
    every = range(n)
    report.commutative = all(N[i][j] == N[j][i] for i in every for j in range(i))
    # Once N is commutative, pair (j, i) fails iff (i, j) does, and the first
    # failing pair in row-major order has i <= j; only those pairs are checked.
    pairs = [(i, j) for i in every for j in range(i if report.commutative else 0, n)]
    certified = datum.reproduces({(i, j): N[i][j] for i, j in pairs})
    symmetric = certified and list(zip(*datum.numbers)) == list(map(tuple, datum.numbers))
    report.vacuum_identity = certified or all(
        row == (0,) * j + (1,) + (0,) * (n - 1 - j) for j, row in enumerate(N[0]))
    # Row j of plane i is its column j' read at k'; itemgetter(0) gives no tuple.
    permuted = itemgetter(*dual) if n > 1 else tuple
    report.duality_symmetric = symmetric or all(
        row == permuted(columns[d])
        for plane in N for columns in [list(zip(*plane))] for row, d in zip(plane, dual))
    for holds, failure in ((report.vacuum_identity, "N[0,j]^k != delta_jk"),
                           (report.commutative, "N[i,j]^k != N[j,i]^k somewhere"),
                           (report.duality_symmetric, "N[i,j]^k != N[i,k']^{j'} somewhere")):
        if not holds:
            report.failures.append(failure)

    if certified:
        # A certified S has S[0,0] != 0, so d_i = S[i,0] / S[0,0] is 1 iff S[i,0] = S[0,0].
        report.associative = report.qdim_multiplicative = True
        report.simple_currents = [i for i, row in enumerate(datum.s) if row[0] == datum.s[0][0]]
    else:
        qdims = quantum_dimensions(datum) if datum.known(0, 0) and datum.s[0][0] else [None]
        bad_pair = None if None in qdims else next((
            (i, j) for i, j in pairs if cyclo.exact_sum(
                qdims[k] * m for k, m in enumerate(N[i][j]) if m) != qdims[i] * qdims[j]), None)
        bad = _first_nonassociative(N)
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
        if not _is_permutation(N[i], n):
            report.simple_currents_are_permutations = False
            report.failures.append(f"simple current {i} has a non-permutation fusion matrix")
    return report


def _is_permutation(plane, n: int) -> bool:
    """Whether the n x n ``plane`` is a permutation matrix: each row n - 1
    zeros and one 1, the 1s in distinct columns."""
    places = {row.index(1) for row in plane if row.count(0) == n - 1 and 1 in row}
    return len(places) == n


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

class Discrepancy(namedtuple("Discrepancy", "left right expected computed soft citation",
                             defaults=(False, ""))):
    """A fixture ``left x right`` whose ``expected`` product is not the ``computed`` one."""

    __slots__ = ()

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
