"""Validated in-memory model of a modular datum: labels plus S-matrix.

A datum is a list of module labels (``mdf.ModuleLabel``, shared with the
datum file) and a square matrix of exact cyclotomic entries, possibly partial
(``None`` marks an unknown entry).  The vacuum module is index 0 by
file-format convention.  Validation reports problems instead of raising,
because shipped datasets may be deliberately partial and discrepancies are
data, not crashes; only recorded qdims are enforced on load, those the
file's S knows (``check_qdims``).
A datum numbers its entries once, when it is built: ``values`` holds each
distinct entry once, in first-seen row-major order, and ``numbers`` is S with
each entry replaced by its index there, so the Galois check, the image of S
and ``validate`` compare and look up small integers, and only work per
distinct value touches a cyclotomic.  S is never edited in place: a datum
with other entries is a new datum (``with_entries``).
A datum's one certificate engine (``ModularDatum.engine``) is the only holder
of its one image of S per split prime, and the one maker of Verlinde rows
(``_Engine.row``).  Its first step is the Galois check on the block it
images, so it alone decides whether rows are certified by images.  S^2 = C
is read off its vacuum-pair rows (i, 0), as the Verlinde tensor reads its
other rows, and decided once per datum, held or failed
(``ModularDatum.s_squared``).  Once S^2 = C holds, S^-1[i,j] = S[i,j']
is known entry by entry, and unitarity is decided from it.  Each 1/S[0,s] is
inverted once per datum (``ModularDatum.vacuum_inverse``).  Equal completions
of one datum are one datum while any caller holds it
(``ModularDatum.completed``), so a completed S is certified once however many
routes complete it.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from . import cyclo
from .cyclo import Cyclotomic, conj, embed, format_brief, format_exact, inverse
from .mdf import DatumFile, ModuleLabel, ParseError, Record, eval_expr, parse_expr

__all__ = [
    "MissingEntryError", "NotPermutationError", "QdimMismatchError",
    "NonIntegerResultError", "NegativeResultError",
    "ModuleLabel", "ModularDatum",
    "validate", "charge_conjugation", "dual_mismatches", "computable_indices",
    "quantum_dimensions", "glob",
    "check_qdims", "datum_from_file", "datum_to_file",
]


class MissingEntryError(LookupError):
    """An S-matrix entry required by the computation is unknown."""


class NotPermutationError(ValueError):
    """S^2 is not a 0/1 permutation matrix."""


class QdimMismatchError(ValueError):
    """The S-matrix vacuum column contradicts the recorded quantum dimensions."""


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


class ModularDatum:
    """Immutable-after-load container for labels and the (partial) S-matrix.

    Equal entries of ``s`` are one object.  ``values`` lists the distinct
    entries in first-seen row-major order, and ``numbers`` is the n x n
    matrix of their indices in ``values``, None where ``s`` has None; the
    three agree because none of them is edited in place.

    Its derived state -- the S^2 = C verdict, the engine with its Galois
    check and certified rows, the vacuum inverses -- is kept on the datum and
    computed at most once.  ``completed`` hands every caller that fills the
    same values into this datum the same completed datum, so that state is
    shared by every route that reaches one S; ``with_entries`` always builds
    a fresh one."""

    def __init__(self, labels: list[ModuleLabel], s: list[list[Cyclotomic | None]],
                 name: str = ""):
        if len(s) != len(labels) or any(len(row) != len(labels) for row in s):
            raise ValueError("S-matrix shape must match the label count")
        if not labels:
            raise ValueError("a modular datum needs at least the vacuum module")
        self.labels = labels
        # Equal entries get one number and become one object, so lookups keyed
        # by entries hit by identity instead of comparing coefficient maps.
        numbering: dict[Cyclotomic, int] = {}
        self.numbers = [[v if v is None else numbering.setdefault(v, len(numbering))
                         for v in row] for row in s]
        self.values = values = list(numbering)
        self.s = [[x if x is None else values[x] for x in row] for row in self.numbers]
        self.name = name
        self._inverses: dict[Cyclotomic, Cyclotomic] = {}  # filled by vacuum_inverse
        self._completions: weakref.WeakValueDictionary | None = None  # made by completed

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int) -> Cyclotomic:
        value = self.s[i][j]
        if value is None:
            raise MissingEntryError(f"S[{i},{j}] is unknown")
        return value

    def known(self, i: int, j: int) -> bool:
        return self.s[i][j] is not None

    def unknown_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.numbers) if None in row
                for j, x in enumerate(row) if x is None]

    def fully_known(self) -> bool:
        return not any(None in row for row in self.numbers)

    def dual_permutation(self) -> list[int]:
        """The dual indices recorded on the labels; identity where unset."""
        return [lab.dual if lab.dual is not None else lab.index for lab in self.labels]

    @cached_property
    def s_squared(self) -> list[int] | str:
        """The verdict on S^2 = C, derived at most once per datum, held or
        failed: C as a permutation, or why S^2 is none as a message (a kept
        exception's traceback would tie the datum into a cycle).  Raises
        MissingEntryError without a fully known S.  Read by ``charge_conjugation``."""
        if not self.fully_known():
            raise MissingEntryError("charge conjugation needs a fully known S-matrix")
        perm = [-1] * self.size
        for i, row in enumerate(_s_squared_rows(self)):
            for j, v in row:
                if v == 1 and perm[i] == -1:
                    perm[i] = j
                elif v:
                    return (f"row {i} of S^2 has two unit entries" if v == 1 else
                            f"S^2[{i},{j}] = {format_brief(v)} is neither 0 nor 1")
            if perm[i] == -1:
                return f"row {i} of S^2 has no unit entry"
        if any(perm[j] != i for i, j in enumerate(perm)):
            return "S^2 permutation is not an involution"
        return perm

    @cached_property
    def engine(self) -> "_Engine":
        """The datum's one certificate engine over ``computable_indices(self)``,
        built at most once; none is kept if building raises."""
        return _Engine(self, computable_indices(self))

    def reproduces(self, rows: dict) -> bool:
        """Whether S is fully known, its engine has primes (so S passes the
        Galois check, ``_Engine.galois``), S^2 = C, its dual labels are C
        (``dual_mismatches``), and each ``rows[i, j]`` (n integers) equals
        the engine's certified row N[i,j].
        Then S^-1[s,k] = S[s,k'] gives N[i,j] = v S^-1, v(s) = S[i,s] S[j,s] / S[0,s],
        so E_ij(s) = S[0,s] sum_k N[i,j]^k S[k,s] - S[i,s] S[j,s] = 0 at every
        column s, whose column 0 is the qdim identity.  ``verlinde.check_ring``
        passes the whole tensor (i <= j for a commutative N): the matrix
        R[m,s] = S[m,s]/S[0,s] is invertible, and i -> R[i,.] embeds N in C^n
        with the pointwise product, so N is associative
        (Etingof-Gelaki-Nikshych-Ostrik, *Tensor Categories*, ch. 3).
        ``branching.eigen_complete`` passes the recorded fusion products, to
        certify its eigenvector relations at every column at once."""
        if not self.fully_known():
            return False
        try:  # no primes (S fails the Galois check) is decided before S^2 = C
            engine = self.engine
            wrong = not engine.primes or dual_mismatches(self)
        except (ZeroDivisionError, NotPermutationError):  # S[0,s] = 0, S^2 != C
            return False
        return not wrong and all(engine.certified(i, j) == row for (i, j), row in rows.items())

    def vacuum_inverse(self, s: int) -> Cyclotomic:
        """1/S[0,s], each distinct vacuum entry inverted at most once per datum."""
        value = self.entry(0, s)
        if value not in self._inverses:
            self._inverses[value] = inverse(value)
        return self._inverses[value]

    def with_entries(self, new_entries: dict[tuple[int, int], Cyclotomic]) -> "ModularDatum":
        """A copy with additional entries filled in."""
        s = [row[:] for row in self.s]
        for (i, j), value in new_entries.items():
            s[i][j] = value
        return ModularDatum(self.labels, s, name=self.name)

    def completed(self, values: dict[tuple[int, int], Cyclotomic]) -> "ModularDatum":
        """``with_entries(values)``, one object for equal ``values`` while any
        caller holds it.  The memo is keyed by the values, not their positions
        alone, so a completion that disagrees anywhere is a datum of its own,
        with its own checks.  It holds each completion weakly: once the last
        holder drops one, the next call builds it afresh."""
        if self._completions is None:
            self._completions = weakref.WeakValueDictionary()
        key = frozenset(values.items())
        datum = self._completions.get(key)
        if datum is None:
            datum = self._completions[key] = self.with_entries(values)
        return datum


# -- derived quantities ------------------------------------------------------

def quantum_dimensions(datum: ModularDatum) -> list[Cyclotomic | None]:
    """Every quantum dimension, by ``datum.vacuum_inverse(0)`` and one product
    per distinct S[i,0], kept for this call only; None where S[i,0] is unknown."""
    if datum.entry(0, 0).is_zero():
        raise ZeroDivisionError("S[0,0] = 0")
    dims = {v: v * datum.vacuum_inverse(0) for v in {row[0] for row in datum.s} - {None}}
    return [dims.get(row[0]) for row in datum.s]


def glob(datum: ModularDatum) -> Cyclotomic:
    """Global dimension: the sum of squared quantum dimensions, one per distinct value."""
    dims = quantum_dimensions(datum)
    if None in dims:
        raise MissingEntryError(f"S[{dims.index(None)},0] is unknown")
    return cyclo.weighted_sum((q * q, m) for q, m in Counter(dims).items())


def charge_conjugation(datum: ModularDatum) -> list[int]:
    """The permutation i -> i' with S^2 = (delta_{i,j'}): a copy of the
    datum's one verdict, ``ModularDatum.s_squared``.

    Requires a fully known S.  Raises NotPermutationError, with the verdict's
    message, if S^2 has an entry other than exact 0 or 1.  The labels' dual
    fields are left as they are; ``dual_mismatches`` compares them with C.
    """
    verdict = datum.s_squared
    if isinstance(verdict, str):
        raise NotPermutationError(verdict)
    return verdict[:]


def dual_mismatches(datum: ModularDatum) -> list[int]:
    """The modules whose dual label (self where unset) is not their image
    under ``charge_conjugation(datum)``, whose errors it raises."""
    labelled = datum.dual_permutation()
    return [i for i, j in enumerate(charge_conjugation(datum)) if labelled[i] != j]


def computable_indices(datum: ModularDatum) -> list[int]:
    """The modules whose S row and dual column are fully known.

    Every Verlinde coefficient N[i,j]^k with i, j, k among them needs only
    those rows and columns besides the vacuum row; ``verlinde.fusion_tensor``
    computes over them.
    """
    dual = datum.dual_permutation()
    full = [None not in column for column in zip(*datum.numbers)]
    return [i for i, row in enumerate(datum.numbers) if None not in row and full[dual[i]]]


def _galois_permutations(datum: ModularDatum, indices: list[int],
                         cols: list[int]) -> list[list[int]] | None:
    """Per generator g of the units mod the entries' common order
    (``cyclo.unit_generators``), a permutation pi_g of the columns s of S
    with sigma_g(column s) = +-column pi_g(s); None if there is none.  Column
    s is (S[r,s] for r = 0 and r in ``indices``) followed by (S[s,c] for c in
    ``cols``): the block that ``_Engine`` images, all of S when S is fully
    known and its dual labels are a permutation.  Modular data have them
    (de Boer-Goeree 1991, Coste-Gannon 1994), and then a sum over s in which
    the sign of column s cancels, as in S[i,s] S[s,j], is rational.  Columns
    are matched exactly, as tuples of entry numbers (``ModularDatum.numbers``,
    with a number beyond ``values`` for each negation not in S) at the sign
    that their first entry, S[0,s], decides; the engine has refused a vacuum
    row with a hole or a 0.  Only the distinct values are negated and
    conjugated."""
    numbers, values = datum.numbers, datum.values
    rows = list(dict.fromkeys([0, *indices]))
    columns = [(*map(column.__getitem__, rows), *map(row.__getitem__, cols))
               for column, row in zip(zip(*numbers), numbers)]
    used = set().union(*columns)
    ids = {values[x]: x for x in used}
    neg: list[int | None] = [None] * len(values)
    for x in used:
        y = neg[x] = ids.setdefault(-values[x], len(neg))
        if y == len(neg):  # -values[x] is no entry: it gets a number of its own
            neg.append(x)
    flip = neg.__getitem__

    def key(t):  # t, or -t, as the nonzero first entry decides
        return t if t[0] < neg[t[0]] else tuple(map(flip, t))

    homes: dict[tuple, list[int]] = {}
    for s, column in enumerate(columns):
        homes.setdefault(key(column), []).append(s)
    perms = []
    for g in cyclo.unit_generators(lcm(*(values[x].order for x in used))):
        image: list[int | None] = [None] * len(values)
        for x in used:
            image[x] = ids.get(cyclo.galois(values[x], g))
            if image[x] is None:
                return None
        sigma, free = image.__getitem__, {t: home[:] for t, home in homes.items()}
        perm = []
        for column in columns:
            home = free.get(key(tuple(map(sigma, column))))
            if not home:
                return None
            perm.append(home.pop())
        perms.append(perm)
    return perms


def _s_squared_rows(datum: ModularDatum):
    """The rows i of S^2, as pairs (j, S^2[i,j]), off ``datum.engine`` or exact.

    As S[0,s] / S[0,s] = 1, the engine's row for the pair (i, 0) is
    sum_s S[i,s] S[s,k'] = S^2[i,k'] at module k, with no C assumed.  A row
    it does not certify as 0s and 1s, and every row when the dual labels are
    not a permutation or S[0,s] = 0 leaves no engine, is summed exactly,
    entry by entry, so it reports its exact value."""
    everything = range(datum.size)
    engine = None
    if sorted(datum.dual_permutation()) == list(everything):
        try:
            engine = datum.engine
        except ZeroDivisionError:
            pass
    times = lru_cache(maxsize=None)(mul)
    for i in everything:
        row = engine.certified(i, 0) if engine else []
        if row and max(row) <= 1:
            yield zip(engine.cols, row)
        else:
            yield ((j, cyclo.exact_sum([times(datum.s[i][s], datum.s[s][j]) for s in everything]))
                   for j in everything)


class _Engine:
    """The certified Verlinde rows N[i,j]^k, k in ``indices``, of
    ``ModularDatum.engine``; it holds ``datum.s``, not the datum, so the two
    form no cycle.  A row is certified from the datum's one image of S, a
    ``cyclo.Images`` that only the engine holds, at the fewest primes its
    bound needs, never by canonicalizing a coefficient.  Building it refuses
    a vacuum row with a hole or a 0, then runs the Galois check (``galois``;
    None, and no ``primes``, if S fails it) on the block it images: the rows
    0 and ``indices`` and the dual columns ``cols``.  Its permutations make
    every N[i,j]^k rational, the sign of column s cancelling in
    S[i,s] S[j,s] S[s,k'] / S[0,s].
    Over the denominators D of S and D_inv of the vacuum inverses, the sum
    over s of the lifts of (D S[i,s]) (D S[j,s]) (D_inv / S[0,s]) (D S[s,k'])
    to Z[C_N] reduces to D^3 D_inv N[i,j]^k, with l1 norm at most
    B = sum_s max_i |D S[i,s]|_1^2 |D_inv / S[0,s]|_1 max_k |D S[s,k']|_1.
    At primes p = 1 mod N dividing neither D nor D_inv, whose product P
    exceeds 4B, N[i,j]^k images to c = sum_s x(i,s) x(j,s) y(s) x(s,k'),
    x the image of S and y(s) = x(0,s)^-1; lifted to 0..P-1,
    0 <= c <= B / (D^3 D_inv) certifies N[i,j]^k = c, and any other c that
    it is not a nonnegative integer.  Certified rows are cached by the pair
    {i, j} and by the images of S[i,s] S[j,s]; callers get copies.  ``row``
    sums a row the images do not certify exactly, its products memoized
    across rows."""

    def __init__(self, datum: ModularDatum, indices: list[int]):
        self._s, self.indices = datum.s, indices
        dual = datum.dual_permutation()
        cols = self.cols = [dual[k] for k in indices]
        for s in range(datum.size):
            if datum.entry(0, s).is_zero():  # MissingEntryError at a hole
                raise ZeroDivisionError(f"S[0,{s}] = 0 in the Verlinde denominator")
        self._inverses = [datum.vacuum_inverse(s) for s in range(datum.size)]
        self._times = lru_cache(maxsize=None)(mul)
        self._row_cache: dict = {}
        self._pair_cache: dict = {}
        self.primes: list[int] = []
        self.galois = _galois_permutations(datum, indices, cols)
        if self.galois is None:
            return

        # The engine is cached per datum: each prime images each entry once.
        images = cyclo.Images(datum.values, summands=datum.size)

        def as_matrix(values):  # one item per entry of ``datum.values``, laid out as S
            return [[None if x is None else values[x] for x in row] for row in datum.numbers]

        norms = as_matrix(images.norms)
        d_inv = lcm(*(v.denom for v in self._inverses))
        bound = sum(max((norms[i][s] for i in indices), default=0) ** 2
                    * sum(map(abs, inv.coeffs.values())) * (d_inv // inv.denom)
                    * max((norms[s][c] for c in cols), default=0)
                    for s, inv in enumerate(self._inverses))
        self.max_coeff = bound // (images.denom ** 3 * d_inv)
        chosen = images.choose_primes(4 * bound, avoid=d_inv)
        self.primes = [p for p, _ in chosen]
        # Per prime, the rows of S, and for each s the images y(s) x(s,k')
        # packed into one integer with a 64-bit slot per k, so one row costs
        # n small modular products and one sum of n packed products.
        self._rows = [as_matrix(x) for _, x in chosen]
        self._packed = [[cyclo.pack([y * row[c] % p for c in cols])
                         for y, row in zip((pow(v, -1, p) for v in rows[0]), rows)]
                        for p, rows in zip(self.primes, self._rows)]

    def certified(self, i: int, j: int) -> list[int]:
        """All N[i,j]^k for k in ``indices``, in index order, if the images
        certify them, else []."""
        if not self.primes:
            return []
        ij = (i, j) if i <= j else (j, i)  # the image product is symmetric
        out = self._pair_cache.get(ij)
        if out is None:
            pairs = [[a * b % p for a, b in zip(rows[i], rows[j])]
                     for p, rows in zip(self.primes, self._rows)]
            key = tuple(map(cyclo.pack, pairs))
            out = self._row_cache.get(key)
            if out is None:
                out = cyclo.combine(self.primes, (
                    cyclo.packed_product(pair, packed, len(self.indices), p)
                    for pair, packed, p in zip(pairs, self._packed, self.primes)))
                # A lift above the bound is negative or not an integer: [].
                out = self._row_cache[key] = out if max(out) <= self.max_coeff else []
            self._pair_cache[ij] = out
        return out[:]

    def row(self, i: int, j: int) -> list[int]:
        """All N[i,j]^k for k in ``indices``, in index order: the certified
        row, or else the row summed exactly with ``cyclo.exact_sum``, which
        names the first bad triple and its exact value."""
        out = self.certified(i, j)
        if out:
            return out
        times, s = self._times, self._s
        pair = [times(times(a, b), inv) for a, b, inv in zip(s[i], s[j], self._inverses)]
        for k, c in zip(self.indices, self.cols):
            value = cyclo.exact_sum([times(a, row[c]) for a, row in zip(pair, s)])
            n = value.as_rational() if value.is_rational() else None
            if n is None or n.denominator != 1:
                raise NonIntegerResultError((i, j, k), value)
            if n < 0:
                raise NegativeResultError((i, j, k), n.numerator)
            out.append(n.numerator)
        return out


# -- validation --------------------------------------------------------------

class ValidationReport(Record):
    """The findings of ``validate``; None where a check could not run."""

    def __init__(self, name: str = "", size: int = 0, unknown_count: int = 0,
                 symmetry_violations: list[tuple[int, int]] | None = None,
                 vacuum_row_zeros: list[int] | None = None,
                 bad_qdims: list[int] | None = None,
                 square_is_permutation: bool | None = None, square_message: str = "",
                 dual_permutation: list[int] | None = None,
                 dual_mismatches: list[int] | None = None, unitary: bool | None = None):
        self.name, self.size, self.unknown_count = name, size, unknown_count
        self.symmetry_violations = [] if symmetry_violations is None else symmetry_violations
        self.vacuum_row_zeros = [] if vacuum_row_zeros is None else vacuum_row_zeros
        self.bad_qdims = bad_qdims
        self.square_is_permutation, self.square_message = square_is_permutation, square_message
        self.dual_permutation = dual_permutation
        self.dual_mismatches = [] if dual_mismatches is None else dual_mismatches
        self.unitary = unitary

    @property
    def ok(self) -> bool:
        return (not self.symmetry_violations and not self.vacuum_row_zeros
                and not self.bad_qdims and not self.dual_mismatches
                and self.square_is_permutation is not False
                and self.unitary is not False)

    def to_text(self) -> str:
        lines = [f"datum: {self.name or '(unnamed)'}  modules: {self.size}"]
        lines.append(f"unknown entries: {self.unknown_count}")
        lines.append("symmetry: " + ("ok" if not self.symmetry_violations else
                                     f"violated at {self.symmetry_violations}"))
        lines.append("vacuum row: " + ("no zero entries" if not self.vacuum_row_zeros else
                                       f"zero at columns {self.vacuum_row_zeros}"))
        if self.bad_qdims is None:
            lines.append("qdim embeddings: not checked (S[0,0] is zero or unknown)")
        else:
            lines.append("qdim embeddings: " + ("all positive real" if not self.bad_qdims else
                                                f"non-positive at {self.bad_qdims}"))
        if self.square_is_permutation is None:
            lines.append("S^2=C: not checked (matrix partial)")
        elif self.square_is_permutation:
            perm = self.dual_permutation
            ident = perm == list(range(self.size))
            lines.append("S^2=C: " + ("identity" if ident else f"permutation {perm}"))
            if self.dual_mismatches:
                lines.append(f"dual labels disagree at {self.dual_mismatches}")
        else:
            lines.append(f"S^2=C: FAILED ({self.square_message})")
        if self.unitary is not None:
            lines.append("unitarity S conj(S)^T = I: " + ("ok" if self.unitary else "FAILED"))
        lines.append("verdict: " + ("valid" if self.ok else "INVALID"))
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        payload = {
            "name": self.name,
            "modules": self.size,
            "unknown_entries": self.unknown_count,
            "symmetry_violations": self.symmetry_violations,
            "vacuum_row_zeros": self.vacuum_row_zeros,
            "bad_qdims": self.bad_qdims,
            "square_is_permutation": self.square_is_permutation,
            "square_message": self.square_message,
            "dual_permutation": self.dual_permutation,
            "dual_mismatches": self.dual_mismatches,
            "unitary": self.unitary,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def validate(datum: ModularDatum) -> ValidationReport:
    """Run all structural checks; reports findings and never raises."""
    n, numbers = datum.size, datum.numbers
    report = ValidationReport(name=datum.name, size=n,
                              unknown_count=sum(row.count(None) for row in numbers))
    for i, (row, column) in enumerate(zip(numbers, zip(*numbers))):
        if column != tuple(row):
            report.symmetry_violations.extend(
                (i, j) for j in range(i + 1, n)
                if row[j] != column[j] and row[j] is not None and column[j] is not None)
    for j in range(n):
        if datum.known(0, j) and datum.s[0][j].is_zero():
            report.vacuum_row_zeros.append(j)
    if datum.known(0, 0) and not datum.s[0][0].is_zero():
        dims = quantum_dimensions(datum)
        # Realness is exact, once per distinct value; the float embedding gives only a sign.
        positive = {q: cyclo.is_real(q) and embed(q).real > 0 for q in set(dims) - {None}}
        report.bad_qdims = [i for i, q in enumerate(dims) if q is not None and not positive[q]]
    if datum.fully_known():
        try:
            perm = charge_conjugation(datum)
        except NotPermutationError as exc:
            report.square_is_permutation = False
            report.square_message = str(exc)
        else:
            report.square_is_permutation = True
            report.dual_permutation = perm
            # The vacuum must be self-dual too, whatever its label says.
            wrong = dual_mismatches(datum)
            report.dual_mismatches = wrong if perm[0] == 0 or 0 in wrong else [0, *wrong]
            # S^2 = C gives S^-1[i,j] = S[i,perm[j]], so S is unitary iff that
            # equals conj(S[j,i]) everywhere; symmetry is not assumed.  A
            # conjugate that is no entry of S has no number and equals none.
            number = {v: x for x, v in enumerate(datum.values)}
            conjugate = [number.get(conj(v)) for v in datum.values].__getitem__
            report.unitary = all(list(map(row.__getitem__, perm)) == list(map(conjugate, column))
                                 for row, column in zip(numbers, zip(*numbers)))
    return report


# -- file conversion ---------------------------------------------------------

def _value(text: str, what: str) -> Cyclotomic:
    """The value of the expression ``text`` of ``what``; a division by zero
    is a ``mdf.ParseError`` that names both."""
    try:
        return eval_expr(parse_expr(text))
    except ZeroDivisionError:
        raise ParseError(f"{what} = {text}: division by zero") from None


def check_qdims(datum: ModularDatum, qdims: dict[int, str]) -> None:
    """Check each recorded ``qdim=`` text, by module index, whose S[i,0] and
    S[0,0] are known: it must equal S[i,0]/S[0,0] exactly, or a
    QdimMismatchError names its module.  ``datum_from_file`` checks what the
    file's S knows, and the CLI's ``complete`` the rest, on the completed datum."""
    if not qdims or not datum.known(0, 0):
        return
    dims = quantum_dimensions(datum)
    for i, text in qdims.items():
        if dims[i] is not None:
            value = _value(text, f"label {i} qdim")
            if dims[i] != value:
                raise QdimMismatchError(f"module {i}: S[{i},0]/S[0,0] != recorded qdim {value}")


def datum_from_file(df: DatumFile) -> ModularDatum:
    """Build the in-memory datum, scaled by the header scale factor, evaluating
    each distinct entry text once, and ``check_qdims`` it.  A file without a
    header ``modules`` key, or an S entry, ``scale`` or ``qdim=`` text that
    divides by zero, is a ``mdf.ParseError``."""
    n = df.modules
    if n < 1:
        raise ParseError("the header has no 'modules' key")
    by_index = {lab.index: lab for lab in df.labels}
    labels = [by_index.get(i) or ModuleLabel(i, f"m{i}") for i in range(n)]
    scale = _value(df.scale_expr, "scale") if df.scale_expr is not None else None
    values: dict[str, Cyclotomic] = {}  # by text, each named by its first cell
    s: list[list[Cyclotomic | None]] = [[None] * n for _ in range(n)]
    for (r, c), text in df.s_entries.items():
        if text is None:
            continue
        if text not in values:
            value = _value(text, f"S[{r},{c}]")
            values[text] = value if scale is None else value * scale
        s[r][c] = values[text]
    datum = ModularDatum(labels, s, name=df.name)
    check_qdims(datum, df.qdims)
    return datum


def datum_to_file(datum: ModularDatum, scale_expr_text: str | None = None) -> DatumFile:
    """Serialize back to a DatumFile, dividing entries by the chosen scale;
    each distinct entry is scaled and formatted once, each distinct qdim
    formatted once."""
    inv_scale = inverse(_value(scale_expr_text, "scale")) if scale_expr_text else None
    dims = [None] * datum.size
    if datum.known(0, 0) and not datum.s[0][0].is_zero():
        dims = quantum_dimensions(datum)
    text = lru_cache(maxsize=None)(format_exact)
    entry = text if inv_scale is None else lru_cache(maxsize=None)(
        lambda value: text(value * inv_scale))
    return DatumFile(
        name=datum.name, modules=datum.size, scale_expr=scale_expr_text or None,
        labels=list(datum.labels),
        s_entries={(i, j): None if value is None else entry(value)
                   for i, row in enumerate(datum.s) for j, value in enumerate(row)},
        qdims={i: text(dim) for i, dim in enumerate(dims) if dim is not None})
