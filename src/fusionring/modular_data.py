"""Validated in-memory model of a modular datum: labels plus S-matrix.

A datum is a list of module labels (``mdf.ModuleLabel``, shared with the
datum file) and a square matrix of exact cyclotomic entries, possibly partial
(``None`` marks an unknown entry).  The vacuum module is index 0 by
file-format convention.  Validation reports problems instead of raising,
because shipped datasets may be deliberately partial and discrepancies are
data, not crashes; only recorded qdims are enforced on load.
``validate`` certifies S^2 = C from the datum's one image of S per split
prime (``ModularDatum.images``), which the Verlinde tensor and the ring check
read too, once ``galois_permutations`` shows S^2 rational, and sums a row
exactly only when its images do not certify it.  Once S^2 = C holds,
S^-1[i,j] = S[i,j'] is known entry by entry, and unitarity is decided from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from . import cyclo
from .cyclo import Cyclotomic, conj, embed, format_brief, format_exact, inverse
from .mdf import DatumFile, ModuleLabel, eval_expr, parse_expr

__all__ = [
    "MissingEntryError", "NotPermutationError", "QdimMismatchError",
    "ModuleLabel", "ModularDatum",
    "validate", "charge_conjugation", "computable_indices", "galois_permutations",
    "quantum_dimensions", "glob",
    "datum_from_file", "datum_to_file",
]


class MissingEntryError(LookupError):
    """An S-matrix entry required by the computation is unknown."""


class NotPermutationError(ValueError):
    """S^2 is not a 0/1 permutation matrix."""


class QdimMismatchError(ValueError):
    """The S-matrix vacuum column contradicts the recorded quantum dimensions."""


class ModularDatum:
    """Immutable-after-load container for labels and the (partial) S-matrix."""

    def __init__(self, labels: list[ModuleLabel], s: list[list[Cyclotomic | None]],
                 name: str = ""):
        if len(s) != len(labels) or any(len(row) != len(labels) for row in s):
            raise ValueError("S-matrix shape must match the label count")
        if not labels:
            raise ValueError("a modular datum needs at least the vacuum module")
        self.labels = labels
        # Equal entries become one object, so lookups keyed by entries hit by
        # identity instead of comparing Fraction coefficients.
        shared: dict[Cyclotomic, Cyclotomic] = {}
        self.s = [[v if v is None else shared.setdefault(v, v) for v in row] for row in s]
        self.name = name
        self._conjugation: list[int] | None = None  # set by charge_conjugation

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
        return [(i, j) for i in range(self.size) for j in range(self.size)
                if self.s[i][j] is None]

    def fully_known(self) -> bool:
        return all(all(v is not None for v in row) for row in self.s)

    def dual_permutation(self) -> list[int]:
        """The dual indices recorded on the labels; identity where unset."""
        return [lab.dual if lab.dual is not None else lab.index for lab in self.labels]

    @cached_property
    def galois(self) -> list[list[int]] | None:
        """``galois_permutations(self)``, computed at most once per datum."""
        return galois_permutations(self)

    @cached_property
    def images(self) -> cyclo.Images:
        """The known entries of S in one ``cyclo.Images``, one summand per
        module, built at most once per datum and read by every certificate
        once ``galois`` passes, so each prime images each entry once."""
        return cyclo.Images([v for row in self.s for v in row if v is not None],
                            summands=self.size)

    def as_matrix(self, values: list) -> list[list]:
        """``values``, one per distinct entry in ``images.index`` order, laid
        out as S, with None at the unknown entries."""
        index = self.images.index
        return [[None if v is None else values[index[v]] for v in row] for row in self.s]

    def with_entries(self, new_entries: dict[tuple[int, int], Cyclotomic]) -> "ModularDatum":
        """A copy with additional entries filled in."""
        s = [row[:] for row in self.s]
        for (i, j), value in new_entries.items():
            s[i][j] = value
        return ModularDatum(self.labels, s, name=self.name)


# -- derived quantities ------------------------------------------------------

def quantum_dimensions(datum: ModularDatum) -> list[Cyclotomic | None]:
    """Every quantum dimension, inverting S[0,0] once; None where S[i,0] is unknown."""
    denom = datum.entry(0, 0)
    if denom.is_zero():
        raise ZeroDivisionError("S[0,0] = 0")
    inv = inverse(denom)
    return [None if row[0] is None else row[0] * inv for row in datum.s]


def glob(datum: ModularDatum) -> Cyclotomic:
    """Global dimension: the sum of squared quantum dimensions."""
    dims = quantum_dimensions(datum)
    for i, q in enumerate(dims):
        if q is None:
            raise MissingEntryError(f"S[{i},0] is unknown")
    return cyclo.exact_sum(q * q for q in dims)


def charge_conjugation(datum: ModularDatum) -> list[int]:
    """The permutation i -> i' with S^2 = (delta_{i,j'}).

    Requires a fully known S.  Raises NotPermutationError if S^2 has an entry
    other than exact 0 or 1.  The labels' dual fields are left as they are.
    A certified permutation is kept on the datum and returned by later calls;
    a failure is raised afresh on each call.
    """
    if datum._conjugation is not None:
        return datum._conjugation[:]
    if not datum.fully_known():
        raise MissingEntryError("charge conjugation needs a fully known S-matrix")
    n = datum.size
    perm = [-1] * n
    for i, row in enumerate(_s_squared_rows(datum)):
        for j, v in enumerate(row):
            if v == 1:
                if perm[i] != -1:
                    raise NotPermutationError(f"row {i} of S^2 has two unit entries")
                perm[i] = j
            elif not v.is_zero():
                raise NotPermutationError(f"S^2[{i},{j}] = {format_brief(v)} is neither 0 nor 1")
        if perm[i] == -1:
            raise NotPermutationError(f"row {i} of S^2 has no unit entry")
    for i, j in enumerate(perm):
        if perm[j] != i:
            raise NotPermutationError("S^2 permutation is not an involution")
    datum._conjugation = perm
    return perm[:]


def computable_indices(datum: ModularDatum) -> list[int]:
    """The modules whose S row and dual column are fully known.

    Every Verlinde coefficient N[i,j]^k with i, j, k among them needs only
    those rows and columns besides the vacuum row; ``verlinde.fusion_tensor``
    computes over them.
    """
    n = datum.size
    dual = datum.dual_permutation()
    return [i for i in range(n)
            if all(datum.known(i, s) and datum.known(s, dual[i]) for s in range(n))]


def galois_permutations(datum: ModularDatum) -> list[list[int]] | None:
    """Per generator g of the units mod the entries' common order
    (``cyclo.unit_generators``), a permutation pi_g of the columns s of S
    with sigma_g(column s) = +-column pi_g(s); None if there is none.  With
    I = ``computable_indices(datum)``, column s is (S[r,s] for r = 0 and r in
    I) followed by (S[s,k'] for k in I): all of S when S is fully known and
    its dual labels are a permutation.  Modular data have them (de Boer-Goeree
    1991, Coste-Gannon 1994), and then a sum over s in which the sign of
    column s cancels, as in S[i,s] S[s,j], is rational.  Columns are matched
    exactly, as tuples of entry ids taken at the smaller of their two signs.
    Raises MissingEntryError if the vacuum row has a hole.  Callers use
    ``ModularDatum.galois``, which runs this once per datum."""
    indices = computable_indices(datum)
    dual = datum.dual_permutation()
    rows, cols = dict.fromkeys([0, *indices]), [dual[k] for k in indices]
    ids: dict[Cyclotomic, int] = {}
    columns = [[ids.setdefault(datum.entry(r, s), len(ids)) for r in rows]
               + [ids.setdefault(datum.s[s][c], len(ids)) for c in cols]
               for s in range(datum.size)]
    values = list(ids)
    for v in values:
        ids.setdefault(-v, len(ids))
    neg = [ids[-v] for v in list(ids)]

    def keys(image):
        tuples = (tuple(image[x] for x in column) for column in columns)
        return [min(t, tuple(neg[x] for x in t)) for t in tuples]

    homes: dict[tuple, list[int]] = {}
    for s, key in enumerate(keys(range(len(values)))):
        homes.setdefault(key, []).append(s)
    perms = []
    for g in cyclo.unit_generators(lcm(*(v.order for v in values))):
        image = [ids.get(cyclo.galois(v, g)) for v in values]
        if None in image:
            return None
        free = {key: home[:] for key, home in homes.items()}
        perm = [free[key].pop() if free.get(key) else None for key in keys(image)]
        if None in perm:
            return None
        perms.append(perm)
    return perms


def _s_squared_rows(datum: ModularDatum):
    """The rows of S^2 in order, each certified 0/1 from images or summed exactly.

    The Galois permutations of all of S make S^2 rational.  With x = D S lifted
    to Z[C_N] (``ModularDatum.images``), D^2 S^2[i,j] - c D^2, c in {0, 1}, has
    l1 norm at most B = sum_s max_i |x[i,s]|_1 max_j |x[s,j]|_1 + D^2, so for
    primes whose product exceeds 4B a row whose images lift to 0 or 1 is
    exact.  Any other row, and every row without the permutations or a usable
    prime, is summed exactly, so it reports its exact value.
    """
    n = datum.size
    everything = range(n)
    chosen = []
    # The Galois check covers the dual columns, all of S once they are a permutation.
    if sorted(datum.dual_permutation()) == list(everything) and datum.galois is not None:
        images = datum.images
        norms = datum.as_matrix(images.norms)
        bound = images.denom ** 2 + sum(max(row[s] for row in norms) * max(norms[s])
                                        for s in everything)
        for p, x in images.choose_primes(4 * bound):
            rows = datum.as_matrix(x)
            chosen.append((p, rows, [cyclo.pack(row) for row in rows]))
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    times = lru_cache(maxsize=None)(mul)
    for i in everything:
        if chosen:
            row = cyclo.combine([p for p, _, _ in chosen],
                                (cyclo.packed_product(rows[i], packed, n, p)
                                 for p, rows, packed in chosen))
            if all(c <= 1 for c in row):
                yield [one if c else zero for c in row]
                continue
        yield [cyclo.exact_sum([times(datum.s[i][s], datum.s[s][j]) for s in everything])
               for j in everything]


# -- validation --------------------------------------------------------------

@dataclass
class ValidationReport:
    name: str = ""
    size: int = 0
    unknown_count: int = 0
    symmetry_violations: list[tuple[int, int]] = field(default_factory=list)
    vacuum_row_zeros: list[int] = field(default_factory=list)
    bad_qdims: list[int] | None = None
    square_is_permutation: bool | None = None
    square_message: str = ""
    dual_permutation: list[int] | None = None
    dual_mismatches: list[int] = field(default_factory=list)
    unitary: bool | None = None

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
    n = datum.size
    report = ValidationReport(name=datum.name, size=n,
                              unknown_count=len(datum.unknown_positions()))
    for i in range(n):
        for j in range(i + 1, n):
            if datum.known(i, j) and datum.known(j, i):
                if datum.s[i][j] != datum.s[j][i]:
                    report.symmetry_violations.append((i, j))
    for j in range(n):
        if datum.known(0, j) and datum.s[0][j].is_zero():
            report.vacuum_row_zeros.append(j)
    if datum.known(0, 0) and not datum.s[0][0].is_zero():
        report.bad_qdims = []
        for i, q in enumerate(quantum_dimensions(datum)):
            # Realness is decided exactly; only the sign of a nonzero real
            # value is read off the float embedding.
            if q is not None and not (cyclo.is_real(q) and embed(q).real > 0):
                report.bad_qdims.append(i)
    if datum.fully_known():
        try:
            perm = charge_conjugation(datum)
        except NotPermutationError as exc:
            report.square_is_permutation = False
            report.square_message = str(exc)
        else:
            report.square_is_permutation = True
            report.dual_permutation = perm
            # An unset dual reads as self-dual, and the vacuum must be self-dual.
            labelled = datum.dual_permutation()
            report.dual_mismatches = [i for i, j in enumerate(perm)
                                      if labelled[i] != j or i == 0 != j]
            # S^2 = C gives S^-1[i,j] = S[i,perm[j]], so S is unitary iff that
            # equals conj(S[j,i]) everywhere; symmetry is not assumed.
            conjugates = {v: conj(v) for v in set().union(*datum.s)}
            report.unitary = all(datum.s[i][perm[j]] == conjugates[datum.s[j][i]]
                                 for i in range(n) for j in range(n))
    return report


# -- file conversion ---------------------------------------------------------

def _value(text: str) -> Cyclotomic:
    return eval_expr(parse_expr(text))


def datum_from_file(df: DatumFile) -> ModularDatum:
    """Build the in-memory datum, scaled by the header scale factor, evaluating
    each distinct entry text once; every recorded ``qdim=`` must equal
    S[i,0]/S[0,0] exactly."""
    n = df.modules
    by_index = {lab.index: lab for lab in df.labels}
    labels = [by_index.get(i) or ModuleLabel(i, f"m{i}") for i in range(n)]
    scale = _value(df.scale_expr) if df.scale_expr is not None else None
    entry = lru_cache(maxsize=None)(
        lambda text: _value(text) if scale is None else _value(text) * scale)
    s: list[list[Cyclotomic | None]] = [[None] * n for _ in range(n)]
    for (r, c), text in df.s_entries.items():
        if text is not None:
            s[r][c] = entry(text)
    datum = ModularDatum(labels, s, name=df.name)
    if df.qdims:
        dims = quantum_dimensions(datum)
        for i, text in df.qdims.items():
            if dims[i] is None:
                raise MissingEntryError(f"S[{i},0] is unknown")
            value = _value(text)
            if dims[i] != value:
                raise QdimMismatchError(f"module {i}: S[{i},0]/S[0,0] != recorded qdim {value}")
    return datum


def datum_to_file(datum: ModularDatum, scale_expr_text: str | None = None) -> DatumFile:
    """Serialize back to a DatumFile, dividing entries by the chosen scale;
    each distinct entry is scaled and formatted once, each distinct qdim
    formatted once."""
    inv_scale = inverse(_value(scale_expr_text)) if scale_expr_text else None
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
