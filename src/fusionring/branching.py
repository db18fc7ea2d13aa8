"""Completing a partial S-matrix from parent-algebra branching data.

A branching table records how each irreducible module of a larger algebra
(a rank-1 lattice datum here) decomposes into modules of the orbifold whose
S-matrix is being completed.  Applying the modular transform to a parent
character and expanding both sides through the branching yields, for every
parent module l and orbifold module m, one exact linear relation

    sum_k b[l,k] * S[k,m]  =  sum_j P[l,j] * b[j,m]

between orbifold S-entries (P is the parent S-matrix).  Relations touching
only known entries are consistency checks on the shipped data; the rest
form an overdetermined linear system in the unknown entries, with
symmetry-folded unknowns.  The package's one exact solver, ``eliminate``,
is sparse Gauss-Jordan elimination over Q or a cyclotomic field that records
which source relations every reduced row came from.  The completion
eliminates all its relations; the eigenvector route eliminates doubling
prefixes of each column's relations and certifies the rest by the Verlinde
rows of the completed S.

A parent is the parsed ``mdf.BranchingSection`` (parent, k, rows); its
lattice datum of norm 2k is rebuilt where needed, in a few milliseconds.

One generator, ``_relations``, yields each right-hand side as weighted pairs
(P[l,j], b[j,m]), with the row b[l,.] sorted once per parent row.  The one
relation pass appends the known entries weighted by -b[l,k] and computes
each distinct sum once per call, through a local memo of
``cyclo.weighted_sum`` keyed by the tuple of pairs (equal entries are one
object in the datum, and parent rows repeat).  So no integer weight becomes
a cyclotomic and no product is canonicalized on its own, while every check,
equation and finding stays one per relation.  A relation's label,
"parent:moduleL:colM", is formatted only for an equation or a failed check.
A relation of a single-module row (branching {m: 1}) gives an S entry
outright; where that entry is known, a failed check is also an anti-typo
audit finding, a derived-versus-shipped conflict.  ``complete`` reads the
audit off the pass over every relation, ``check_derived_rows`` off the pass
over these rows alone.  ``check_derived_rows`` and ``DeriveReport`` are kept
for the benchmark harness, which times that audit as a stage; the dataset
generator instead completes a blank S from the branching tables alone and
compares every tabulated entry with the result.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .cyclo import Cyclotomic, minus_product, weighted_sum
from .lattice import LatticeSpec, lattice_modular_data
from .mdf import BranchingSection, IndexRangeError, Record, check_fixture_range
from .modular_data import ModularDatum

__all__ = [
    "UnderdeterminedError", "InconsistentSystemError", "eliminate", "check_derived_rows",
    "assemble_system", "solve", "complete", "eigen_complete",
]


def _occurrences(section: BranchingSection, size: int) -> list[list[tuple[int, int]]]:
    """For each orbifold module, the (parent index, multiplicity) pairs where it occurs."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for l, terms in sorted(section.rows.items()):
        for m, mult in terms.items():
            if not 0 <= m < size:
                raise IndexRangeError(f"{section.parent}: branching target {m} "
                                      f"out of range for {size} modules")
            out[m].append((l, mult))
    return out


def _relations(parents: list[BranchingSection], size: int, singles_only: bool = False):
    """Every relation sum_k b[l,k] S[k,m] = sum_j P[l,j] b[j,m], one per parent row l
    and orbifold column m, as (parent, l, b[l,.], m, [(P[l,j], b[j,m]) for each j]),
    with b[l,.] the sorted (k, b[l,k]) pairs, sorted once per row.

    With ``singles_only`` only the rows b[l,.] = {r: 1} are generated: their
    relations read S[r,m] straight off the parent side.
    """
    for section in parents:
        occurrences = _occurrences(section, size)
        parent = lattice_modular_data(LatticeSpec(section.k))
        for l, terms in sorted(section.rows.items()):
            if singles_only and list(terms.values()) != [1]:
                continue
            row = parent.s[l]
            items = sorted(terms.items())
            for m in range(size):
                yield (section.parent, l, items, m,
                       [(row[j], bjm) for j, bjm in occurrences[m]])


def _label(parent: str, l: int, m: int) -> str:
    """The name of a relation, formatted only for equations and failed checks."""
    return f"{parent}:module{l}:col{m}"


def _fold(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


def _entry(target: ModularDatum, i: int, j: int) -> Cyclotomic | None:
    """S[i,j], read off its mirror S[j,i] when only the mirror is known."""
    value = target.s[i][j]
    return target.s[j][i] if value is None else value


# -- exact linear elimination -------------------------------------------------

class UnderdeterminedError(ValueError):
    def __init__(self, free_unknowns):
        super().__init__(f"system leaves unknowns free: {free_unknowns}")
        self.free_unknowns = free_unknowns


class InconsistentSystemError(ValueError):
    """The relations contradict each other; carries a minimal certificate."""

    def __init__(self, certificate, residual):
        super().__init__(f"contradictory relations (residual {residual}): {sorted(certificate)}")
        self.certificate = sorted(certificate)
        self.residual = residual


def eliminate(rows, unknowns: list) -> dict:
    """Sparse Gauss-Jordan elimination over Q or a cyclotomic field.

    Each row is ``(coeffs, rhs, labels)``: the relation
    sum_u coeffs[u] * x_u = rhs together with the labels of the source
    relations it came from.  Coefficients and right-hand sides may be ``int``,
    ``Fraction`` or ``Cyclotomic``.  A pivot of +-1 is its own inverse and keeps
    its type, so integer rows with unit pivots update in ``int``s; any other
    pivot c is inverted as ``Fraction(1) / c``, so the solution is exact.
    Unknowns are pivoted in the given order, each on the remaining row with
    the fewest coefficients (ties go to the earliest row), which limits
    fill-in (Markowitz 1957).  An index from each unknown to the rows that
    hold it, pivot rows included, names the rows a pivot reduces, so each
    pivot touches only those, and no back-substitution is needed.  A reduced
    row inherits the labels of every pivot applied to it.  Each distinct
    update x - a * b is computed once per call, through one local memo of
    ``cyclo.minus_product`` that keys on the types too, so an ``int`` and an equal
    ``Fraction`` keep their own results.

    Returns {unknown: value}, a rational value as a ``Fraction``.  Which
    unknowns get a pivot, and the solution, do not depend on the rows chosen
    (the type of a value can, where rational and cyclotomic right-hand sides
    mix); a certificate does.  So when a row first reads 0 = r, r != 0, the
    elimination runs again with each unknown pivoted on the earliest
    remaining row that holds it, and raises InconsistentSystemError with the
    merged labels of the first row a pivot of that run reduces to 0 = r (a
    row read without coefficients counts as zeroed by the first pivot, or is
    reported when no pivot is made).  Raises UnderdeterminedError naming the
    unknowns left without a pivot, and ValueError naming those that a row
    holds but ``unknowns`` does not list.
    """
    work = [({k: c for k, c in coeffs.items() if c}, rhs, set(labels))
            for coeffs, rhs, labels in rows]
    listed = set(unknowns)
    unlisted = list(dict.fromkeys(k for coeffs, _, _ in work for k in coeffs if k not in listed))
    if unlisted:
        raise ValueError(f"rows hold unknowns that are not listed: {unlisted}")
    update = lru_cache(maxsize=None, typed=True)(minus_product)
    try:
        return _gauss_jordan(work, unknowns, update, True)
    except InconsistentSystemError:
        return _gauss_jordan(work, unknowns, update, False)


def _gauss_jordan(work, unknowns, update, fewest: bool) -> dict:
    """``eliminate`` on rows without zero coefficients, each unknown pivoted on
    the remaining row with the ``fewest`` coefficients, or else on the earliest."""
    work = list(work)
    holders: dict = {}  # unknown -> ids of the rows holding it, pivot rows included
    for i, (coeffs, _, _) in enumerate(work):
        for k in coeffs:
            holders.setdefault(k, set()).add(i)
    zeroed = [i for i, row in enumerate(work) if not row[0]]
    pivots: dict = {}  # unknown -> id of its pivot row
    pivot_rows = set()
    for u in unknowns:
        ids = holders.pop(u, set())
        remaining = ids - pivot_rows
        if not remaining:
            continue
        p = min(remaining, key=lambda i: (len(work[i][0]), i)) if fewest else min(remaining)
        coeffs, rhs, labels = work[p]
        lead = coeffs[u]
        inv = lead if lead in (1, -1) else Fraction(1) / lead
        pivot = work[p] = ({k: c * inv for k, c in coeffs.items() if k != u}, rhs * inv, labels)
        pivots[u] = p
        pivot_rows.add(p)
        for i in ids:
            if i == p:
                continue
            row = work[i] = _reduce_row(work[i], u, pivot, update)
            for k in pivot[0]:
                if k in row[0]:
                    holders[k].add(i)
                else:
                    holders[k].discard(i)
            if not row[0] and i not in pivot_rows:
                zeroed.append(i)
        _raise_contradiction(work[i] for i in sorted(zeroed))
        zeroed = []
    if not pivots:
        _raise_contradiction(work[i] for i in zeroed)
    free = [u for u in unknowns if u not in pivots]
    if free:
        raise UnderdeterminedError(free)
    values = {u: work[pivots[u]][1] for u in unknowns}
    return {u: Fraction(v) if type(v) is int else v for u, v in values.items()}


def _raise_contradiction(work) -> None:
    """Raise InconsistentSystemError on the first row reading 0 = r, r != 0."""
    for coeffs, rhs, labels in work:
        if not coeffs and rhs:
            raise InconsistentSystemError(labels, rhs)


def _reduce_row(row, u, pivot, update):
    """Eliminate unknown u from a row that holds it, with a normalized pivot row
    for u; ``update(x, a, b)`` is x - a * b."""
    coeffs, rhs, labels = row
    factor = coeffs[u]
    coeffs = {k: c for k, c in coeffs.items() if k != u}
    for k, c in pivot[0].items():
        value = update(coeffs.get(k, 0), factor, c)
        if value:
            coeffs[k] = value
        else:
            coeffs.pop(k, None)
    return coeffs, update(rhs, factor, pivot[1]), labels | pivot[2]


# -- the linear system --------------------------------------------------------

class LinearSystem(Record):
    """Relations as ``eliminate`` rows: (coeffs, rhs, (label,))."""

    def __init__(self, unknowns: list[tuple[int, int]], equations: list[tuple] | None = None,
                 checks_passed: int = 0, check_failures: list[str] | None = None,
                 derived_conflicts: list[str] | None = None, relations: int = 0):
        self.unknowns = unknowns
        self.equations = [] if equations is None else equations
        self.checks_passed = checks_passed
        self.check_failures = [] if check_failures is None else check_failures
        # The failed checks of single-module rows: the derived-row audit's findings.
        self.derived_conflicts = [] if derived_conflicts is None else derived_conflicts
        self.relations = relations  # relations read: checks, equations and failures alike


def assemble_system(parents: list[BranchingSection],
                    target: ModularDatum) -> LinearSystem:
    """Relations for the unknown entries; known-only relations become checks.

    Entries are folded through the symmetry S[i,j] = S[j,i]: a pair is one
    unknown when both of its cells are "?", and a relation reads whichever
    cell of a pair is known, so no known entry is ever solved for.
    """
    return _relation_pass(parents, target)


# Not a keyword of assemble_system: the audit stays off that public, traceable name.
def _relation_pass(parents: list[BranchingSection], target: ModularDatum,
                   singles_only: bool = False) -> LinearSystem:
    n = target.size
    system = LinearSystem(unknowns=sorted({_fold(i, j) for i, j in target.unknown_positions()
                                           if _entry(target, i, j) is None}))
    appearing = {m for section in parents for terms in section.rows.values() for m in terms}
    missing = [m for m in range(n) if m not in appearing]
    if parents and missing:
        system.check_failures.append(
            f"modules {missing} never appear in any parent decomposition")
    sums = lru_cache(maxsize=None)(weighted_sum)
    for parent, l, items, m, residual in _relations(parents, n, singles_only):
        system.relations += 1
        coeffs: dict[tuple[int, int], int] = {}
        for k, blk in items:
            value = _entry(target, k, m)
            if value is None:
                key = _fold(k, m)
                coeffs[key] = coeffs.get(key, 0) + blk
            else:
                residual.append((value, -blk))
        rhs = sums(tuple(residual))
        if coeffs:
            system.equations.append((coeffs, rhs, (_label(parent, l, m),)))
        elif rhs.is_zero():
            system.checks_passed += 1
        else:
            label = _label(parent, l, m)
            system.check_failures.append(
                f"{label}: residual {rhs} (known entries violate the relation)")
            if [blk for _, blk in items] == [1]:
                ((r, _),) = items
                system.derived_conflicts.append(_conflict(label, r, m, _entry(target, r, m), rhs))
    return system


def _conflict(label: str, r: int, m: int, shipped: Cyclotomic, residual: Cyclotomic) -> str:
    """The audit finding for S[r,m], derived as shipped + residual."""
    return (f"S[{r},{m}] from {label.rsplit(':', 1)[0]}: "
            f"derived {residual + shipped}, shipped {shipped}")


class CompletionResult(namedtuple("CompletionResult", "datum solved verified")):
    """The completed ``datum``, the ``solved`` folded unknowns and the count of
    relations ``verified``: passed checks + equations eliminated to 0 = 0,
    len(equations) - len(unknowns)."""

    __slots__ = ()


def solve(system: LinearSystem, target: ModularDatum) -> CompletionResult:
    """Exact Gauss-Jordan elimination over the folded unknowns.

    Raises InconsistentSystemError with the set of source relations whose
    combination is contradictory, or UnderdeterminedError naming free
    unknowns.  On success the returned datum is fully known and every input
    relation is reproduced; a "?" cell whose mirror is known takes the
    mirror's value.  The datum is ``target.completed``, so while it is held
    an ``eigen_complete`` of ``target`` that agrees certifies this object.
    """
    if system.check_failures:
        raise InconsistentSystemError(system.check_failures, "known-entry checks failed")
    solution = eliminate(system.equations, system.unknowns)
    new_entries = {}
    for i, j in target.unknown_positions():
        mirror = target.s[j][i]
        new_entries[(i, j)] = solution[_fold(i, j)] if mirror is None else mirror
    completed = target.completed(new_entries)
    return CompletionResult(datum=completed, solved=solution, verified=system.checks_passed
                            + len(system.equations) - len(system.unknowns))


class DeriveReport(namedtuple("DeriveReport", "entries_checked conflicts")):
    """The derived-row audit: the relations it read and the conflicts it found."""

    __slots__ = ()

    def __new__(cls, entries_checked: int = 0, conflicts: list[str] | None = None):
        return super().__new__(cls, entries_checked, [] if conflicts is None else conflicts)


def check_derived_rows(parents: list[BranchingSection],
                       target: ModularDatum) -> DeriveReport:
    """Compare every entry of a single-module row with the shipped one.

    Each such entry is one relation of the system, S[r,m] = sum_j P[l,j] b[j,m];
    a mismatch against a known entry, or its known mirror, is reported (never
    overwritten).  This anti-typo audit is ``complete``'s relation pass over
    single-module rows alone, read as its relation count and derived conflicts.
    """
    system = _relation_pass(parents, target, singles_only=True)
    return DeriveReport(system.relations, system.derived_conflicts)


def complete(target: ModularDatum, parents: list[BranchingSection]) -> CompletionResult:
    """Full pipeline: one relation pass assembles the system and audits the
    derivable rows; a conflict there is reported first, then the system is solved."""
    system = assemble_system(parents, target)
    if system.derived_conflicts:
        raise InconsistentSystemError(system.derived_conflicts,
                                      "derived rows contradict shipped entries")
    return solve(system, target)


# -- eigenvector cross-check --------------------------------------------------

def _eigen_rows(target: ModularDatum, products, s: int, missing: set, inv0: Cyclotomic):
    """The eigenvalue relations of column s, as ``eliminate`` rows, one
    per recorded product (a, b) in the insertion order of ``products`` (sorted
    once by ``eigen_complete``); built as they are read, each
    chi_s(r) = S[r,s]/S[0,s] once, when a row first needs it.  Fusion
    multiplicities stay integer coefficients and weights."""
    chi = lru_cache(maxsize=None)(lambda r: target.entry(r, s) * inv0)
    for (a, b), terms in products.items():
        # The eigenvalue relation sum_k N[a,b]^k chi_s(k) = chi_s(a) chi_s(b)
        # stays linear in the unknowns as long as chi_s(a) is known.
        if a in missing:
            continue
        b_unknown = b in missing
        if not b_unknown and not any(k in missing for k in terms):
            continue
        coeffs = {k: mult for k, mult in terms.items() if k in missing}
        residual = [(chi(k), -mult) for k, mult in terms.items() if k not in missing]
        if b_unknown:
            coeffs[b] = coeffs.get(b, 0) - chi(a)
        else:
            residual.append((chi(a) * chi(b), 1))
        yield coeffs, weighted_sum(residual), (f"N[{a},{b}] col{s}",)


def _solve_prefix(relations, missing: list) -> dict:
    """``eliminate`` on the shortest prefix of len(missing) * 2^t relations
    that pins every unknown; UnderdeterminedError once the relations run out.
    Rows outside the prefix are not checked."""
    rows = list(islice(relations, len(missing)))
    while True:
        try:
            return eliminate(rows, missing)
        except UnderdeterminedError:
            more = list(islice(relations, len(rows)))
            if not more:
                raise
            rows += more


def _eigen_columns(target: ModularDatum, products, solve) -> dict[tuple[int, int], Cyclotomic]:
    """The unknown entries of every column, in order, each column's relations
    solved by ``solve(relations, missing)``; 1/S[0,s] is ``target.vacuum_inverse(s)``."""
    n = target.size
    out: dict[tuple[int, int], Cyclotomic] = {}
    for s in range(n):
        missing = [r for r in range(n) if not target.known(r, s)]
        if not missing:
            continue
        s00 = target.entry(0, s)
        relations = _eigen_rows(target, products, s, set(missing), target.vacuum_inverse(s))
        try:
            values = solve(relations, missing)
        except UnderdeterminedError:
            raise UnderdeterminedError([(r, s) for r in missing]) from None
        for r in missing:
            out[(r, s)] = values[r] * s00
    return out


def eigen_complete(target: ModularDatum, fixtures) -> dict[tuple[int, int], Cyclotomic]:
    """Second, independent route to the unknown entries via fusion matrices.

    Every column of S is a simultaneous eigenvector of the fusion matrices,
    with eigenvalues S[i,s]/S[0,s].  Rows of fusion matrices are taken from
    the recorded (hard) fusion products, so for each column s containing
    unknowns the eigenvalue equations become an exact linear system in the
    unknown entries of that column.  Agreement with the branching-based
    completion cross-checks both routes and the fixture transcription; a
    contradiction names the relations "N[a,b] colS" that produce it.

    Each column is solved from the shortest prefix of len(missing) * 2^t of
    its relations that pins every unknown.  The rest are certified at once:
    on S' = ``target.completed`` with those values, ``ModularDatum.reproduces``
    checks that the engine of S' (``ModularDatum.engine``) certifies every
    recorded product as its row, which proves
    sum_k N[a,b]^k S'[k,s] S'[0,s] = S'[a,s] S'[b,s] at every column, hence
    every relation of every column.  On any failure -- a prefix contradicts
    itself or runs out of relations, or a recorded product is not the
    certified row, or S' fails its Galois check or S'^2 = C, or has no
    usable prime -- every column eliminates all its relations, in order, so
    the result and every error are those of full elimination.  The route
    reads fixtures and shipped entries only.

    When the values agree with those of a ``solve`` of ``target`` whose datum
    is still held, S' is that datum: its Galois check, S^2 = C, engine and
    certified rows, derived here or there, serve ``validate``, the tensor and
    ``check_ring`` too.  Run before ``solve``, or after its datum is dropped,
    the route certifies an S' of its own, which is gone once it returns.
    """
    check_fixture_range(fixtures, target.size)
    products: dict[tuple[int, int], dict[int, int]] = {}
    for fx in fixtures:
        if fx.soft:
            continue
        products[(fx.left, fx.right)] = fx.terms
        products[(fx.right, fx.left)] = fx.terms
    products = dict(sorted(products.items()))
    # N[a,b] = N[b,a]: one row per unordered product.
    rows = {}
    for (a, b), terms in products.items():
        if a <= b:
            row = rows[a, b] = [0] * target.size
            for k, mult in terms.items():
                row[k] = mult
    try:
        out = _eigen_columns(target, products, _solve_prefix)
        if not out or target.completed(out).reproduces(rows):
            return out
    except (ArithmeticError, LookupError, ValueError):
        pass
    return _eigen_columns(target, products, eliminate)
