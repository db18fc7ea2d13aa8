"""Completing a partial S-matrix from parent-algebra branching data.

A branching table records how each irreducible module of a larger algebra
(a rank-1 lattice datum here) decomposes into modules of the orbifold whose
S-matrix is being completed.  Applying the modular transform to a parent
character and expanding both sides through the branching yields, for every
parent module l and orbifold module m, one exact linear relation

    sum_k b[l,k] * S[k,m]  =  sum_j P[l,j] * b[j,m]

between orbifold S-entries (P is the parent S-matrix).  Relations touching
only known entries are consistency checks on the shipped data; the rest
form an overdetermined linear system in the unknown entries, solved by
exact Gaussian elimination with symmetry-folded unknowns.

A parent is the parsed ``mdf.BranchingSection`` (parent, k, rows); its
lattice datum of norm 2k is rebuilt where needed, in a few milliseconds.

Rows belonging to orbifold modules that exhaust a single parent module
(branching {m: 1}) come straight out of single relations; ``derive_rows``
recomputes them independently for cross-checking against shipped values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cyclo import (Cyclotomic, InconsistentSystemError, UnderdeterminedError,
                    eliminate, exact_sum, inverse)
from .lattice import LatticeSpec, lattice_modular_data
from .mdf import BranchingSection, IndexRangeError, check_fixture_range
from .modular_data import ModularDatum

__all__ = [
    "UnderdeterminedError", "InconsistentSystemError",
    "derive_rows", "check_derived_rows",
    "assemble_system", "solve", "complete", "eigen_complete",
]


@dataclass
class DerivedEntry:
    row: int
    col: int
    value: Cyclotomic
    chain: str


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


def derive_rows(section: BranchingSection,
                target: ModularDatum) -> list[tuple[int, list[DerivedEntry]]]:
    """Exact S-rows for orbifold modules identified with single parent modules.

    For a module m with branching {m: 1} at parent index l, the row is
    S[m, k] = sum over occurrences (l_i, s_i) of k of s_i * P[l, l_i].  When
    several parent indices pin the same module, all derivations are emitted
    (they must agree; disagreement shows up as a conflict downstream).
    """
    parent = lattice_modular_data(LatticeSpec(section.k))
    occurrences = _occurrences(section, target.size)
    singles: dict[int, list[int]] = {}
    for l, terms in sorted(section.rows.items()):
        if len(terms) == 1:
            (m, mult), = terms.items()
            if mult == 1:
                singles.setdefault(m, []).append(l)
    out = []
    for m in sorted(singles):
        entries = []
        for l in singles[m]:
            for k in range(target.size):
                value = exact_sum(parent.s[l][l2] * mult for l2, mult in occurrences[k])
                entries.append(DerivedEntry(
                    row=m, col=k, value=value,
                    chain=f"{section.parent}:module{l}"))
        out.append((m, entries))
    return out


# -- the linear system --------------------------------------------------------

@dataclass
class LinearSystem:
    """Relations as ``cyclo.eliminate`` rows: (coeffs, rhs, (label,))."""

    unknowns: list[tuple[int, int]]
    equations: list[tuple] = field(default_factory=list)
    checks_passed: int = 0
    check_failures: list[str] = field(default_factory=list)


def _fold(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


def assemble_system(parents: list[BranchingSection],
                    target: ModularDatum) -> LinearSystem:
    """Relations for the unknown entries; known-only relations become checks.

    Unknown positions are folded through the symmetry S[i,j] = S[j,i], so
    the system's unknowns are exactly the distinct "?" cells of the target.
    """
    n = target.size
    unknown = sorted({_fold(i, j) for (i, j) in target.unknown_positions()})
    unknown_set = set(unknown)
    system = LinearSystem(unknowns=unknown)
    tables = [(section, _occurrences(section, n)) for section in parents]
    missing = [m for m in range(n) if not any(occ[m] for _, occ in tables)]
    if parents and missing:
        system.check_failures.append(
            f"modules {missing} never appear in any parent decomposition")
    for section, occurrences in tables:
        parent = lattice_modular_data(LatticeSpec(section.k))
        for l, terms in sorted(section.rows.items()):
            for m in range(n):
                residual = [parent.s[l][j] * bjm for j, bjm in occurrences[m]]
                coeffs: dict[tuple[int, int], Fraction] = {}
                for k, blk in sorted(terms.items()):
                    key = _fold(k, m)
                    if key in unknown_set:
                        coeffs[key] = coeffs.get(key, Fraction(0)) + blk
                    else:
                        residual.append(target.entry(k, m) * -blk)
                rhs = exact_sum(residual)
                label = f"{section.parent}:module{l}:col{m}"
                if coeffs:
                    system.equations.append((coeffs, rhs, (label,)))
                elif rhs.is_zero():
                    system.checks_passed += 1
                else:
                    system.check_failures.append(
                        f"{label}: residual {rhs} (known entries violate the relation)")
    return system


@dataclass
class CompletionResult:
    datum: ModularDatum
    solved: dict[tuple[int, int], Cyclotomic]
    checks_passed: int


def solve(system: LinearSystem, target: ModularDatum) -> CompletionResult:
    """Exact Gauss-Jordan elimination over the folded unknowns.

    Raises InconsistentSystemError with the set of source relations whose
    combination is contradictory, or UnderdeterminedError naming free
    unknowns.  On success the returned datum is fully known and every input
    relation is reproduced.
    """
    if system.check_failures:
        raise InconsistentSystemError(system.check_failures, "known-entry checks failed")
    solution = eliminate(system.equations, system.unknowns)
    new_entries: dict[tuple[int, int], Cyclotomic] = {}
    for (i, j), value in solution.items():
        new_entries[(i, j)] = value
        new_entries[(j, i)] = value
    completed = target.with_entries(new_entries)
    return CompletionResult(datum=completed, solved=solution,
                            checks_passed=system.checks_passed)


@dataclass
class DeriveReport:
    entries_checked: int = 0
    conflicts: list[str] = field(default_factory=list)


def check_derived_rows(parents: list[BranchingSection],
                       target: ModularDatum) -> DeriveReport:
    """Re-derive every single-module row and compare with shipped entries.

    Any mismatch against a known entry is reported (never overwritten); this
    is the dataset's anti-typo audit.
    """
    report = DeriveReport()
    for section in parents:
        for m, entries in derive_rows(section, target):
            for entry in entries:
                known = target.s[entry.row][entry.col]
                report.entries_checked += 1
                if known is not None and known != entry.value:
                    report.conflicts.append(
                        f"S[{entry.row},{entry.col}] from {entry.chain}: "
                        f"derived {entry.value}, shipped {known}")
    return report


def complete(target: ModularDatum, parents: list[BranchingSection]) -> CompletionResult:
    """Full pipeline: audit derivable rows, assemble relations, solve."""
    report = check_derived_rows(parents, target)
    if report.conflicts:
        raise InconsistentSystemError(report.conflicts, "derived rows contradict shipped entries")
    system = assemble_system(parents, target)
    return solve(system, target)


# -- eigenvector cross-check --------------------------------------------------

def eigen_complete(target: ModularDatum, fixtures) -> dict[tuple[int, int], Cyclotomic]:
    """Second, independent route to the unknown entries via fusion matrices.

    Every column of S is a simultaneous eigenvector of the fusion matrices,
    with eigenvalues S[i,s]/S[0,s].  Rows of fusion matrices are taken from
    the recorded (hard) fusion products, so for each column s containing
    unknowns the eigenvalue equations become an exact linear system in the
    unknown entries of that column.  Agreement with the branching-based
    completion cross-checks both routes and the fixture transcription; a
    contradiction names the relations "N[a,b] colS" that produce it.
    """
    n = target.size
    check_fixture_range(fixtures, n)
    products: dict[tuple[int, int], dict[int, int]] = {}
    for fx in fixtures:
        if fx.soft:
            continue
        products[(fx.left, fx.right)] = fx.terms
        products[(fx.right, fx.left)] = fx.terms
    out: dict[tuple[int, int], Cyclotomic] = {}
    for s in range(n):
        missing = [r for r in range(n) if not target.known(r, s)]
        if not missing:
            continue
        missing_set = set(missing)
        inv0 = inverse(target.entry(0, s))
        chi = {r: target.entry(r, s) * inv0 for r in range(n)
               if r not in missing_set}
        rows = []
        for (a, b), terms in sorted(products.items()):
            # The eigenvalue relation sum_k N[a,b]^k chi_s(k) = chi_s(a) chi_s(b)
            # stays linear in the unknowns as long as chi_s(a) is known.
            if a in missing_set:
                continue
            b_unknown = b in missing_set
            if not b_unknown and not any(k in missing_set for k in terms):
                continue
            coeffs = {k: Cyclotomic.from_rational(mult)
                      for k, mult in terms.items() if k in missing_set}
            residual = [chi[k] * -mult for k, mult in terms.items() if k not in missing_set]
            if b_unknown:
                coeffs[b] = coeffs.get(b, Cyclotomic.zero()) - chi[a]
            else:
                residual.append(chi[a] * chi[b])
            rows.append((coeffs, exact_sum(residual), (f"N[{a},{b}] col{s}",)))
        try:
            values = eliminate(rows, missing)
        except UnderdeterminedError:
            raise UnderdeterminedError([(r, s) for r in missing]) from None
        s00 = target.entry(0, s)
        for r in missing:
            out[(r, s)] = values[r] * s00
    return out

