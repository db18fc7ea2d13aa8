"""The derived-row audit, the relation system, exact solving, completion from
the branching tables alone, and the eigen route."""

import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from fusionring import branching, cyclo
from fusionring.branching import (InconsistentSystemError, UnderdeterminedError,
                                  assemble_system, check_derived_rows,
                                  complete, eigen_complete, solve)
from fusionring.cyclo import Cyclotomic, embed, inverse, root_of_unity, sqrt_int
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.mdf import BranchingSection, FixtureRecord, IndexRangeError
from fusionring.modular_data import ModularDatum, validate


def by_name(parents, name):
    return next(p for p in parents if p.parent == name)


def corrupted_audit(section, datum, row, col):
    """(chain, derived value) of each audit conflict on a copy with S[row,col] = 0.

    The mirror S[col,row] keeps its value, so only the cell itself conflicts.
    """
    report = check_derived_rows([section], datum.with_entries({(row, col): Cyclotomic.zero()}))
    out = []
    for line in report.conflicts:
        match = re.fullmatch(rf"S\[{row},{col}\] from (\S+): derived (.+), shipped 0", line)
        assert match, line
        out.append(match.groups())
    return out


def test_norm18_rows_reproduce_order18_symbols(s4):
    datum, parents, _ = s4
    gamma = by_name(parents, "norm18")
    cell = (root_of_unity(18, 2) + root_of_unity(18, 16)) * Fraction(4, 3)
    inv32 = inverse(sqrt_int(32))
    assert check_derived_rows([gamma], datum).conflicts == []
    assert datum.s[12][13] == cell * inv32
    derived = corrupted_audit(gamma, datum, 12, 13)
    assert derived and all(value == str(cell * inv32) for _, value in derived)


def test_norm32_rows_reproduce_order32_symbols(s4):
    datum, parents, _ = s4
    zeta = by_name(parents, "norm32")
    cell = root_of_unity(32, 3) + root_of_unity(32, 29)
    inv32 = inverse(sqrt_int(32))
    assert check_derived_rows([zeta], datum).conflicts == []
    assert datum.s[18][19] == cell * inv32
    derived = corrupted_audit(zeta, datum, 18, 19)
    assert derived and all(value == str(cell * inv32) for _, value in derived)


def test_twisted_block_closed_form(s4):
    # S[s,s'] = (zeta_32^(s s') + zeta_32^(-s s')) / sqrt(32) on rows 18..25;
    # float oracle 2 cos(pi s s' / 16) / sqrt(32).
    datum, _, _ = s4
    inv32 = inverse(sqrt_int(32))
    svals = [1, 3, 5, 7, 9, 11, 13, 15]
    for a, s in enumerate(svals):
        for b, sp in enumerate(svals):
            exact = (root_of_unity(32, s * sp) + root_of_unity(32, -s * sp)) * inv32
            assert datum.s[18 + a][18 + b] == exact
            oracle = 2 * math.cos(math.pi * s * sp / 16) / math.sqrt(32)
            assert abs(embed(datum.s[18 + a][18 + b]).real - oracle) < 1e-12


def test_mirror_cosets_give_identical_rows(s4):
    # Modules pinned by two parent cosets (l and 2k-l) derive identically:
    # a corrupted S[18,19] conflicts once per coset, with one derived value.
    datum, parents, _ = s4
    zeta = by_name(parents, "norm32")
    derived = corrupted_audit(zeta, datum, 18, 19)
    assert len(derived) == 2
    (first_chain, first), (second_chain, second) = derived
    assert first_chain != second_chain
    assert first == second


def test_derived_rows_match_shipped_tables(s4):
    datum, parents, _ = s4
    report = check_derived_rows(parents, datum)
    assert report.conflicts == []
    assert report.entries_checked == 1120


def test_complete_audits_from_its_one_relation_pass(s4, monkeypatch):
    # Two corrupted derivable cells: complete reports the audit's conflicts,
    # with the same text and order, and builds each parent datum once.
    import fusionring.branching as branching

    datum, parents, _ = s4
    bad = datum.with_entries({(12, 13): Cyclotomic.zero(), (18, 19): Cyclotomic.one()})
    report = check_derived_rows(parents, bad)
    expected = report.conflicts
    assert (report.entries_checked, len(expected)) == (1120, 4)
    system = assemble_system(parents, bad)
    assert system.derived_conflicts == expected
    built = []
    build = branching.lattice_modular_data
    monkeypatch.setattr(branching, "lattice_modular_data",
                        lambda spec: built.append(spec.k) or build(spec))
    with pytest.raises(InconsistentSystemError) as err:
        complete(bad, parents)
    assert err.value.certificate == sorted(expected)
    assert err.value.residual == "derived rows contradict shipped entries"
    assert sorted(built) == sorted(section.k for section in parents)


def test_system_shape(s4):
    datum, parents, _ = s4
    system = assemble_system(parents, datum)
    assert len(system.unknowns) == 28      # 7x7 block folded by symmetry
    assert system.check_failures == []
    assert system.checks_passed == 1498
    assert len(system.equations) == 126


def test_branching_weights_stay_integers(s4, monkeypatch):
    # Multiplicities, signs and integer pivots reach the accumulation kernel as
    # plain numbers: no stage turns a rational into an element, and no sum is
    # built one pair at a time.
    datum, parents, fixtures = s4
    calls = []

    def counted(name, func):
        return lambda *args: calls.append(name) or func(*args)

    monkeypatch.setattr(Cyclotomic, "from_rational",
                        staticmethod(counted("from_rational", Cyclotomic.from_rational)))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Cyclotomic, name, counted(name, getattr(Cyclotomic, name)))
    report = check_derived_rows(parents, datum)
    system = assemble_system(parents, datum)
    eigen = eigen_complete(datum, fixtures)
    assert calls == []
    assert (report.entries_checked, report.conflicts) == (1120, [])
    assert (len(system.equations), system.checks_passed, len(system.unknowns)) == (126, 1498, 28)
    assert len(eigen) == 49


def test_each_distinct_sum_once_per_call(s4, s4_completed, monkeypatch):
    # Equal entries are one object and parent rows repeat: of the system's
    # 1624 relation sums 178 are distinct, of the audit's 1120 83, and of the
    # elimination's 365 updates 105: every pivot is +-1 and stays an int, so no
    # pivot turns an update's operands into Fractions that the typed memo
    # keeps apart from equal ints.  The sparsest pivot rows need fewer
    # updates than the earliest ones (919, 234 distinct): a count that fell,
    # not a looser check.
    # Each memo lives for one call, so a second call sums everything again.
    datum, parents, _ = s4
    calls = []
    for module, name in ((branching, "weighted_sum"), (branching, "minus_product")):
        func = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, func=func:
                            calls.append(name) or func(*args))

    def counted(call):
        calls.clear()
        result = call()
        return result, (calls.count("weighted_sum"), calls.count("minus_product"))

    system, count = counted(lambda: assemble_system(parents, datum))
    assert count == (178, 0)
    assert (len(system.equations), system.checks_passed, system.check_failures) == (126, 1498, [])
    assert counted(lambda: assemble_system(parents, datum))[1] == (178, 0)
    report, count = counted(lambda: check_derived_rows(parents, datum))
    assert count == (83, 0)
    assert (report.entries_checked, report.conflicts) == (1120, [])
    result, count = counted(lambda: solve(system, datum))
    assert count == (0, 105)
    assert result.datum.s == s4_completed.s


def test_solve_reduces_only_the_rows_that_hold_each_pivot(s4, monkeypatch):
    # Each pivot reduces the rows its unknown's index names, on the sparsest
    # row.  Scanning every remaining and pivot row at each pivot made 2775
    # calls on @s4 and 425245 on the labels-only copy.
    datum, parents, _ = s4
    calls = []
    reduce_row = branching._reduce_row
    monkeypatch.setattr(branching, "_reduce_row",
                        lambda *args: calls.append(1) or reduce_row(*args))
    for target, count in ((datum, 297), (blank(datum), 2096)):
        system = assemble_system(parents, target)
        calls.clear()
        solve(system, target)
        assert len(calls) == count


def unmemoized_findings(parents, target):
    """(check failures, derived conflicts, residual tuple of each failure) with
    every relation summed on its own: the oracle for the memoized passes.

    Built from the sections and the parent lattice data alone, in relation
    order (section, parent row l, column m):
    sum_j P[l,j] b[j,m] - sum_k b[l,k] S[k,m] over known S[k,m] (or S[m,k])."""
    failures, conflicts, failing = [], [], []
    n = target.size
    for section in parents:
        p = lattice_modular_data(LatticeSpec(section.k)).s
        for l, terms in sorted(section.rows.items()):
            for m in range(n):
                known = [(k, target.s[k][m] if target.s[k][m] is not None else target.s[m][k])
                         for k in sorted(terms)]
                if any(value is None for _, value in known):
                    continue
                residual = [(p[l][j], row[m]) for j, row in sorted(section.rows.items())
                            if m in row]
                residual += [(value, -terms[k]) for k, value in known]
                rhs = cyclo.weighted_sum(residual)
                if rhs:
                    label = f"{section.parent}:module{l}:col{m}"
                    failures.append(f"{label}: residual {rhs} (known entries violate the relation)")
                    failing.append(tuple(residual))
                    if list(terms.values()) == [1]:
                        ((r, shipped),) = known
                        conflicts.append(f"S[{r},{m}] from {section.parent}:module{l}: "
                                         f"derived {rhs + shipped}, shipped {shipped}")
    return failures, conflicts, failing


@pytest.mark.parametrize("cell, shared", [
    # Parent rows 3 and 5 of norm8 are both {27: 1} and read S[27,4] with
    # one residual tuple: two derived conflicts from one sum.
    ((27, 4), 2),
    # Nine column-0 checks read S[7,0]: norm32 rows 4, 12, 20 and 28 share one
    # residual tuple, norm18 rows 3 and 15 one, norm8 rows 2 and 6 one.
    ((7, 0), 8),
])
def test_findings_stay_per_relation(s4, cell, shared):
    # A memoized sum is shared; a finding is not: every failing relation is
    # listed under its own label, in relation order.
    datum, parents, _ = s4
    bad = datum.with_entries({cell: Cyclotomic.zero()})
    failures, conflicts, failing = unmemoized_findings(parents, bad)
    assert sum(n for n in Counter(failing).values() if n > 1) == shared
    system = assemble_system(parents, bad)
    assert system.check_failures == failures
    assert system.derived_conflicts == conflicts
    assert check_derived_rows(parents, bad).conflicts == conflicts
    if conflicts:
        with pytest.raises(InconsistentSystemError) as info:
            complete(bad, parents)
        assert info.value.certificate == sorted(conflicts)


def test_audit_counts_unknown_entries_without_comparing_them(s4):
    # S[27,3] and its mirror unknown: their relations are read, and become
    # equations, not conflicts.
    datum, parents, _ = s4
    hole = datum.with_entries({(27, 3): None, (3, 27): None})
    report = check_derived_rows(parents, hole)
    assert (report.entries_checked, report.conflicts) == (1120, [])


def test_audit_stays_off_the_public_assembly(s4, monkeypatch):
    # The audit runs the private pass, so a rebound assemble_system (as a
    # tracer installs) never sees it.
    datum, parents, _ = s4

    def refuse(*args):
        raise AssertionError("the audit called assemble_system")

    monkeypatch.setattr(branching, "assemble_system", refuse)
    report = check_derived_rows(parents, datum)
    assert (report.entries_checked, report.conflicts) == (1120, [])


def test_fully_known_datum_gives_empty_system(s4_completed, s4):
    _, parents, _ = s4
    system = assemble_system(parents, s4_completed)
    assert system.unknowns == [] and system.equations == []
    assert system.check_failures == []


def test_completion_rows_3_and_4(s4_completed):
    # The transform of the two three-dimensional modules pins rows 3 and 4:
    # columns 0..7 carry (1/2, 1/2, 1, 3/2, 3/2, 1, 1, 2) / sqrt(32).
    inv32 = inverse(sqrt_int(32))
    want = [Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2),
            Fraction(3, 2), Fraction(1), Fraction(1), Fraction(2)]
    for row in (3, 4):
        got = [s4_completed.entry(row, c) for c in range(8)]
        assert got == [inv32 * Cyclotomic.from_rational(x) for x in want]


def test_completed_block_frozen_values(s4_completed):
    # Independently hand-derived from the parent relations: the scaled block
    # sqrt(32) * S over rows/cols 1..7.
    expected = [
        ["1/6", "1/3", "1/2", "1/2", "1/3", "1/3", "2/3"],
        ["1/3", "2/3", "1", "1", "2/3", "2/3", "4/3"],
        ["1/2", "1", "3/2", "3/2", "1", "1", "2"],
        ["1/2", "1", "3/2", "3/2", "1", "1", "2"],
        ["1/3", "2/3", "1", "1", "-2/3", "-2/3", "-4/3"],
        ["1/3", "2/3", "1", "1", "-2/3", "-2/3", "-4/3"],
        ["2/3", "4/3", "2", "2", "-4/3", "-4/3", "-8/3"],
    ]
    s32 = sqrt_int(32)
    for r in range(1, 8):
        for c in range(1, 8):
            value = (s4_completed.entry(r, c) * s32).as_rational()
            assert value == Fraction(expected[r - 1][c - 1]), (r, c)


def test_completed_datum_validates(s4_completed):
    report = validate(s4_completed)
    assert report.ok
    assert report.dual_permutation == list(range(28))


def test_completion_preserves_known_entries(s4, s4_completed):
    datum, _, _ = s4
    for i in range(28):
        for j in range(28):
            if datum.known(i, j):
                assert s4_completed.s[i][j] == datum.s[i][j]


def test_known_entry_with_unknown_mirror_is_never_overwritten(s4, s4_completed):
    # S[1,2] given, S[2,1] "?": the pair is no unknown, and the relations
    # read the given value, so a wrong one is a contradiction, not replaced.
    datum, parents, _ = s4
    assert not datum.known(1, 2) and not datum.known(2, 1)
    wrong = datum.with_entries({(1, 2): Cyclotomic.from_rational(5) * inverse(sqrt_int(32))})
    with pytest.raises(InconsistentSystemError):
        complete(wrong, parents)
    right = datum.with_entries({(1, 2): s4_completed.s[1][2]})
    assert len(assemble_system(parents, right).unknowns) == 27
    assert complete(right, parents).datum.s == s4_completed.s


def test_no_parents_is_underdetermined(s4):
    datum, _, _ = s4
    system = assemble_system([], datum)
    with pytest.raises(UnderdeterminedError) as info:
        solve(system, datum)
    assert len(info.value.free_unknowns) == 28


def test_corrupted_branching_yields_certificate(s4):
    datum, parents, _ = s4
    tampered = []
    for p in parents:
        rows = {l: dict(t) for l, t in p.rows.items()}
        if p.parent == "norm8":
            rows[0] = {0: 1, 2: 1, 3: 1, 4: 1}   # drop a multiplicity
        tampered.append(BranchingSection(parent=p.parent, k=p.k, rows=rows))
    with pytest.raises(InconsistentSystemError) as info:
        complete(datum, tampered)
    assert any("norm8" in line for line in info.value.certificate)


def test_module_missing_from_every_parent_fails_the_checks(s4):
    datum, parents, _ = s4
    dropped = [BranchingSection(parent=p.parent, k=p.k,
                                rows={l: {m: c for m, c in t.items() if m != 27}
                                      for l, t in p.rows.items()})
               for p in parents]
    # The audit counts the 1064 single-module relations it reads; the
    # "never appear" failure is no relation.
    report = check_derived_rows(dropped, datum)
    assert (report.entries_checked, len(report.conflicts)) == (1064, 2)
    assert report.conflicts == unmemoized_findings(dropped, datum)[1]
    system = assemble_system(dropped, datum)
    assert system.check_failures[0] == "modules [27] never appear in any parent decomposition"
    with pytest.raises(InconsistentSystemError) as info:
        solve(system, datum)
    assert info.value.residual == "known-entry checks failed"
    assert info.value.certificate == sorted(system.check_failures)


def blank(datum):
    """The datum's labels with every S entry unknown."""
    return ModularDatum(datum.labels, [[None] * datum.size for _ in range(datum.size)])


def test_branching_tables_alone_determine_s(s4, s4_completed):
    # No tabulated entry is read: every S entry is solved from the relations.
    datum, parents, _ = s4
    result = complete(blank(datum), parents)
    assert (len(result.solved), result.verified) == (406, 1218)
    assert result.datum.s == s4_completed.s


@pytest.mark.parametrize("dropped, uncovered", [
    ("norm32", [8, 9, 10, 11, *range(18, 26)]),
    ("norm18", [12, 13, 14, 15, 16, 17]),
    ("norm8", [26, 27]),
])
def test_branching_alone_without_a_parent_names_its_modules(s4, dropped, uncovered):
    datum, parents, _ = s4
    with pytest.raises(InconsistentSystemError) as info:
        complete(blank(datum), [p for p in parents if p.parent != dropped])
    assert info.value.certificate == [
        f"modules {uncovered} never appear in any parent decomposition"]


def test_branching_alone_locates_a_corrupted_parent_row(s4):
    datum, parents, _ = s4
    tampered = [BranchingSection(p.parent, p.k, {**p.rows, 1: {19: 1}})
                if p.parent == "norm32" else p for p in parents]
    with pytest.raises(InconsistentSystemError) as info:
        complete(blank(datum), tampered)
    certificate = info.value.certificate
    assert certificate and all(re.fullmatch(r"norm(32|18|8):module\d+:col\d+", label)
                               for label in certificate)


def test_eigen_route_agrees(s4, s4_completed):
    datum, _, fixtures = s4
    eigen = eigen_complete(datum, fixtures)
    assert len(eigen) == 49
    for (r, c), value in eigen.items():
        assert s4_completed.entry(r, c) == value


def test_eigen_route_failure_names_its_relations(s4):
    # Corrupt the hard fixture 0 x 1 = 1 into 0 x 1 = 2*1: the eigen route must
    # name the relations built from that product, not a blanket label.
    datum, _, fixtures = s4
    tampered = [FixtureRecord(fx.left, fx.right, {1: 2}, fx.soft, fx.citation)
                if (fx.left, fx.right, fx.terms) == (0, 1, {1: 1}) else fx
                for fx in fixtures]
    assert tampered != fixtures
    with pytest.raises(InconsistentSystemError) as info:
        eigen_complete(datum, tampered)
    certificate = info.value.certificate
    assert any(label.startswith("N[0,1] ") for label in certificate), certificate
    assert all(label.startswith("N[") for label in certificate), certificate


def test_eigen_route_reports_the_first_column_that_fails(s4):
    # 9 x 11 gains the channel 1.  Column 5 meets the contradiction within
    # the relations that pin its unknowns, column 1 only after them; column 1
    # is reported, as when every column is eliminated in full, in order.
    datum, _, fixtures = s4
    tampered = [FixtureRecord(9, 11, {1: 1, **fx.terms}, fx.soft, fx.citation)
                if (fx.left, fx.right, fx.soft) == (9, 11, False) else fx for fx in fixtures]
    assert tampered != fixtures
    with pytest.raises(InconsistentSystemError) as info:
        eigen_complete(datum, tampered)
    assert info.value.certificate == ["N[8,1] col1", "N[8,3] col1", "N[8,4] col1",
                                      "N[8,5] col1", "N[8,7] col1", "N[9,11] col1"]
    assert info.value.residual == -1


def counted_eigen_route(monkeypatch):
    """(rows built per column, rows of each ``eliminate`` call) while the patch holds."""
    built, calls = {}, []
    rows, eliminate = branching._eigen_rows, branching.eliminate

    def counted_rows(target, products, s, missing, inv0):
        for row in rows(target, products, s, missing, inv0):
            built[s] = built.get(s, 0) + 1
            yield row

    def counted_eliminate(relations, unknowns):
        relations = list(relations)
        calls.append(len(relations))
        return eliminate(relations, unknowns)

    monkeypatch.setattr(branching, "_eigen_rows", counted_rows)
    monkeypatch.setattr(branching, "eliminate", counted_eliminate)
    return built, calls


# Columns 1-4 are pinned by their first 14 relations, columns 5-7 by their
# first 56; each column has 7 unknowns, so its prefixes double from 7.
PREFIX_CALLS = [7, 14] * 4 + [7, 14, 28, 56] * 3


def every_eigen_row_count(datum, fixtures):
    """{column: number of its eigenvalue relations} for the columns with unknowns."""
    products = {}
    for fx in fixtures:
        if not fx.soft:
            products[fx.left, fx.right] = products[fx.right, fx.left] = fx.terms
    columns = sorted({c for _, c in datum.unknown_positions()})
    return {s: len(list(branching._eigen_rows(
        datum, products, s, {r for r in range(datum.size) if not datum.known(r, s)},
        inverse(datum.entry(0, s))))) for s in columns}


def test_eigen_route_solves_each_column_from_a_prefix(monkeypatch, s4, s4_completed):
    datum, _, fixtures = s4
    every = every_eigen_row_count(datum, fixtures)
    built, calls = counted_eigen_route(monkeypatch)
    eigen = eigen_complete(datum, fixtures)
    assert eigen == {pos: s4_completed.entry(*pos) for pos in eigen} and len(eigen) == 49
    assert built == {1: 14, 2: 14, 3: 14, 4: 14, 5: 56, 6: 56, 7: 56}
    assert calls == PREFIX_CALLS
    assert all(count < every[s] for s, count in built.items()), (built, every)


@pytest.mark.parametrize("case", ["fixture contradicts a known column", "no split prime"])
def test_eigen_route_falls_back_to_every_relation(monkeypatch, s4, s4_completed, case):
    # Either way the Verlinde engine of the completed S does not certify
    # every fixture as its row, so after the prefixes each column eliminates
    # all its relations, in order; the entries are the same.
    datum, _, fixtures = s4
    datum = datum.with_entries({})
    if case == "no split prime":
        monkeypatch.setattr(cyclo, "_PRIME_BOUND", 32)
    else:
        # 0 x 8 = 2*8 breaks the qdim identity at column 0.  Modules 0 and 8
        # lie outside the unknown block 1..7, so no eigenvalue relation of a
        # column with unknowns reads this product.
        assert {c for _, c in datum.unknown_positions()} == set(range(1, 8))
        fixtures = [FixtureRecord(0, 8, {8: 2}, fx.soft, fx.citation)
                    if (fx.left, fx.right, fx.terms, fx.soft) == (0, 8, {8: 1}, False) else fx
                    for fx in fixtures]
        assert any(fx.terms == {8: 2} for fx in fixtures)
    every = every_eigen_row_count(datum, fixtures)
    _, calls = counted_eigen_route(monkeypatch)
    eigen = eigen_complete(datum, fixtures)
    assert eigen == {pos: s4_completed.entry(*pos) for pos in eigen} and len(eigen) == 49
    full = calls[len(PREFIX_CALLS):]
    assert calls[:len(PREFIX_CALLS)] == PREFIX_CALLS
    assert len(full) == 7 and full == list(every.values())


def test_eigen_route_names_a_column_its_relations_cannot_pin(monkeypatch, s4):
    # With the first 150 hard fixtures column 1 has 104 relations: the
    # prefixes 7, 14, 28, 56 and then all 104 leave unknowns free, and the
    # full elimination of column 1 names its entries.
    datum, _, fixtures = s4
    hard = [fx for fx in fixtures if not fx.soft][:150]
    _, calls = counted_eigen_route(monkeypatch)
    with pytest.raises(UnderdeterminedError) as info:
        eigen_complete(datum, hard)
    assert info.value.free_unknowns == [(r, 1) for r in range(1, 8)]
    assert calls == [7, 14, 28, 56, 104, 104]


def test_eigen_route_rejects_fixtures_outside_the_datum(s4):
    datum, _, fixtures = s4
    with pytest.raises(IndexRangeError, match="index 30 out of range for 28"):
        eigen_complete(datum, [*fixtures, FixtureRecord(0, 30, {30: 1})])


def test_lattice_parent_identity():
    # A parent branched onto itself (identity decomposition) has no unknowns
    # to solve but all relations must check out.
    spec = LatticeSpec(3)
    from fusionring.lattice import lattice_modular_data

    datum = lattice_modular_data(spec)
    identity = BranchingSection(parent="self", k=spec.k,
                                rows={j: {j: 1} for j in range(6)})
    system = assemble_system([identity], datum)
    assert system.equations == [] and system.check_failures == []
    assert system.checks_passed == 36


def test_completion_output_deterministic(s4, tmp_path):
    from fusionring.mdf import serialize
    from fusionring.modular_data import datum_to_file

    datum, parents, _ = s4
    texts = set()
    for _ in range(2):
        completed = complete(datum, parents).datum
        texts.add(serialize(datum_to_file(completed, scale_expr_text="1/sqrt(32)")))
    assert len(texts) == 1


def test_refuted_lines_match_documented_corrections(s4, s4_tensor):
    # The audit notes name the corrected channel for every refuted line of
    # the order-3 relabeling families: (k+l) mod 3 in the first family and
    # (1-k-l) mod 3 in the second, over family-2 modules {13, 14, 17}.
    family1 = {0: 12, 1: 15, 2: 16}
    family2 = {0: 13, 1: 14, 2: 17}
    for k in range(3):
        for l in range(k, 3):
            product = s4_tensor.product(family1[k], family1[l])
            distinguished = [m for m in family2.values() if m in product]
            assert distinguished == [family2[(k + l) % 3]], (k, l)
            product = s4_tensor.product(family2[k], family2[l])
            distinguished = [m for m in family2.values() if m in product]
            assert distinguished == [family2[(1 - k - l) % 3]], (k, l)
    # And the sixth row-module of the twisted-sector product table patterns
    # with modules 13 and 14, not with 12, 15, 16.
    for b in (19, 20, 23, 24):
        assert s4_tensor.product(17, b) == s4_tensor.product(13, b)
    for b in (18, 21, 22, 25):
        assert s4_tensor.product(17, b) == s4_tensor.product(13, 43 - b)
