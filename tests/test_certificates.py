"""S^2 = C and the ring check, certified by images, against exact oracles.

The oracles sum S^2 by a triple loop of exact products, sum single Verlinde
coefficients exactly, compare d_i d_j with sum_k N[i,j]^k d_k pair by pair
in Q(zeta_n), and read the other ring axioms, associativity included, off
numpy arrays and einsum.  None touches ``cyclo.Images`` or the Galois check,
so a fault in the certificates shows as a disagreement.
"""

import functools
import importlib.util
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import counted_kernels, relabeled, su2_datum

from fusionring import cyclo, modular_data, verlinde
from fusionring.cli import main
from fusionring.cyclo import Cyclotomic, exact_sum, root_of_unity
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.mdf import serialize
from fusionring.modular_data import (MissingEntryError, ModularDatum, ModuleLabel,
                                     NotPermutationError, charge_conjugation, computable_indices,
                                     datum_to_file, quantum_dimensions,
                                     validate)
from fusionring.verlinde import (FusionTensor, NonIntegerResultError, PropertyReport,
                                 check_ring, fusion_product, fusion_tensor)


def with_symmetric(datum, changes):
    """A copy with S[i,j] and S[j,i] replaced by f(S[i,j]) for each (i, j): f."""
    return datum.with_entries({pos: f(datum.s[i][j]) for (i, j), f in changes.items()
                               for pos in ((i, j), (j, i))})


def square_by_triple_loop(datum):
    """The charge conjugation, or the NotPermutationError text, read off S^2
    summed one entry at a time."""
    n, s = datum.size, datum.s
    products = {}

    def times(a, b):
        if (a, b) not in products:
            products[(a, b)] = a * b
        return products[(a, b)]

    perm = [-1] * n
    for i in range(n):
        for j in range(n):
            v = exact_sum([times(s[i][t], s[t][j]) for t in range(n)])
            if v == 1:
                if perm[i] != -1:
                    return f"row {i} of S^2 has two unit entries"
                perm[i] = j
            elif not v.is_zero():
                return f"S^2[{i},{j}] = {v} is neither 0 nor 1"
        if perm[i] == -1:
            return f"row {i} of S^2 has no unit entry"
    if any(perm[j] != i for i, j in enumerate(perm)):
        return "S^2 permutation is not an involution"
    return perm


def charge(datum):
    try:
        return charge_conjugation(datum)
    except NotPermutationError as exc:
        return str(exc)


def qdim_failures_by_exact_loop(values, datum):
    """The failure line of the first pair, in row-major order over all pairs,
    with d_i d_j != sum_k N[i,j]^k d_k."""
    qdims = quantum_dimensions(datum)
    n = datum.size
    for i in range(n):
        for j in range(n):
            lhs = exact_sum([qdims[k] * m for k, m in enumerate(values[i][j]) if m])
            if lhs != qdims[i] * qdims[j]:
                return [f"qdim multiplicativity fails at pair ({i}, {j})"]
    return []


def ring_report_by_einsum(tensor, datum):
    """The whole ``check_ring`` report: the axioms from numpy arrays, the
    first non-associative quadruple from einsum, and qdims from the exact loop."""
    np = pytest.importorskip("numpy")

    n = datum.size
    N = np.array(tensor.values, dtype=np.int64)
    report = PropertyReport()
    report.vacuum_identity = bool((N[0] == np.eye(n, dtype=np.int64)).all())
    if not report.vacuum_identity:
        report.failures.append("N[0,j]^k != delta_jk")
    report.commutative = bool((N == N.transpose(1, 0, 2)).all())
    if not report.commutative:
        report.failures.append("N[i,j]^k != N[j,i]^k somewhere")
    dual = datum.dual_permutation()
    report.duality_symmetric = bool((N == N[:, dual][:, :, dual].transpose(0, 2, 1)).all())
    if not report.duality_symmetric:
        report.failures.append("N[i,j]^k != N[i,k']^{j'} somewhere")
    bad = np.argwhere(np.einsum("ijm,mkl->ijkl", N, N) != np.einsum("jkm,iml->ijkl", N, N))
    report.associative = not len(bad)
    if len(bad):
        quadruple = tuple(int(x) for x in bad[0])
        report.failures.append(f"associativity fails at quadruple {quadruple}")
    qdims = quantum_dimensions(datum) if datum.known(0, 0) and datum.s[0][0] else [None]
    if None in qdims:
        return report
    qdim_failures = qdim_failures_by_exact_loop(tensor.values, datum)
    report.failures += qdim_failures
    report.qdim_multiplicative = not qdim_failures
    report.simple_currents = [i for i in range(n) if qdims[i] == 1]
    report.simple_currents_are_permutations = True
    for i in report.simple_currents:
        if not ((N[i].sum(axis=0) == 1).all() and (N[i].sum(axis=1) == 1).all()
                and np.isin(N[i], (0, 1)).all()):
            report.simple_currents_are_permutations = False
            report.failures.append(f"simple current {i} has a non-permutation fusion matrix")
    return report


def assert_ring_report_matches(tensor, datum):
    report = check_ring(tensor, datum)
    expected = ring_report_by_einsum(tensor, datum)
    assert report == expected
    assert report.to_text() == expected.to_text()
    return report


def assert_matches_oracles(datum):
    assert charge(datum) == square_by_triple_loop(datum)
    tensor = fusion_tensor(datum)
    assert assert_ring_report_matches(tensor, datum).ok


@pytest.mark.parametrize("k", range(1, 21))
def test_relabeled_lattice_data_match_the_oracles(k):
    assert_matches_oracles(relabeled(lattice_modular_data(LatticeSpec(k)), seed=k))


@pytest.mark.parametrize("k", range(1, 25))
def test_relabeled_su2_data_match_the_oracles(k):
    assert_matches_oracles(relabeled(su2_datum(k), seed=100 + k))


def test_completed_s4_matches_the_oracles(s4_completed, s4_tensor):
    assert charge(s4_completed) == square_by_triple_loop(s4_completed) == list(range(28))
    assert assert_ring_report_matches(s4_tensor, s4_completed).ok


def corrupted_data():
    """Data whose S^2 is not C, each with the corruption that makes it so."""
    su2 = relabeled(su2_datum(6), seed=7)
    lattice = relabeled(lattice_modular_data(LatticeSpec(5)), seed=5)
    zeta = root_of_unity(3)
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    return {
        # S[0,4] = 0 leaves no engine to read S^2 from: every row is exact.
        "vacuum zero": with_symmetric(lattice, {(0, 4): lambda v: zero}),
        # S^2 = [[1, 2], [0, 1]].  Dual labels that are not a permutation lay
        # out no row of S^2: read through them, row 0 would show 1, 1.
        "duals not a permutation": ModularDatum(
            [ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=0)], [[one, one], [zero, one]]),
        "sign flip": with_symmetric(su2, {(2, 5): lambda v: -v}),
        "sign flip, one cell": su2.with_entries({(3, 1): -su2.s[3][1]}),
        "vacuum sign flip": with_symmetric(lattice, {(0, 4): lambda v: -v}),
        "times a root of unity": with_symmetric(lattice, {(1, 3): lambda v: v * zeta}),
        "diagonal times a root of unity": lattice.with_entries({(6, 6): lattice.s[6][6] * zeta}),
        "two unit entries": ModularDatum(labels, [[one, one], [zero, zero]]),
        "no unit entry": ModularDatum(labels, [[zero, zero], [zero, zero]]),
        "not an involution": ModularDatum(labels, [[one, zero], [one, zero]]),
    }


@pytest.mark.parametrize("name", sorted(corrupted_data()))
def test_corrupted_data_report_the_exact_failure(name):
    datum = corrupted_data()[name]
    expected = square_by_triple_loop(datum)
    assert isinstance(expected, str)
    assert charge(datum) == expected
    report = json.loads(validate(datum).to_json())
    assert (report["square_is_permutation"], report["square_message"]) == (False, expected)
    assert report["unitary"] is None and report["ok"] is False


def test_scrambled_dual_labels_are_reported_not_trusted(monkeypatch, tmp_path, capsys):
    # The dual labels of a relabeled Z_10 shuffled into another permutation:
    # S^2 = C is still read off the engine's (i, 0) rows through them, so
    # validate reports each mismatch, and the tensor refuses the labels.
    datum = relabeled(lattice_modular_data(LatticeSpec(5)), seed=5)
    truth = charge_conjugation(datum.with_entries({}))
    duals = truth[:1] + random.Random(5).sample(truth[1:], len(truth) - 1)
    wrong = [i for i, (d, c) in enumerate(zip(duals, truth)) if d != c]
    assert wrong
    scrambled = ModularDatum([ModuleLabel(lab.index, lab.name, d, lab.weight)
                              for lab, d in zip(datum.labels, duals)],
                             datum.s)
    summed = []
    exact = cyclo.exact_sum
    monkeypatch.setattr(cyclo, "exact_sum", lambda values: summed.append(1) or exact(values))
    report = validate(scrambled)
    assert summed == []
    assert (report.dual_permutation, report.dual_mismatches, report.ok) == (truth, wrong, False)
    with pytest.raises(ValueError, match=rf"^dual labels disagree with S\^2 = C at modules "
                                         rf"{re.escape(str(wrong))}$"):
        fusion_tensor(scrambled)
    path = tmp_path / "scrambled.mdf"
    path.write_text(serialize(datum_to_file(scrambled)))
    assert main(["table", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: dual labels disagree with S^2 = C at modules {wrong}\n")


def tensor_rows(values):
    """The rows N[i,j] of a tensor, keyed by (i, j), as ``ModularDatum.reproduces`` takes them."""
    return {(i, j): row for i, plane in enumerate(values) for j, row in enumerate(plane)}


def bumped(tensor, changes):
    values = [[row[:] for row in plane] for plane in tensor.values]
    for i, j, k in changes:
        values[i][j][k] += 1
    return FusionTensor(tensor.indices, values)


@pytest.mark.parametrize("changes", [[(2, 3, 1)], [(2, 3, 1), (3, 2, 1)], [(5, 5, 0)],
                                     [(1, 1, 6)], [(6, 0, 6)], [(0, 2, 2)],
                                     [(0, 2, 3), (2, 0, 3)]])
def test_bumped_tensor_entry_reports_the_first_failing_pair(changes):
    datum = relabeled(su2_datum(6), seed=7)
    tensor = bumped(fusion_tensor(datum), changes)
    assert not assert_ring_report_matches(tensor, datum).ok


def test_bumped_s4_tensor_entry_reports_the_first_failing_pair(s4_completed, s4_tensor):
    tensor = bumped(s4_tensor, [(20, 9, 14), (9, 20, 14)])
    assert not assert_ring_report_matches(tensor, s4_completed).ok


def test_one_module_datum_matches_the_oracle():
    datum = ModularDatum([ModuleLabel(0, "vac", dual=0)], [[Cyclotomic.one()]])
    tensor = fusion_tensor(datum)
    assert tensor.values == [[[1]]]
    report = assert_ring_report_matches(tensor, datum)
    assert report.ok and report.simple_currents == [0]
    report = assert_ring_report_matches(FusionTensor([0], [[[2]]]), datum)
    assert not report.vacuum_identity and report.duality_symmetric
    assert report.simple_currents_are_permutations is False


def test_permuted_vacuum_plane_matches_the_oracle():
    datum = relabeled(su2_datum(6), seed=7)
    values = [[row[:] for row in plane] for plane in fusion_tensor(datum).values]
    values[0][1], values[0][2] = values[0][2], values[0][1]
    report = assert_ring_report_matches(FusionTensor(list(range(7)), values), datum)
    assert not report.vacuum_identity and report.commutative is False


def test_duality_fault_under_a_nontrivial_dual_matches_the_oracle():
    # Z_14 relabeled: j' = -j is no fixed index map.  N[i,j]^k and N[j,i]^k
    # bumped together keep N commutative and break N[i,j]^k = N[i,k']^{j'},
    # and every module is a simple current, so i and j lose their permutations.
    datum = relabeled(lattice_modular_data(LatticeSpec(7)), seed=3)
    dual = datum.dual_permutation()
    i, j, k = 2, 5, 9
    assert len({j, dual[j], k, dual[k]}) == 4
    report = assert_ring_report_matches(bumped(fusion_tensor(datum), [(i, j, k), (j, i, k)]),
                                        datum)
    assert report.vacuum_identity and report.commutative and not report.duality_symmetric
    assert report.simple_currents == list(range(14))
    assert report.simple_currents_are_permutations is False


def test_simple_current_with_a_non_permutation_matrix_matches_the_oracle():
    # In su(2)_6, 6 x j = 6 - j.  Moving the channel of 6 x 2 from 4 to 3
    # leaves one 1 in each row of N[6], but two in its column 3.
    datum = su2_datum(6)
    values = [[row[:] for row in plane] for plane in fusion_tensor(datum).values]
    for a, b in ((6, 2), (2, 6)):
        values[a][b][4], values[a][b][3] = 0, 1
    report = assert_ring_report_matches(FusionTensor(list(range(7)), values), datum)
    assert report.simple_currents == [0, 6]
    assert report.simple_currents_are_permutations is False
    assert "simple current 6 has a non-permutation fusion matrix" in report.failures


def test_vacuum_zero_s00_leaves_qdims_open_as_the_oracle():
    # S = [[0, 1], [1, 0]] squares to 1, but d_i = S[i,0] / S[0,0] has no value:
    # the ring is still checked, and the qdim verdicts are open.
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    datum = ModularDatum([ModuleLabel(i, f"m{i}", dual=i) for i in range(2)],
                         [[zero, one], [one, zero]])
    assert charge(datum) == [0, 1]
    tensor = fusion_tensor(lattice_modular_data(LatticeSpec(1)))
    report = assert_ring_report_matches(tensor, datum)
    assert report.ok and report.qdim_multiplicative is None


def test_tensor_edited_in_place_is_checked_as_edited(s4_completed):
    # The datum's engine keeps the rows it certified; the ring check must see
    # a tensor built from edited values, not the cached rows.
    datum = s4_completed.with_entries({})
    values = fusion_tensor(datum).values
    values[2][3][1] += 1
    report = assert_ring_report_matches(FusionTensor(list(range(28)), values), datum)
    assert not report.ok and not report.commutative


def test_channel_moved_between_equal_qdims_keeps_qdim_multiplicativity(monkeypatch):
    # In su(2)_6, 2 x 2 = 0 + 2 + 4 and d_2 = d_4.  Moving the channel breaks
    # the tensor but not the qdim identity: the row of (2, 2) is not the
    # engine's, while every other row is, so the pair's qdims are compared
    # exactly and associativity comes from the direct search.
    datum = su2_datum(6)
    values = [[row[:] for row in plane] for plane in fusion_tensor(datum).values]
    values[2][2][2] -= 1
    values[2][2][4] += 1
    rows = tensor_rows(values)
    assert datum.reproduces({(2, 2): rows.pop((2, 2))}) is False
    assert datum.reproduces(rows) is True
    searched = []
    search = verlinde._first_nonassociative
    monkeypatch.setattr(verlinde, "_first_nonassociative",
                        lambda values: searched.append(1) or search(values))
    report = assert_ring_report_matches(FusionTensor(list(range(7)), values), datum)
    assert report.qdim_multiplicative is True and not report.ok
    assert searched == [1] and not report.associative


def test_clean_tensors_are_certified_without_the_direct_search(monkeypatch, s4_completed,
                                                               s4_tensor):
    monkeypatch.setattr(verlinde, "_first_nonassociative",
                        lambda values: pytest.fail("the direct search ran"))
    for datum, tensor in ((s4_completed, s4_tensor), (su2_datum(18), None),
                          (relabeled(lattice_modular_data(LatticeSpec(7)), seed=7), None)):
        assert check_ring(tensor or fusion_tensor(datum), datum).ok


@pytest.mark.parametrize("bound", [None, 32])
@pytest.mark.parametrize("name", ["s4", "su(2)_18", "lattice k=7"])
def test_bumped_tensors_report_as_the_einsum_oracle(monkeypatch, s4_completed, s4_tensor,
                                                   name, bound):
    # Every report equals the oracle's, failure texts and the first
    # non-associative quadruple included, also when few or no split primes
    # lie below the prime bound and every check is exact.
    if name == "s4":
        # A fresh copy, whose image is built under the prime bound of this case.
        datum, tensor = s4_completed.with_entries({}), s4_tensor
    else:
        datum = su2_datum(18) if name == "su(2)_18" else relabeled(
            lattice_modular_data(LatticeSpec(7)), seed=7)
        tensor = fusion_tensor(datum)
    if bound:
        monkeypatch.setattr(cyclo, "_PRIME_BOUND", bound)
    n = datum.size
    rng = random.Random(n)
    changes = [[]]
    for _ in range(3):
        i, j, k = (rng.randrange(1, n) for _ in range(3))
        changes += [[(i, j, k)], [(i, j, k), (j, i, k)]]
    for change in changes:
        assert assert_ring_report_matches(bumped(tensor, change), datum).ok is not change


def test_without_a_usable_prime_every_report_is_the_same(monkeypatch, s4_completed, s4_tensor):
    # Few or no split primes lie below 32: the exact paths, or several tiny
    # primes, must give the same reports.
    monkeypatch.setattr(cyclo, "_PRIME_BOUND", 32)
    for k in range(1, 7):
        assert_matches_oracles(relabeled(lattice_modular_data(LatticeSpec(k)), seed=k))
    for k in range(1, 9):
        assert_matches_oracles(relabeled(su2_datum(k), seed=100 + k))
    # A fresh copy: the shared fixture may already keep its conjugation and
    # its image, and then the exact path would not run.
    s4 = s4_completed.with_entries({})
    assert charge(s4) == list(range(28))
    assert assert_ring_report_matches(s4_tensor, s4).ok
    for datum in corrupted_data().values():
        assert charge(datum) == square_by_triple_loop(datum)
    datum = relabeled(su2_datum(6), seed=7)
    tensor = bumped(fusion_tensor(datum), [(2, 3, 1)])
    assert not assert_ring_report_matches(tensor, datum).ok


def test_validate_fails_the_galois_check_before_imaging(monkeypatch):
    # sigma_g maps the column (1, zeta) of S to (1, zeta^g), which is no
    # column, so S is never imaged and row 0 of S^2, 1 + zeta^2, is summed
    # exactly.
    built = counted_kernels(monkeypatch)
    one, zeta = Cyclotomic.one(), root_of_unity(1000003)
    datum = ModularDatum([ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)],
                         [[one, zeta], [zeta, -one]])
    report = validate(datum)
    assert built == []
    assert report.square_is_permutation is False
    assert report.square_message.startswith("S^2[0,0] = ")


@pytest.mark.parametrize("name", ["s4", "su(2)_6"])
def test_one_image_of_s_per_datum(monkeypatch, s4_completed, name):
    # validate, the tensor, one product and the ring check all read the
    # datum's one image of S, at one prime; a copy builds its own.
    built = counted_kernels(monkeypatch)
    datum = (s4_completed if name == "s4" else relabeled(su2_datum(6), seed=7)).with_entries({})
    assert validate(datum).ok
    tensor = fusion_tensor(datum)
    assert fusion_product(datum, 1, 2) == tensor.product(1, 2)
    assert check_ring(tensor, datum).ok
    assert len(built) == 1 and len(datum.engine.primes) == 1
    copy = datum.with_entries({})
    assert check_ring(fusion_tensor(copy), copy).ok
    assert len(built) == 2


# -- the Galois check, and the exact paths of data that fail it ----------------

def verlinde_by_exact_sum(datum, i, j, k):
    dual = datum.dual_permutation()
    s = datum.s
    return exact_sum([s[i][t] * s[j][t] * s[t][dual[k]] / s[0][t] for t in range(datum.size)])


def test_galois_check_passes_on_modular_data(s4, s4_completed):
    assert s4_completed.engine.galois is not None
    # The block of the shipped partial s4 that the tensor engine uses.
    assert len(computable_indices(s4[0])) == 21
    assert s4[0].engine.galois is not None
    for datum in (lattice_modular_data(LatticeSpec(11)), lattice_modular_data(LatticeSpec(13)),
                  su2_datum(18), su2_datum(24)):
        assert datum.engine.galois is not None


def swapped_vacuum(datum, a):
    """The self-dual datum with modules 0 and a swapped: S as a matrix keeps
    its Galois symmetry, and the new vacuum row has the zeros of row a."""
    old = list(range(datum.size))
    old[0], old[a] = a, 0
    return ModularDatum([ModuleLabel(x, datum.labels[b].name, dual=x) for x, b in enumerate(old)],
                        [[datum.s[b][c] for c in old] for b in old])


def assert_columns_go_to_their_conjugates(datum):
    """Column t is (S[r,t] for r in 0 and the rows I whose row and dual column
    are fully known) followed by (S[t,k'] for k in I); every entry is
    conjugated on its own and compared with +-column pi_g(t)."""
    n, s, dual = datum.size, datum.s, datum.dual_permutation()
    rows = [i for i in range(n) if all(s[i][t] is not None and s[t][dual[i]] is not None
                                       for t in range(n))]
    cols = [dual[k] for k in rows]
    rows = [0, *(i for i in rows if i != 0)]
    column = [[s[r][t] for r in rows] + [s[t][c] for c in cols] for t in range(n)]
    order = math.lcm(*(v.order for entries in column for v in entries))
    perms = datum.engine.galois
    assert len(perms) == len(cyclo.unit_generators(order))
    for g, perm in zip(cyclo.unit_generators(order), perms):
        assert sorted(perm) == list(range(n))
        for t, u in enumerate(perm):
            conjugated = [cyclo.galois(v, g) for v in column[t]]
            assert conjugated in (column[u], [-v for v in column[u]])


@pytest.mark.parametrize("k", [6, 18])
def test_galois_permutations_carry_each_column_to_its_conjugate(k):
    assert_columns_go_to_their_conjugates(relabeled(su2_datum(k), seed=k))


@pytest.mark.parametrize("name", [*(f"lattice k={k}" for k in range(1, 17)),
                                  "s4 completed", "s4 partial"])
def test_galois_permutations_carry_each_column_to_its_conjugate_on_more_data(
        s4, s4_completed, name):
    if name.startswith("lattice"):
        k = int(name[10:])
        datum = relabeled(lattice_modular_data(LatticeSpec(k)), seed=k)
    else:
        datum = s4_completed if name == "s4 completed" else s4[0]
    assert_columns_go_to_their_conjugates(datum)


def test_engine_refuses_a_zero_vacuum_entry_before_the_galois_check(monkeypatch):
    # S[0,2] = 0: the Verlinde denominator is refused before S is checked or
    # imaged, so the check never decides a column's sign past its first entry.
    calls = []
    monkeypatch.setattr(modular_data, "_galois_permutations", lambda *args: calls.append(args))
    datum = swapped_vacuum(su2_datum(4), 1)
    assert datum.s[0][2].is_zero()
    with pytest.raises(ZeroDivisionError, match=r"S\[0,2\] = 0"):
        datum.engine
    assert calls == []


@pytest.mark.parametrize("name, order, count", [("s4", 288, 12), ("su(2)_7", 72, 12),
                                                ("su(2)_10", 24, 8)])
def test_galois_conjugates_have_the_same_fusion_rules(s4_completed, s4_tensor, name, order,
                                                      count):
    # sigma(S)^2 = sigma(C) = C and sigma fixes every rational N[i,j]^k, so
    # each conjugate passes the Galois check and has the original's tensor;
    # its qdims are conjugates too, so validate need not call it valid.
    datum = s4_completed if name == "s4" else su2_datum(int(name[6:]))
    tensor = s4_tensor if name == "s4" else fusion_tensor(datum)
    assert math.lcm(*(v.order for row in datum.s for v in row)) == order
    units = [g for g in range(1, order) if math.gcd(g, order) == 1]
    for g in random.Random(order).sample(units, count):
        conjugate = ModularDatum(datum.labels, [[cyclo.galois(v, g) for v in row]
                                                for row in datum.s])
        assert conjugate.engine.galois is not None
        assert fusion_tensor(conjugate) == tensor


def test_galois_check_fails_on_corrupted_s4(s4_completed):
    negated = with_symmetric(s4_completed, {(9, 20): lambda v: -v})
    rotated = s4_completed.with_entries({(3, 5): s4_completed.s[3][5] * root_of_unity(3)})
    for datum in (negated, rotated):
        assert datum.engine.galois is None


def test_galois_check_runs_once_per_datum(monkeypatch, s4_completed):
    calls = []
    check = modular_data._galois_permutations

    def counted(datum, *block):
        calls.append(datum)
        return check(datum, *block)

    monkeypatch.setattr(modular_data, "_galois_permutations", counted)
    datum = s4_completed.with_entries({})  # not yet checked, unlike the shared fixture
    assert validate(datum).ok
    assert check_ring(fusion_tensor(datum), datum).ok
    assert calls == [datum]
    copy = datum.with_entries({})
    assert check_ring(fusion_tensor(copy), copy).ok
    assert calls == [datum, copy]


def test_block_is_derived_once_per_datum(monkeypatch, s4_completed):
    # The engine derives its block once, and the Galois check runs on it.
    calls = []
    indices = modular_data.computable_indices
    monkeypatch.setattr(modular_data, "computable_indices",
                        lambda datum: calls.append(datum) or indices(datum))
    datum = s4_completed.with_entries({})
    assert validate(datum).ok
    assert check_ring(fusion_tensor(datum), datum).ok
    assert calls == [datum]


def test_ring_check_against_partial_data_is_decided_exactly(s4, s4_completed, s4_tensor):
    # The shipped s4 knows column 0, hence every qdim, but not all of S: the
    # qdim pairs are compared exactly and associativity is searched directly.
    assert s4[0].reproduces(tensor_rows(s4_tensor.values)) is False
    assert check_ring(s4_tensor, s4[0]) == check_ring(s4_tensor, s4_completed)
    assert assert_ring_report_matches(s4_tensor, s4[0]).ok
    assert assert_ring_report_matches(bumped(s4_tensor, [(20, 9, 14)]), s4[0]).failures == [
        "N[i,j]^k != N[j,i]^k somewhere", "N[i,j]^k != N[i,k']^{j'} somewhere",
        "associativity fails at quadruple (1, 20, 9, 14)",
        "qdim multiplicativity fails at pair (20, 9)"]


def test_identity_never_certifies_associativity_without_s_squared_c():
    # S = all ones passes the Galois check (its entries are rational), but
    # S^2 = 3 S is no permutation, so R[m,s] = S[m,s]/S[0,s] is not
    # invertible.  Every row of N below sums to 1, so the character identity
    # S[0,s] sum_k N[i,j]^k S[k,s] = S[i,s] S[j,s] holds at every column, yet
    # 1 (1 2) = 1 1 = 0 and (1 1) 2 = 2.
    one = Cyclotomic.one()
    datum = ModularDatum([ModuleLabel(i, f"m{i}", dual=i) for i in range(3)],
                         [[one] * 3 for _ in range(3)])
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    values = [unit, [unit[1], unit[0], unit[1]], [unit[2], unit[1], unit[0]]]
    assert datum.engine.galois is not None
    assert charge(datum) == "S^2[0,0] = 3 is neither 0 nor 1"
    assert datum.reproduces(tensor_rows(values)) is False
    report = assert_ring_report_matches(FusionTensor([0, 1, 2], values), datum)
    assert report.commutative and report.qdim_multiplicative
    assert "associativity fails at quadruple (1, 1, 2, 0)" in report.failures


def test_ring_check_on_data_failing_the_galois_check_or_s_squared_c(s4_completed, s4_tensor):
    # Each datum is checked against the tensor of the datum it corrupts, and
    # the 2-module ones against Z_2; all are decided exactly.
    tensors = {28: s4_tensor, 7: fusion_tensor(relabeled(su2_datum(6), seed=7)),
               10: fusion_tensor(relabeled(lattice_modular_data(LatticeSpec(5)), seed=5)),
               2: fusion_tensor(lattice_modular_data(LatticeSpec(1)))}
    negated = with_symmetric(s4_completed, {(9, 20): lambda v: -v})
    for datum in (negated, *corrupted_data().values()):
        tensor = tensors[datum.size]
        assert datum.reproduces(tensor_rows(tensor.values)) is False
        assert_ring_report_matches(tensor, datum)


def test_vacuum_hole_is_reported_before_the_galois_check(monkeypatch, s4_completed):
    calls = []
    monkeypatch.setattr(modular_data, "_galois_permutations", lambda *args: calls.append(args))
    holed = s4_completed.with_entries({(0, 9): None})
    with pytest.raises(MissingEntryError, match=r"S\[0,9\] is unknown"):
        fusion_tensor(holed)
    assert calls == []


def test_long_values_in_errors_print_as_their_size():
    # S^2[0,0] = 1 + E(101)^2 has 99 terms in the basis of Q(zeta_101).
    z = root_of_unity(101)
    datum = ModularDatum([ModuleLabel(0, "a"), ModuleLabel(1, "b")], [[Cyclotomic.one(), z],
                                                                      [z, -Cyclotomic.one()]])
    expected = "S^2[0,0] = an element of Q(zeta_101) with 99 terms is neither 0 nor 1"
    assert charge(datum) == expected
    assert json.loads(validate(datum).to_json())["square_message"] == expected
    assert f"S^2=C: FAILED ({expected})" in validate(datum).to_text()
    short = exact_sum(root_of_unity(101, e) for e in range(1, 65))
    assert cyclo.format_brief(short) == cyclo.format_exact(short)
    assert str(NonIntegerResultError((0, 0, 0), short + root_of_unity(101, 65))) == (
        "N(0, 0, 0) is not a rational integer: an element of Q(zeta_101) with 65 terms")


def test_rotation_datum_without_galois_symmetry_reports_as_before():
    # [[c, s], [s, -c]] with c = cos(2 pi/7), s = sin(2 pi/7) in Q(zeta_28):
    # S^2 = I, but sigma_g sends c to cos(2 pi g/7), which is no entry.
    z, minus_i = root_of_unity(7), root_of_unity(4, 3)
    c = (z + root_of_unity(7, 6)) * Fraction(1, 2)
    s = (z - root_of_unity(7, 6)) * minus_i * Fraction(1, 2)
    datum = ModularDatum([ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)],
                         [[c, s], [s, -c]])
    assert datum.engine.galois is None
    assert charge(datum) == square_by_triple_loop(datum) == [0, 1]
    report = validate(datum)
    assert report.to_text().splitlines()[-3:] == [
        "S^2=C: identity", "unitarity S conj(S)^T = I: ok", "verdict: valid"]
    assert json.loads(report.to_json()) == {
        "bad_qdims": [], "dual_mismatches": [], "dual_permutation": [0, 1], "modules": 2,
        "name": "", "ok": True, "square_is_permutation": True, "square_message": "",
        "symmetry_violations": [], "unitary": True, "unknown_entries": 0,
        "vacuum_row_zeros": []}
    with pytest.raises(NonIntegerResultError) as err:
        fusion_tensor(datum)
    assert err.value.triple == (1, 1, 1)
    assert err.value.residual == verlinde_by_exact_sum(datum, 1, 1, 1)
    assert str(err.value) == ("N(1, 1, 1) is not a rational integer: -6/7*E(28)^3+6/7*E(28)^11"
                              "-2/7*E(28)^15-10/7*E(28)^19+10/7*E(28)^23+2/7*E(28)^27")


def test_negated_s4_pair_reports_as_before(s4_completed):
    datum = with_symmetric(s4_completed, {(9, 20): lambda v: -v})
    expected = square_by_triple_loop(datum)
    assert expected == "S^2[0,9] = -1/16*E(16)^3+1/16*E(16)^5 is neither 0 nor 1"
    assert charge(datum) == expected
    report = json.loads(validate(datum).to_json())
    assert (report["square_is_permutation"], report["square_message"]) == (False, expected)
    with pytest.raises(NonIntegerResultError) as err:
        fusion_tensor(datum)
    assert err.value.triple == (0, 0, 9)
    assert err.value.residual == verlinde_by_exact_sum(datum, 0, 0, 9)
    assert str(err.value) == "N(0, 0, 9) is not a rational integer: -1/16*E(16)^3+1/16*E(16)^5"


# -- the ring check against plain loops, with or without numpy ----------------

def ring_report_by_loops(tensor, datum):
    """The whole ``check_ring`` report from plain loops over the entries of N:
    the axioms entry by entry, the first non-associative quadruple by direct
    sums, qdims from the exact loop.  No numpy, no engine."""
    n, N, dual = datum.size, tensor.values, datum.dual_permutation()
    every = range(n)
    report = PropertyReport()
    report.vacuum_identity = all(N[0][j][k] == (j == k) for j in every for k in every)
    report.commutative = all(N[i][j][k] == N[j][i][k]
                             for i in every for j in every for k in every)
    report.duality_symmetric = all(N[i][j][k] == N[i][dual[k]][dual[j]]
                                   for i in every for j in every for k in every)
    for holds, failure in ((report.vacuum_identity, "N[0,j]^k != delta_jk"),
                           (report.commutative, "N[i,j]^k != N[j,i]^k somewhere"),
                           (report.duality_symmetric, "N[i,j]^k != N[i,k']^{j'} somewhere")):
        if not holds:
            report.failures.append(failure)
    terms = {(i, j): [(m, N[i][j][m]) for m in every if N[i][j][m]]
             for i in every for j in every}
    bad = next(((i, j, k, l) for i in every for j in every for k in every for l in every
                if sum(a * N[m][k][l] for m, a in terms[i, j])
                != sum(b * N[i][m][l] for m, b in terms[j, k])), None)
    report.associative = bad is None
    if bad:
        report.failures.append(f"associativity fails at quadruple {bad}")
    qdims = quantum_dimensions(datum) if datum.known(0, 0) and datum.s[0][0] else [None]
    if None in qdims:
        return report
    qdim_failures = qdim_failures_by_exact_loop(N, datum)
    report.failures += qdim_failures
    report.qdim_multiplicative = not qdim_failures
    report.simple_currents = [i for i in every if qdims[i] == 1]
    report.simple_currents_are_permutations = True
    for i in report.simple_currents:
        if not all(N[i][j][k] in (0, 1) for j in every for k in every) or not all(
                sum(N[i][j][k] for k in every) == sum(N[i][k][j] for k in every) == 1
                for j in every):
            report.simple_currents_are_permutations = False
            report.failures.append(f"simple current {i} has a non-permutation fusion matrix")
    return report


HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def assert_ring_report_matches_loops(tensor, datum):
    """``check_ring``'s report, asserted equal to the loop oracle's, and to
    the einsum oracle's where numpy is installed."""
    report = check_ring(tensor, datum)
    expected = ring_report_by_loops(tensor, datum)
    assert report == expected
    assert report.to_text() == expected.to_text()
    if HAVE_NUMPY:
        assert report == ring_report_by_einsum(tensor, datum)
    return report


@functools.cache
def family_tensor(family, k):
    """(datum, tensor) of a relabeled lattice or su(2)_k datum, built once."""
    datum = relabeled(lattice_modular_data(LatticeSpec(k)) if family == "lattice"
                      else su2_datum(k), seed=k)
    return datum, fusion_tensor(datum)


@pytest.mark.parametrize("family, k", [*(("lattice", k) for k in range(1, 6)),
                                       *(("su2", k) for k in range(1, 7))])
def test_clean_tensors_are_certified_as_the_loop_oracle(family, k):
    datum, tensor = family_tensor(family, k)
    assert datum.reproduces(tensor_rows(tensor.values)) is True
    assert assert_ring_report_matches_loops(tensor, datum).ok


@st.composite
def edited_tensors(draw):
    """A lattice (k <= 5) or su(2)_k (k <= 6) tensor with one or two entries
    bumped, N[i,j]^k and N[j,i]^k bumped together, or two rows swapped."""
    family = draw(st.sampled_from(["lattice", "su2"]))
    datum, tensor = family_tensor(family, draw(st.integers(1, 5 if family == "lattice" else 6)))
    n = datum.size
    index = st.integers(0, n - 1)
    values = [[row[:] for row in plane] for plane in tensor.values]
    edit = draw(st.sampled_from(["one", "two", "mirrored", "swap"]))
    if edit == "swap":
        (a, b), (c, d) = draw(st.lists(st.tuples(index, index), min_size=2, max_size=2,
                                       unique=True))
        values[a][b], values[c][d] = values[c][d], values[a][b]
    else:
        i, j, k = draw(index), draw(index), draw(index)
        changes = {"one": [(i, j, k)], "mirrored": [(i, j, k), (j, i, k)],
                   "two": [(i, j, k), (draw(index), draw(index), draw(index))]}[edit]
        for a, b, c in changes:
            values[a][b][c] += 1
    return datum, FusionTensor(tensor.indices, values)


@settings(max_examples=120, deadline=None)
@given(edited_tensors())
def test_edited_tensors_report_as_the_loop_oracle(case):
    datum, tensor = case
    assert_ring_report_matches_loops(tensor, datum)


def test_crafted_tensors_report_as_the_loop_oracle():
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    vacuum = ModularDatum([ModuleLabel(0, "vac", dual=0)], [[one]])
    assert not assert_ring_report_matches_loops(FusionTensor([0], [[[2]]]), vacuum).ok
    su2 = su2_datum(6)
    values = [[row[:] for row in plane] for plane in fusion_tensor(su2).values]
    for a, b in ((6, 2), (2, 6)):
        values[a][b][4], values[a][b][3] = 0, 1
    report = assert_ring_report_matches_loops(FusionTensor(list(range(7)), values), su2)
    assert report.simple_currents_are_permutations is False
    swapped = ModularDatum([ModuleLabel(i, f"m{i}", dual=i) for i in range(2)],
                           [[zero, one], [one, zero]])
    report = assert_ring_report_matches_loops(
        fusion_tensor(lattice_modular_data(LatticeSpec(1))), swapped)
    assert report.ok and report.qdim_multiplicative is None
    ones = ModularDatum([ModuleLabel(i, f"m{i}", dual=i) for i in range(3)],
                        [[one] * 3 for _ in range(3)])
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    report = assert_ring_report_matches_loops(
        FusionTensor([0, 1, 2], [unit, [unit[1], unit[0], unit[1]], [unit[2], unit[1], unit[0]]]),
        ones)
    assert not report.associative


def test_non_symmetric_s_has_its_duality_compared():
    # S = [[1, -1], [0, -1]] squares to 1, its entries are rational, and its
    # Verlinde tensor, 1 x 1 = 1, is integral: the engine reproduces it, and
    # N[0,j]^k = (S^2)[j,k'] holds.  But S != S^T, and N[1,0]^1 = 1 while
    # N[1,1']^{0'} = 0, so duality must be compared, not inferred.
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    datum = ModularDatum([ModuleLabel(i, f"m{i}", dual=i) for i in range(2)],
                         [[one, -one], [zero, -one]])
    tensor = fusion_tensor(datum)
    assert tensor.values == [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    assert datum.reproduces(tensor_rows(tensor.values)) is True
    report = assert_ring_report_matches_loops(tensor, datum)
    assert report.vacuum_identity and report.associative and not report.duality_symmetric
    assert report.failures == ["N[i,j]^k != N[i,k']^{j'} somewhere"]


def ring_check_reads(tensor, datum):
    """``check_ring``'s report, asserted equal to the oracles', and the (i, j)
    of each row of N it iterates, as a row-by-row compare does; tuple equality
    and ``count``/``index`` read a row without iterating it.  ``reproduces``
    takes each row as ``tuple(row)``, the row itself for the tensor's plain
    tuples, so its reads are not counted."""
    reads, quiet = [], []

    class Row(tuple):
        def __iter__(self):
            if not quiet:
                reads.append(self.at)
            return super().__iter__()

    def row(entries, at):
        out = Row(entries)
        out.at = at
        return out

    def reproduces(self, rows, original=ModularDatum.reproduces):
        quiet.append(True)
        try:
            return original(self, rows)
        finally:
            quiet.pop()

    # The constructor turns every row into a plain tuple: the counting rows
    # go in after it.
    counting = FusionTensor(tensor.indices, tensor.rows)
    counting.rows = tuple(tuple(row(entries, (i, j)) for j, entries in enumerate(plane))
                          for i, plane in enumerate(tensor.rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModularDatum, "reproduces", reproduces)
        report = check_ring(counting, datum)
    assert report == assert_ring_report_matches_loops(tensor, datum)
    return report, reads


def test_certified_tensors_are_read_by_no_row_compare(s4, s4_completed, s4_tensor):
    # The engine's certificate gives the vacuum identity, and with S = S^T
    # duality: no row of N is iterated.  A bumped tensor is compared row by
    # row, its failures in their order, as is the clean tensor against
    # partial data, which no engine certifies: then every row is read.
    for datum, tensor in ((s4_completed, s4_tensor), (su2_datum(12), None)):
        tensor = tensor or fusion_tensor(datum)
        report, reads = ring_check_reads(tensor, datum)
        assert report.ok and reads == []
        report, reads = ring_check_reads(bumped(tensor, [(0, 2, 3)]), datum)
        assert report.failures[:3] == ["N[0,j]^k != delta_jk", "N[i,j]^k != N[j,i]^k somewhere",
                                       "N[i,j]^k != N[i,k']^{j'} somewhere"]
        assert (0, 0) in reads
    report, reads = ring_check_reads(s4_tensor, s4[0])
    assert report.ok and set(reads) == {(i, j) for i in range(28) for j in range(28)}


def test_mis_shaped_tensors_are_refused():
    # A ragged row, a row or a plane past n, or too few of them: the tensor
    # over n modules is n planes of n rows of n entries, or no tensor.
    datum = su2_datum(6)
    tensor = fusion_tensor(datum)
    for edit in (lambda v: v[3][2].append(0), lambda v: v[3][2].pop(),
                 lambda v: v[3].append([0] * 6 + [1]), lambda v: v[0].append([0] * 7),
                 lambda v: v.append([[1] + [0] * 6] * 7), lambda v: v.pop(),
                 lambda v: v[5].pop()):
        values = tensor.values
        edit(values)
        with pytest.raises(ValueError, match="a tensor over 7 modules is not 7 x 7 x 7"):
            FusionTensor(tensor.indices, values)
    with pytest.raises(ValueError):
        FusionTensor([0, 1], [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]])


def test_tensor_rows_are_not_edited_in_place():
    tensor = fusion_tensor(su2_datum(6))
    with pytest.raises(TypeError):
        tensor.rows[2][3][1] += 1
    with pytest.raises(AttributeError):
        tensor.rows[3].append(tensor.rows[3][0])
    with pytest.raises(TypeError):
        tensor.rows[3][2] = tensor.rows[2][3]
    # ``values`` is a fresh copy each time: editing it leaves the tensor as it was.
    values = tensor.values
    values[2][3][1] += 1
    assert tensor.values != values and tensor == fusion_tensor(su2_datum(6))


def permutation_by_sorting(plane, n):
    """The former simple-current test: every row and column sorts to n - 1 zeros and a 1."""
    return all(sorted(line) == [0] * (n - 1) + [1] for line in (*plane, *zip(*plane)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_permutation_test_keeps_the_sorting_verdict(data):
    # check_ring reads planes of n x n tensors only: the constructor refuses others.
    n = data.draw(st.integers(1, 4))
    rows = st.lists(st.integers(-1, 2), min_size=n, max_size=n)
    if data.draw(st.booleans()):
        # A permutation matrix with at most one entry changed, most draws.
        order = data.draw(st.permutations(range(n)))
        plane = [[int(k == order[j]) for k in range(n)] for j in range(n)]
        if data.draw(st.booleans()):
            j, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            plane[j][k] = data.draw(st.integers(-1, 2))
    else:
        plane = data.draw(st.lists(rows, min_size=n, max_size=n))
    assert verlinde._is_permutation(plane, n) == permutation_by_sorting(plane, n)
