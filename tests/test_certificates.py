"""S^2 = C and qdim multiplicativity, certified by images, against exact oracles.

The oracles sum S^2 by a triple loop of exact products and compare
d_i d_j with sum_k N[i,j]^k d_k pair by pair in Q(zeta_n).  Neither touches
``cyclo.Images``, so a fault in the certificates shows as a disagreement.
"""

import json
import random

import pytest
from conftest import su2_datum

from fusionring import cyclo, modular_data
from fusionring.cyclo import Cyclotomic, exact_sum, root_of_unity
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.modular_data import (ModularDatum, ModuleLabel, NotPermutationError,
                                     charge_conjugation, quantum_dimensions, validate)
from fusionring.verlinde import FusionTensor, check_ring, fusion_tensor


def relabeled(datum, seed):
    """The datum with its non-vacuum modules shuffled; duals follow."""
    n = datum.size
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    old = [0] + rest  # new module x is old module old[x]
    new = {a: x for x, a in enumerate(old)}
    labels = [ModuleLabel(x, datum.labels[a].name, dual=new[datum.labels[a].dual])
              for x, a in enumerate(old)]
    return ModularDatum(labels, [[datum.s[a][b] for b in old] for a in old], name=datum.name)


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


def assert_ring_report_matches(tensor, datum):
    report = check_ring(tensor, datum)
    expected = qdim_failures_by_exact_loop(tensor.values, datum)
    assert [f for f in report.failures if f.startswith("qdim")] == expected
    assert report.qdim_multiplicative is (not expected)
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


def bumped(tensor, changes):
    values = [[row[:] for row in plane] for plane in tensor.values]
    for i, j, k in changes:
        values[i][j][k] += 1
    return FusionTensor(tensor.indices, values)


@pytest.mark.parametrize("changes", [[(2, 3, 1)], [(2, 3, 1), (3, 2, 1)], [(5, 5, 0)],
                                     [(1, 1, 6)], [(6, 0, 6)]])
def test_bumped_tensor_entry_reports_the_first_failing_pair(changes):
    datum = relabeled(su2_datum(6), seed=7)
    tensor = bumped(fusion_tensor(datum), changes)
    assert not assert_ring_report_matches(tensor, datum).ok


def test_bumped_s4_tensor_entry_reports_the_first_failing_pair(s4_completed, s4_tensor):
    tensor = bumped(s4_tensor, [(20, 9, 14), (9, 20, 14)])
    assert not assert_ring_report_matches(tensor, s4_completed).ok


def test_without_a_usable_prime_every_report_is_the_same(monkeypatch, s4_completed, s4_tensor):
    # Few or no split primes lie below 32: the exact paths, or several tiny
    # primes, must give the same reports.
    monkeypatch.setattr(cyclo, "_PRIME_BOUND", 32)
    for k in range(1, 7):
        assert_matches_oracles(relabeled(lattice_modular_data(LatticeSpec(k)), seed=k))
    for k in range(1, 9):
        assert_matches_oracles(relabeled(su2_datum(k), seed=100 + k))
    assert charge(s4_completed) == list(range(28))
    assert assert_ring_report_matches(s4_tensor, s4_completed).ok
    for datum in corrupted_data().values():
        assert charge(datum) == square_by_triple_loop(datum)
    datum = relabeled(su2_datum(6), seed=7)
    tensor = bumped(fusion_tensor(datum), [(2, 3, 1)])
    assert not assert_ring_report_matches(tensor, datum).ok


def test_validate_stops_imaging_at_the_second_unit(monkeypatch):
    # phi(1000003) units exist; row 0 of S^2 is [1 + zeta^2, 0], whose images
    # at the units 1 and 2 differ.
    built = []

    class CountedImage(modular_data._SquareImage):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(modular_data, "_SquareImage", CountedImage)
    one, zeta = Cyclotomic.one(), root_of_unity(1000003)
    datum = ModularDatum([ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)],
                         [[one, zeta], [zeta, -one]])
    report = validate(datum)
    assert len(built) == 2
    assert report.square_is_permutation is False
    assert report.square_message.startswith("S^2[0,0] = ")
