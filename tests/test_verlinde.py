"""Fusion coefficients, tensors, ring checks and fixture regression."""

import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import counted_kernels, expected_group_fusion, su2_datum

from fusionring import cyclo, modular_data
from fusionring.branching import complete, eigen_complete
from fusionring.cyclo import Cyclotomic, exact_sum, root_of_unity
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.mdf import FixtureRecord, IndexRangeError
from fusionring.modular_data import (MissingEntryError, ModularDatum, ModuleLabel,
                                     charge_conjugation, validate)
from fusionring.s4_dataset import load_dataset
from fusionring.verlinde import (FusionTensor, NegativeResultError,
                                 NonIntegerResultError, check_ring,
                                 compare_fixtures, fusion_product, fusion_tensor,
                                 tensor_to_triples, triples_to_fixtures)


def test_single_coefficient_lattice():
    tensor = fusion_tensor(lattice_modular_data(LatticeSpec(1)))
    assert tensor.coeff(1, 1, 0) == 1
    assert tensor.coeff(1, 1, 1) == 0


def test_trivial_datum():
    datum = ModularDatum([ModuleLabel(0, "vac", dual=0)], [[Cyclotomic.one()]])
    tensor = fusion_tensor(datum)
    assert tensor.coeff(0, 0, 0) == 1
    report = check_ring(tensor, datum)
    assert report.ok and report.simple_currents == [0]


def test_vacuum_acts_as_identity(s4_tensor):
    for j in range(28):
        for k in range(28):
            assert s4_tensor.coeff(0, j, k) == (1 if j == k else 0)


def test_recorded_product_8_18(s4_tensor):
    # One product of twisted-sector modules: channels 18, 19, 26, 27 once each.
    for k in range(28):
        expected = 1 if k in (18, 19, 26, 27) else 0
        assert s4_tensor.coeff(8, 18, k) == expected


def test_missing_entries_detected(s4):
    # Every coefficient divides by the vacuum row, so an unknown entry there
    # leaves no block to compute.
    datum, _, _ = s4
    holed = datum.with_entries({(0, 9): None})
    with pytest.raises(MissingEntryError, match=r"S\[0,9\] is unknown"):
        fusion_tensor(holed)


def test_inconsistent_matrix_flagged():
    # Corrupt one off-vacuum entry of the order-2 lattice datum:
    # N[0,0]^1 = S[0,0] S[0,1] + S[0,1] S[1,1] = 1/2 - 3/2.
    datum = lattice_modular_data(LatticeSpec(1))
    bad = datum.with_entries({(1, 1): datum.s[1][1] * 3})
    with pytest.raises(NegativeResultError) as err:
        fusion_tensor(bad)
    assert (err.value.triple, err.value.value) == ((0, 0, 1), -1)


def test_fuse_examples(s4, s4_completed):
    assert fusion_product(s4_completed, 2, 2) == {0: 1, 1: 1, 2: 1}
    assert fusion_product(s4_completed, 0, 17) == {17: 1}
    assert fusion_product(s4_completed, 3, 7) == {5: 1, 6: 1, 7: 2}
    with pytest.raises(IndexRangeError):
        fusion_product(s4_completed, 99, 0)
    # On the partial datum, products inside the fully known block still work.
    datum, _, _ = s4
    assert fusion_product(datum, 8, 18) == {18: 1, 19: 1, 26: 1, 27: 1}
    with pytest.raises(MissingEntryError, match=r"rows 1, 2 are not fully known"):
        fusion_product(datum, 1, 2)


def test_tensor_symmetries_exact(s4_tensor, s4_completed):
    n = 28
    dual = s4_completed.dual_permutation()
    for i in range(0, n, 5):
        for j in range(n):
            for k in range(n):
                c = s4_tensor.coeff(i, j, k)
                assert c == s4_tensor.coeff(j, i, k)
                assert c == s4_tensor.coeff(i, dual[k], dual[j])


def test_check_ring_s4(s4_tensor, s4_completed):
    report = check_ring(s4_tensor, s4_completed)
    assert report.ok
    assert report.vacuum_identity and report.commutative and report.associative
    assert report.duality_symmetric and report.qdim_multiplicative
    assert report.simple_currents == [0, 1]
    # The nontrivial simple current swaps the paired modules.
    mat = s4_tensor.values[1]
    image = [row.index(1) for row in mat]
    assert image == [1, 0, 2, 4, 3, 6, 5, 7, 9, 8, 11, 10,
                     12, 13, 14, 15, 16, 17, 25, 24, 23, 22, 21, 20, 19, 18, 27, 26]


def test_check_ring_lattice():
    datum = lattice_modular_data(LatticeSpec(16))
    tensor = fusion_tensor(datum)
    report = check_ring(tensor, datum)
    assert report.ok
    assert report.simple_currents == list(range(32))


@pytest.mark.parametrize("s00", [None, Cyclotomic.zero()])
def test_check_ring_without_a_vacuum_entry(s00):
    # Z_2 fusion with S[0,0] unknown or zero: there are no qdims, so the ring
    # axioms are checked and the qdim verdicts read n/a.
    one = Cyclotomic.one()
    datum = ModularDatum([ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)],
                         [[s00, one], [one, -one]])
    tensor = FusionTensor([0, 1], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    report = check_ring(tensor, datum)
    assert report.ok
    assert report.qdim_multiplicative is None
    assert report.simple_currents_are_permutations is None
    assert report.to_text() == (
        "vacuum identity: ok\ncommutativity: ok\nassociativity: ok\n"
        "duality symmetry: ok\nqdim multiplicativity: n/a\n"
        "simple currents: [] (fusion matrices are permutations: n/a)")


def test_associativity_failure_names_first_quadruple():
    np = pytest.importorskip("numpy")

    datum = lattice_modular_data(LatticeSpec(2))
    n = datum.size
    # Z_4 fusion with one doubled channel, then seeded random 0/1 tensors.
    broken = np.array(expected_group_fusion(LatticeSpec(2)).values)
    broken[2, 3, 0] = broken[3, 2, 0] = 2
    rng = np.random.default_rng(5)
    tensors = [broken] + [rng.integers(0, 2, size=(n, n, n)) for _ in range(20)]
    associative = []
    for values in tensors:
        left = np.einsum("ijm,mkl->ijkl", values, values)
        right = np.einsum("jkm,iml->ijkl", values, values)
        report = check_ring(FusionTensor(list(range(n)), values.tolist()), datum)
        associative.append(report.associative)
        assert report.associative == bool((left == right).all())
        if not report.associative:
            bad = tuple(int(x) for x in np.argwhere(left != right)[0])
            assert f"associativity fails at quadruple {bad}" in report.failures
    assert not associative[0] and associative.count(False) > 1


def test_vacuum_row_inverted_once_per_distinct_value(monkeypatch):
    calls = []

    def counting_inverse(value):
        calls.append(value)
        return cyclo.inverse(value)

    monkeypatch.setattr(modular_data, "inverse", counting_inverse)
    # Every S[0,s] of the lattice datum is 1/sqrt(8).
    datum = lattice_modular_data(LatticeSpec(4))
    tensor = fusion_tensor(datum)
    assert calls == [datum.s[0][0]]
    # The ring check inverts nothing: the tensor is certified, so its simple
    # currents are read off S[i,0] = S[0,0].
    assert check_ring(tensor, datum).ok
    assert calls == [datum.s[0][0]]


def test_qdim_multiplicativity_pair(s4_tensor, s4_completed):
    from fusionring.modular_data import quantum_dimensions

    qdims = quantum_dimensions(s4_completed)
    total = sum(s4_tensor.coeff(8, 18, k) * qdims[k].as_rational() for k in range(28))
    assert total == 36  # 6 * 6 = 6 + 6 + 12 + 12


def test_compare_fixtures_clean_and_corrupted(s4_tensor, s4):
    _, _, fixtures = s4
    block_71_2 = [f for f in fixtures if f.citation == "src:7.1(2)"]
    assert len(block_71_2) == 32
    assert compare_fixtures(s4_tensor, block_71_2) == []
    corrupted = FixtureRecord(left=8, right=18, terms={18: 1}, citation="src:demo")
    found = compare_fixtures(s4_tensor, [corrupted])
    assert len(found) == 1
    assert found[0].computed == {18: 1, 19: 1, 26: 1, 27: 1}


def test_full_73_table_matches(s4_tensor, s4):
    _, _, fixtures = s4
    table = [f for f in fixtures if f.citation == "src:7.3" and not f.soft]
    assert len(table) == 36
    assert compare_fixtures(s4_tensor, table) == []


def test_triples_export_round_trip(s4_tensor):
    text = tensor_to_triples(s4_tensor)
    fixtures = triples_to_fixtures(text)
    assert compare_fixtures(s4_tensor, fixtures) == []
    lines = text.splitlines()
    assert lines == sorted(lines, key=lambda s: [int(x) for x in s.split()])


def test_triples_skip_comments_and_blank_lines():
    text = "# i j k N\n\n0 1 1 1  # a trailing note\n   \n1 1 0 1\n"
    assert triples_to_fixtures(text) == [FixtureRecord(0, 1, {1: 1}), FixtureRecord(1, 1, {0: 1})]


def test_parallel_matches_serial():
    # jobs is accepted and ignored.
    spec = LatticeSpec(5)
    datum = lattice_modular_data(spec)
    serial = fusion_tensor(datum)
    parallel = fusion_tensor(datum, jobs=2)
    assert serial == parallel == expected_group_fusion(spec)


def test_dual_permutation_realizes_the_inverse():
    # The engine takes (S^-1)[s,k] = S[s,k']; genuine matrix inversion must
    # agree.  Solve S x = e_j column by column over the cyclotomic field.
    from fusionring.branching import eliminate

    datum = lattice_modular_data(LatticeSpec(2))
    n = datum.size
    dual = datum.dual_permutation()
    for j in range(n):
        rows = []
        for i in range(n):
            coeffs = {k: datum.s[i][k] for k in range(n)}
            rhs = Cyclotomic.from_rational(1 if i == j else 0)
            rows.append((coeffs, rhs, (f"row{i}",)))
        column = eliminate(rows, list(range(n)))
        for s in range(n):
            assert column[s] == datum.s[s][dual[j]]


# -- the modular certificate against oracles that share no code with it -------

def verlinde_by_exact_sums(datum):
    """N[i,j]^k = sum_s S[i,s] S[j,s] S[s,k'] / S[0,s], one exact sum per entry."""
    n, s, dual = datum.size, datum.s, datum.dual_permutation()
    inv0 = [1 / s[0][t] for t in range(n)]
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            pair = [s[i][t] * s[j][t] * inv0[t] for t in range(n)]
            for k in range(n):
                value = exact_sum(pair[t] * s[t][dual[k]] for t in range(n))
                assert value.is_rational() and value.as_rational().denominator == 1
                out[i][j][k] = value.as_rational().numerator
    return out


@pytest.mark.parametrize("k", range(1, 7))
def test_lattice_tensor_equals_exact_sums(k):
    datum = lattice_modular_data(LatticeSpec(k))
    assert fusion_tensor(datum).values == verlinde_by_exact_sums(datum)


@pytest.mark.parametrize("k", range(1, 9))
def test_su2_tensor_equals_exact_sums(k):
    datum = su2_datum(k)
    assert fusion_tensor(datum).values == verlinde_by_exact_sums(datum)


@pytest.mark.parametrize("s4_bound, su2_bound", [(1 << 13, 1 << 8), (1 << 16, 1 << 10)])
def test_several_primes_give_the_same_tensor(monkeypatch, s4_completed, s4_tensor,
                                             s4_bound, su2_bound):
    monkeypatch.setattr(cyclo, "_PRIME_BOUND", s4_bound)
    # A fresh copy: the shared fixture keeps the image and primes it already has.
    s4 = s4_completed.with_entries({})
    assert len(s4.engine.primes) >= 2
    assert fusion_tensor(s4) == s4_tensor
    monkeypatch.setattr(cyclo, "_PRIME_BOUND", su2_bound)
    datum = su2_datum(8)
    assert len(datum.engine.primes) >= 2
    assert fusion_tensor(datum).values == verlinde_by_exact_sums(datum)


def test_without_a_usable_prime_every_row_is_summed_exactly(monkeypatch, s4_completed,
                                                           s4_tensor):
    # No prime p = 1 mod 288 (or mod 20) lies below 32.
    monkeypatch.setattr(cyclo, "_PRIME_BOUND", 32)
    s4 = s4_completed.with_entries({})
    assert s4.engine.primes == []
    assert fusion_tensor(s4) == s4_tensor
    datum = su2_datum(8)
    assert fusion_tensor(datum).values == verlinde_by_exact_sums(datum)


def test_vacuum_inverse_with_a_denominator_is_certified_by_images(monkeypatch):
    # S = [[2]]: N[0,0]^0 = 2 * 2 * 2 / 2 = 4.  The vacuum inverse 1/2 has the
    # denominator D_inv = 2, which scales both the bound, 2^2 * 1 * 2, and the
    # largest certifiable coefficient, 8 / (1^3 * 2).
    datum = ModularDatum([ModuleLabel(0, "a", dual=0)], [[Cyclotomic.from_rational(2)]])
    expected = verlinde_by_exact_sums(datum)
    assert expected == [[[4]]]
    engine = datum.engine
    assert engine.primes and engine.max_coeff == 4
    monkeypatch.setattr(cyclo, "exact_sum", lambda values: pytest.fail("a row was summed"))
    assert [[engine.row(0, 0)]] == expected


def test_corrupted_entry_reports_the_exact_residual():
    datum = su2_datum(6)
    bad = datum.with_entries({(2, 5): datum.s[2][5] + 1})
    with pytest.raises(NonIntegerResultError) as err:
        fusion_tensor(bad)
    assert err.value.triple == (0, 0, 5)
    assert str(err.value.residual) == "1/4*E(16)-1/4*E(16)^7"
    assert str(err.value) == "N(0, 0, 5) is not a rational integer: 1/4*E(16)-1/4*E(16)^7"


def test_bad_entry_fails_the_galois_check_before_any_image(monkeypatch):
    built = counted_kernels(monkeypatch)
    datum = su2_datum(6)
    bad = datum.with_entries({(2, 5): datum.s[2][5] + 1})
    engine = bad.engine
    assert built == [] and engine.primes == []
    with pytest.raises(NonIntegerResultError) as err:
        engine.row(0, 0)
    assert err.value.triple == (0, 0, 5)


def test_negative_coefficient_reports_its_value():
    # Negating the vacuum row and column off S[0,0] turns N[i,j]^k into
    # -N[i,j]^k when i, j and k are all nonzero; in su(2)_6, 1 x 1 = 0 + 2.
    datum = su2_datum(6)
    flips = {}
    for t in range(1, datum.size):
        flips[(0, t)] = -datum.s[0][t]
        flips[(t, 0)] = -datum.s[t][0]
    with pytest.raises(NegativeResultError) as err:
        fusion_tensor(datum.with_entries(flips))
    assert (err.value.triple, err.value.value) == ((1, 1, 2), -1)


def test_huge_order_fails_the_galois_check_before_any_image(monkeypatch):
    # sigma_g maps the column (1, zeta) to (1, zeta^g), which is no column.
    built = counted_kernels(monkeypatch)
    one, zeta = Cyclotomic.one(), root_of_unity(1000003)
    datum = ModularDatum([ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)],
                         [[one, zeta], [zeta, -one]])
    with pytest.raises(NonIntegerResultError) as err:
        fusion_tensor(datum)
    assert built == []
    # N[0,0]^0 = 1 + zeta^2; 1 is minus the sum of every nontrivial root.
    residual = err.value.residual
    assert err.value.triple == (0, 0, 0) and residual.order == 1000003
    assert residual.coeffs == {e: -1 for e in range(1, 1000003) if e != 2}
    # The message names the residual's order and size instead of printing it.
    assert str(err.value) == ("N(0, 0, 0) is not a rational integer: "
                              "an element of Q(zeta_1000003) with 1000001 terms")


@pytest.mark.parametrize("terms", [1, 64, 65, 200])
def test_non_integer_message_prints_residuals_up_to_64_terms(terms):
    residual = Cyclotomic(512, {e: Fraction(e + 1, 3) for e in range(terms)})
    assert len(residual.coeffs) == terms
    message = str(NonIntegerResultError((1, 2, 3), residual))
    if terms <= 64:
        assert message == f"N(1, 2, 3) is not a rational integer: {residual}"
    else:
        assert message == ("N(1, 2, 3) is not a rational integer: "
                           f"an element of Q(zeta_512) with {terms} terms")
        assert len(message) < 1024


def test_one_product_evaluates_one_row_per_image(monkeypatch, s4_completed):
    datum = s4_completed.with_entries({})
    # S^2 = C reads rows of the engine too; certify it before counting.
    charge_conjugation(datum)
    calls = []
    packed_product = cyclo.packed_product
    monkeypatch.setattr(cyclo, "packed_product",
                        lambda *args: calls.append(1) or packed_product(*args))
    engine = datum.engine
    assert engine.row(8, 18) == [int(k in (18, 19, 26, 27)) for k in range(28)]
    # One image per prime, and one prime suffices.
    assert len(calls) == len(engine.primes) == 1


def counted_engines(monkeypatch):
    """A list that gains the datum of each ``ModularDatum.engine`` built while the patch holds."""
    built = []

    class CountedEngine(modular_data._Engine):
        def __init__(self, datum, indices):
            built.append(datum)
            super().__init__(datum, indices)

    monkeypatch.setattr(modular_data, "_Engine", CountedEngine)
    return built


def test_tensor_ring_check_and_product_share_one_engine(monkeypatch, s4_completed, s4_tensor):
    built = counted_engines(monkeypatch)
    datum = s4_completed.with_entries({})
    assert validate(datum).ok
    tensor = fusion_tensor(datum)
    assert tensor == s4_tensor and check_ring(tensor, datum).ok
    assert fusion_product(datum, 8, 18) == {18: 1, 19: 1, 26: 1, 27: 1}
    assert fusion_tensor(datum) == tensor
    assert built == [datum]
    copy = datum.with_entries({})
    assert check_ring(tensor, copy).ok
    assert built == [datum, copy]


def test_ring_check_after_the_tensor_makes_no_product(monkeypatch):
    # Each pair is imaged once per datum and a certified tensor's simple
    # currents need no qdim, so the ring check packs, images and multiplies
    # nothing; a fresh datum with the same S certifies from scratch.
    datum = su2_datum(12)
    tensor = fusion_tensor(datum)
    calls = []
    for owner, name in ((cyclo, "pack"), (cyclo, "packed_product"), (cyclo, "combine"),
                        (Cyclotomic, "__mul__")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, f=getattr(owner, name):
                            calls.append(name) or f(*args))
    report = check_ring(tensor, datum)
    assert report.ok and report.simple_currents == [0, 12]
    assert calls == []
    fresh = ModularDatum(datum.labels, datum.s)
    assert check_ring(tensor, fresh) == report
    assert {"pack", "packed_product", "combine"} <= set(calls)
    rows = datum.engine.certified(2, 3), datum.engine.certified(3, 2)
    assert rows[0] == rows[1] == tensor.values[2][3] and rows[0] is not rows[1]


def test_eigen_route_builds_one_engine_on_the_completed_s(monkeypatch, s4, s4_completed):
    # The session's completion is held, so the route certifies that very
    # datum, and builds its engine only if nothing has yet.
    datum, _, fixtures = s4
    built = counted_engines(monkeypatch)
    certified = []
    reproduces = ModularDatum.reproduces
    monkeypatch.setattr(ModularDatum, "reproduces", lambda target, rows:
                        certified.append(target) or reproduces(target, rows))
    eigen = eigen_complete(datum, fixtures)
    assert len(eigen) == 49 and certified == [s4_completed]
    assert built in ([], [s4_completed])


def test_one_completed_s_is_certified_once(monkeypatch):
    # complete and the eigen route fill equal values into one fresh datum, so
    # they share one completion: one Galois check, one S^2 = C, one engine.
    calls = []
    for name in ("_galois_permutations", "_s_squared_rows"):
        func = getattr(modular_data, name)
        monkeypatch.setattr(modular_data, name, lambda *args, name=name, func=func:
                            calls.append(name) or func(*args))
    built = counted_engines(monkeypatch)
    datum, parents, fixtures = load_dataset()
    result = complete(datum, parents)
    eigen = eigen_complete(datum, fixtures)
    assert all(result.datum.entry(*pos) == value for pos, value in eigen.items())
    assert validate(result.datum).ok
    assert check_ring(fusion_tensor(result.datum), result.datum).ok
    assert built == [result.datum]
    assert sorted(calls) == ["_galois_permutations", "_s_squared_rows"]


def test_completions_that_differ_are_different_data(monkeypatch, s4):
    datum = s4[0].with_entries({})
    result = complete(datum, s4[1])
    values = {pos: result.datum.entry(*pos) for pos in datum.unknown_positions()}
    assert datum.completed(dict(values)) is result.datum
    negated = {**values, (1, 1): -values[1, 1]}
    other = datum.completed(negated)
    assert other is not result.datum and other.s[1][1] == -result.datum.s[1][1]
    built = counted_engines(monkeypatch)
    assert other.engine is not result.datum.engine and built == [other, result.datum]
    assert datum.with_entries(values) is not result.datum
    assert datum.with_entries({}) is not datum.completed({})
    assert datum.with_entries({}) is not datum.with_entries({})


def test_failed_engine_is_not_kept(monkeypatch, s4_completed):
    built = counted_engines(monkeypatch)
    holed = s4_completed.with_entries({(0, 9): None})
    for _ in range(2):
        with pytest.raises(MissingEntryError, match=r"S\[0,9\] is unknown"):
            fusion_tensor(holed)
    assert built == [holed, holed] and "engine" not in vars(holed)


def test_engine_and_datum_form_no_cycle():
    # The engine holds S, not the datum, and a failed S^2 = C verdict keeps
    # its message, not its traceback: once the last name goes, each datum and
    # its engine are freed without the cycle collector.
    datum = su2_datum(6)
    fusion_tensor(datum)
    one = Cyclotomic.one()
    ones = ModularDatum([ModuleLabel(i, f"m{i}") for i in range(3)], [[one] * 3] * 3)
    report = validate(ones)
    assert report.square_is_permutation is False and isinstance(ones.s_squared, str)
    # A completion is held weakly by the datum it completes: dropped, it
    # and its engine go, and the next call builds a fresh one.
    holed = datum.with_entries({(1, 2): None, (2, 1): None})
    s, values = datum.s, {(1, 2): datum.s[1][2], (2, 1): datum.s[2][1]}
    completion = holed.completed(values)
    fusion_tensor(completion)
    assert holed.completed(dict(values)) is completion
    refs = [weakref.ref(x) for x in (datum, datum.engine, ones, ones.engine,
                                     completion, completion.engine)]
    gc.disable()
    try:
        del datum, ones, completion
        assert [ref() for ref in refs] == [None] * 6
        again = holed.completed(values)
        assert "engine" not in vars(again) and again.s == s
    finally:
        gc.enable()


def test_rows_are_copies_of_the_cached_rows(s4_completed):
    datum = s4_completed.with_entries({})
    tensor = fusion_tensor(datum)
    tensor.values[2][3][1] += 1
    tensor.values[8][18].clear()
    assert tensor.values[3][2][1] == tensor.values[2][3][1] - 1
    assert fusion_tensor(datum).values[2][3][1] == tensor.values[2][3][1] - 1
    assert fusion_product(datum, 8, 18) == {18: 1, 19: 1, 26: 1, 27: 1}


def test_package_runs_with_numpy_blocked(tmp_path):
    # numpy is a test dependency only: with every import of it failing, the
    # tensor and the ring check run on the completed s4 and su(2)_6, and every
    # command runs on the shipped data.  The tensor is filled in this process,
    # without a process pool.
    out = str(tmp_path / "completed.mdf")
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from conftest import su2_datum\n"
            "from fusionring.branching import complete\n"
            "from fusionring.cli import main\n"
            "from fusionring.s4_dataset import load_dataset\n"
            "from fusionring.verlinde import check_ring, fusion_tensor\n"
            "datum, parents, _ = load_dataset()\n"
            "for d in (complete(datum, parents).datum, su2_datum(6)):\n"
            "    assert check_ring(fusion_tensor(d), d).ok\n"
            f"out = {out!r}\n"
            "codes = [main(argv) for argv in (\n"
            "    ['validate', '@s4'],\n"
            "    ['complete', '@s4', '--parents', '@s4_branching', '-o', out],\n"
            "    ['fuse', out, '8', '18'], ['table', out], ['qdim', out], ['glob', out],\n"
            "    ['lattice', '--k', '3'], ['regress', out, '@s4_fixtures'], ['table', '@s4'])]\n"
            "assert codes == [0] * 9, codes\n"
            "for name in ('concurrent.futures', 'multiprocessing'):\n"
            "    assert name not in sys.modules, f'imported {name}'\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
