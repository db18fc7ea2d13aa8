"""Datum model: validation, charge conjugation, quantum dimensions."""

from fractions import Fraction

import pytest

from fusionring.cyclo import Cyclotomic, inverse, root_of_unity, sqrt_int
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.modular_data import (MissingEntryError, ModularDatum,
                                     ModuleLabel, NotPermutationError,
                                     charge_conjugation, datum_to_file, glob,
                                     quantum_dimensions, validate)


def two_by_two():
    inv = inverse(sqrt_int(2))
    labels = [ModuleLabel(0, "vac", dual=0), ModuleLabel(1, "m", dual=1)]
    s = [[inv, inv], [inv, -inv]]
    return ModularDatum(labels, s, name="ising-like")


def test_equal_entries_share_one_object():
    a, b = sqrt_int(2) * Fraction(1, 2), sqrt_int(2) * Fraction(1, 2)
    assert a == b and a is not b
    labels = [ModuleLabel(0, "vac"), ModuleLabel(1, "m")]
    datum = ModularDatum(labels, [[a, b], [b, None]])
    assert datum.s[0][0] is datum.s[0][1] is datum.s[1][0] and datum.s[1][1] is None
    assert datum.with_entries({(1, 1): -b}).s[0][1] is a


def test_two_by_two_valid():
    report = validate(two_by_two())
    assert report.ok
    assert report.square_is_permutation
    assert report.dual_permutation == [0, 1]


def test_identity_matrix_is_invalid():
    one = Cyclotomic.one()
    zero = Cyclotomic.zero()
    labels = [ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)]
    datum = ModularDatum(labels, [[one, zero], [zero, one]])
    report = validate(datum)
    assert not report.ok
    assert report.vacuum_row_zeros == [1]


def test_nearly_real_qdim_is_not_real():
    # qdim(1) = 1 + 10^-12 i embeds within 1e-9 of the real axis, but it is
    # not real, and realness is decided exactly.
    one = Cyclotomic.one()
    near = one + root_of_unity(4, 1) * Fraction(1, 10 ** 12)
    labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    report = validate(ModularDatum(labels, [[one, None], [near, None]]))
    assert report.bad_qdims == [1]


def test_completed_dataset_is_valid_and_self_dual(s4_completed):
    report = validate(s4_completed)
    assert report.ok
    assert report.dual_permutation == list(range(28))
    assert "S^2=C: identity" in report.to_text()


def test_charge_conjugation_lattice():
    # Group-ring duality oracle: the dual of coset j is -j mod 2k.
    datum = lattice_modular_data(LatticeSpec(2))
    assert charge_conjugation(datum) == [0, 3, 2, 1]


def test_charge_conjugation_trivial():
    datum = ModularDatum([ModuleLabel(0, "vac", dual=0)], [[Cyclotomic.one()]])
    assert charge_conjugation(datum) == [0]


def test_charge_conjugation_leaves_the_labels_alone():
    lattice = lattice_modular_data(LatticeSpec(2))
    datum = ModularDatum([ModuleLabel(j, f"c{j}") for j in range(4)], lattice.s)
    assert charge_conjugation(datum) == [0, 3, 2, 1]
    assert [lab.dual for lab in datum.labels] == [None] * 4


def test_charge_conjugation_requires_full_matrix(s4):
    datum, _, _ = s4
    with pytest.raises(MissingEntryError):
        charge_conjugation(datum)


def test_charge_conjugation_rejects_non_permutation():
    one = Cyclotomic.one()
    labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    datum = ModularDatum(labels, [[one, one], [one, one]])
    with pytest.raises(NotPermutationError):
        charge_conjugation(datum)


def test_qdim_examples(s4):
    datum, _, _ = s4
    qdims = quantum_dimensions(datum)
    assert (qdims[0], qdims[7], qdims[26]) == (1, 4, 12)


def test_glob_examples(s4):
    datum, _, _ = s4
    assert glob(datum) == 1152
    for k in (1, 3, 16):
        assert glob(lattice_modular_data(LatticeSpec(k))) == 2 * k
    trivial = ModularDatum([ModuleLabel(0, "vac", dual=0)], [[Cyclotomic.one()]])
    assert glob(trivial) == 1


def test_quantum_dimensions_on_partial_data():
    labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b"), ModuleLabel(2, "c")]
    half = Cyclotomic.from_rational(Fraction(1, 2))
    datum = ModularDatum(labels, [[half, None, None], [None, None, None],
                                  [Cyclotomic.one(), None, None]])
    assert quantum_dimensions(datum) == [1, None, 2]
    with pytest.raises(MissingEntryError):
        glob(datum)
    assert validate(datum).bad_qdims == []
    assert [lab.qdim_expr is None for lab in datum_to_file(datum).labels] == [False, True, False]
    datum.s[0][0] = None
    with pytest.raises(MissingEntryError):
        quantum_dimensions(datum)
    datum.s[0][0] = Cyclotomic.zero()
    with pytest.raises(ZeroDivisionError):
        quantum_dimensions(datum)


def test_s00_inverted_once_per_datum_loop(monkeypatch):
    import fusionring.modular_data as md

    calls = []

    def counting_inverse(value):
        calls.append(value)
        return inverse(value)

    monkeypatch.setattr(md, "inverse", counting_inverse)
    datum = lattice_modular_data(LatticeSpec(4))
    for run in (glob, validate, datum_to_file, quantum_dimensions):
        calls.clear()
        run(datum)
        assert calls == [datum.s[0][0]], run.__name__


def test_validation_report_json(s4):
    import json

    datum, _, _ = s4
    payload = json.loads(validate(datum).to_json())
    assert payload["unknown_entries"] == 49
    assert payload["ok"] is True


def test_datum_to_file_round_trip(s4_completed):
    from fusionring.mdf import parse_file, serialize
    from fusionring.modular_data import datum_from_file

    df = datum_to_file(s4_completed, scale_expr_text="1/sqrt(32)")
    again = datum_from_file(parse_file(serialize(df)))
    assert again.size == 28
    for i in range(28):
        for j in range(28):
            assert again.s[i][j] == s4_completed.s[i][j]


def sqrt_minus_3_block():
    """[[2, sqrt(-3)], [sqrt(-3), -2]]: symmetric with S^2 = I, but not unitary."""
    r = root_of_unity(4, 1) * sqrt_int(3)
    two = Cyclotomic.from_rational(2)
    return [[two, r], [r, -two]]


def test_unitarity_checked_on_complex_data():
    # Z_4 lattice data has complex entries and is unitary.
    assert validate(lattice_modular_data(LatticeSpec(2))).unitary is True
    # S = [[1, i], [i, 1]] has S^2 = [[0, 2i], [2i, 0]], not a permutation, so
    # unitarity, which is read off S^2 = C, is not checked.
    i = root_of_unity(4, 1)
    one = Cyclotomic.one()
    labels = [ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b", dual=1)]
    report = validate(ModularDatum(labels, [[one, i], [i, one]]))
    assert report.unitary is None
    assert not report.ok
    report = validate(ModularDatum(labels, sqrt_minus_3_block()))
    assert report.square_is_permutation is True
    assert report.unitary is False
    assert not report.ok


def test_unitarity_failure_in_a_late_row():
    # The lattice k = 2 block beside the sqrt(-3) block: S^2 = C holds, and
    # S^-1[i,j] = conj(S[j,i]) fails only in rows 4 and 5.
    lattice = lattice_modular_data(LatticeSpec(2)).s
    block = sqrt_minus_3_block()
    zero = Cyclotomic.zero()
    s = [row + [zero, zero] for row in lattice] + [[zero] * 4 + row for row in block]
    labels = [ModuleLabel(j, f"m{j}") for j in range(6)]
    report = validate(ModularDatum(labels, s))
    assert report.dual_permutation == [0, 3, 2, 1, 4, 5]
    assert report.unitary is False


def test_unitarity_checked_on_real_data():
    # S^2 = C settles unitarity whether or not the entries are real.
    report = validate(lattice_modular_data(LatticeSpec(1)))
    assert report.unitary is True
    assert "unitarity S conj(S)^T = I: ok" in report.to_text()


def test_validate_images_s_once(monkeypatch):
    import fusionring.cyclo as cyclo

    kernels = []

    class CountedImages(cyclo.Images):
        def __init__(self, groups):
            kernels.append(self)
            super().__init__(groups)

    monkeypatch.setattr(cyclo, "Images", CountedImages)
    assert validate(lattice_modular_data(LatticeSpec(3))).unitary is True
    # One kernel images the six distinct entries zeta_6^e / sqrt(6) of S
    # once, at one prime.
    (kernel,) = kernels
    assert [len(lifts) for lifts in kernel.lifts] == [6]
    assert kernel.order == 24 and len(kernel.primes) == 1
    assert [[len(values) for values in residues] for residues in kernel.residues] == [[6]]


def test_qdims_not_checked_without_a_vacuum_entry():
    labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    for s00 in (None, Cyclotomic.zero()):
        assert validate(ModularDatum(labels, [[s00, None], [None, None]])).bad_qdims is None
