"""Rank-1 lattice modular data and the group-ring fusion oracle."""

import pytest
from conftest import expected_group_fusion

from fusionring.cyclo import inverse, root_of_unity, sqrt_int
from fusionring.lattice import LatticeSpec, lattice_datum_file, lattice_modular_data
from fusionring.mdf import parse_file, serialize
from fusionring.modular_data import datum_from_file, quantum_dimensions, validate
from fusionring.verlinde import fusion_tensor


def test_spec_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        LatticeSpec(0)


def test_spec_caps_the_module_count():
    assert LatticeSpec(512).modules == 1024
    with pytest.raises(ValueError, match="2k = 1026 modules exceeds 1024"):
        LatticeSpec(513)


def test_k1_matrix():
    datum = lattice_modular_data(LatticeSpec(1))
    inv = inverse(sqrt_int(2))
    assert datum.s[0][0] == inv
    assert datum.s[0][1] == inv
    assert datum.s[1][0] == inv
    assert datum.s[1][1] == -inv


def test_k16_matrix():
    datum = lattice_modular_data(LatticeSpec(16))
    assert datum.size == 32
    inv = inverse(sqrt_int(32))
    assert datum.s[1][1] == root_of_unity(32, -1) * inv
    for l in range(32):
        assert datum.s[0][l] == inv
    assert quantum_dimensions(datum) == [1] * 32


def test_entry_depends_only_on_product_mod_2k():
    datum = lattice_modular_data(LatticeSpec(6))
    n = 12
    classes = {}
    for j in range(n):
        for l in range(n):
            classes.setdefault((j * l) % n, set()).add(datum.s[j][l])
    assert all(len(values) == 1 for values in classes.values())


def brute_force_group_tensor(k):
    """Independent oracle: coset addition in Z_2k."""
    n = 2 * k
    return [[[1 if c == (a + b) % n else 0 for c in range(n)]
             for b in range(n)] for a in range(n)]


def test_expected_group_fusion_examples():
    assert expected_group_fusion(LatticeSpec(1)).coeff(1, 1, 0) == 1
    assert expected_group_fusion(LatticeSpec(9)).coeff(1, 2, 3) == 1
    assert expected_group_fusion(LatticeSpec(4)).coeff(3, 7, 2) == 1
    assert expected_group_fusion(LatticeSpec(4)).coeff(3, 7, 3) == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
def test_expected_matches_brute_force(k):
    assert expected_group_fusion(LatticeSpec(k)).values == brute_force_group_tensor(k)


@pytest.mark.parametrize("k", list(range(1, 21)))
def test_verlinde_equals_group_ring(k):
    spec = LatticeSpec(k)
    datum = lattice_modular_data(spec)
    assert fusion_tensor(datum) == expected_group_fusion(spec)


@pytest.mark.parametrize("k", list(range(1, 21)))
def test_lattice_data_validate(k):
    assert validate(lattice_modular_data(LatticeSpec(k))).ok


def test_lattice_file_round_trip():
    df = lattice_datum_file(LatticeSpec(4))
    text = serialize(df)
    datum = datum_from_file(parse_file(text))
    original = lattice_modular_data(LatticeSpec(4))
    for j in range(8):
        for l in range(8):
            assert datum.s[j][l] == original.s[j][l]
    assert [lab.dual for lab in datum.labels] == [0, 7, 6, 5, 4, 3, 2, 1]
