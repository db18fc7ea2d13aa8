"""Acceptance suite: every criterion exact, timed against its budget.

Each test prints one ``ACCEPTANCE n: PASS`` line (run pytest with ``-s`` to
see them as they go).  All comparisons are exact; floating point appears
only inside embedding cross-checks with the stated 1e-10 window.
"""

import random
import time
from fractions import Fraction

import pytest
from conftest import expected_group_fusion

from fusionring.branching import complete
from fusionring.cyclo import (Cyclotomic, embed, inverse, root_of_unity,
                              sqrt_int)
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.modular_data import glob, quantum_dimensions
from fusionring.s4_dataset import load_dataset
from fusionring.verlinde import compare_fixtures, fusion_tensor

np = pytest.importorskip("numpy")

QDIM_TABLE = [1, 1, 2, 3, 3, 2, 2, 4, 6, 6, 6, 6,
              8, 8, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6, 6, 6, 12, 12]


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS {label} ({elapsed:.2f}s < {budget:.0f}s)")


def _random_elements(count: int, seed: int):
    rng = random.Random(seed)
    orders = [1, 3, 4, 5, 8, 9, 12, 16, 24]
    out = []
    for _ in range(count):
        value = Cyclotomic.zero()
        for _ in range(rng.randint(1, 3)):
            n = rng.choice(orders)
            value = value + root_of_unity(n, rng.randrange(n)) * \
                Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        out.append(value)
    return out


def test_criterion_1_exact_arithmetic():
    started = time.monotonic()
    elements = _random_elements(120, seed=20260810)
    for idx in range(0, len(elements) - 2, 3):
        a, b, c = elements[idx:idx + 3]
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert inverse(a) * a == 1
    for m in range(1, 101):
        r = sqrt_int(m)
        assert r * r == m
        assert embed(r).real > 0
    for idx in range(0, len(elements) - 1, 2):
        a, b = elements[idx:idx + 2]
        assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-10
        assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-10
    _report(1, "field axioms, integer square roots, embedding homomorphism",
            started, budget=10.0)


def test_criterion_2_lattice_oracle():
    started = time.monotonic()
    for k in range(1, 21):
        spec = LatticeSpec(k)
        datum = lattice_modular_data(spec)
        assert fusion_tensor(datum) == expected_group_fusion(spec), k
    _report(2, "Verlinde tensor equals the cyclic group ring for k=1..20",
            started, budget=30.0)


def test_criterion_3_partial_data_regression():
    started = time.monotonic()
    datum, _, fixtures = load_dataset()
    block = fusion_tensor(datum)
    # fusion_tensor raises on any non-integer or negative value, so reaching
    # here certifies nonnegative integrality of all block coefficients.
    assert min(block.coeff(i, j, k) for i in block.indices
               for j in block.indices for k in block.indices) >= 0
    hard = [f for f in fixtures if not f.soft
            and f.citation.split("(")[0] in ("src:7.1", "src:7.3", "src:7.4")]
    in_block = [f for f in hard
                if all(block.has_index(i) for i in (f.left, f.right, *f.terms))]
    # 24 + 32 + 8 + 42 + 12 + 16 recorded lines lie fully inside the block;
    # the others involve modules 1..7 somewhere.
    assert len(in_block) == 134
    assert compare_fixtures(block, in_block) == []
    _report(3, f"known-block tensor integral and matches {len(in_block)} "
               "recorded products", started, budget=30.0)


def test_criterion_4_completion():
    started = time.monotonic()
    datum, parents, _ = load_dataset()
    result = complete(datum, parents)   # raises with a certificate on conflict
    completed = result.datum
    assert completed.fully_known()
    for i in range(28):
        for j in range(28):
            if datum.known(i, j):
                assert completed.s[i][j] == datum.s[i][j], (i, j)
            assert completed.s[i][j] == completed.s[j][i], (i, j)
    from fusionring.modular_data import charge_conjugation

    assert charge_conjugation(completed) == list(range(28))
    inv32 = inverse(sqrt_int(32))
    vector = [Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2),
              Fraction(3, 2), Fraction(1), Fraction(1), Fraction(2)]
    for row in (3, 4):
        got = [completed.entry(row, c) for c in range(8)]
        assert got == [inv32 * Cyclotomic.from_rational(x) for x in vector]
    _report(4, "completion reproduces shipped entries, S=S^T, S^2=I, "
               "pinned rows 3-4", started, budget=60.0)


def test_criterion_5_full_fusion_reproduction():
    started = time.monotonic()
    datum, parents, fixtures = load_dataset()
    completed = complete(datum, parents).datum
    tensor = fusion_tensor(completed)   # raises on non-integer or negative
    hard = [f for f in fixtures if not f.soft]
    soft = [f for f in fixtures if f.soft]
    assert compare_fixtures(tensor, hard) == []
    soft_report = compare_fixtures(tensor, soft)
    assert len(soft_report) == 14       # the refuted draft lines, reported
    _report(5, f"28^3 integral tensor; {len(hard)} hard fixtures match; "
               f"{len(soft_report)} soft discrepancies reported",
            started, budget=60.0)


def test_criterion_6_quantum_dimension_laws():
    started = time.monotonic()
    datum, parents, _ = load_dataset()
    completed = complete(datum, parents).datum
    assert quantum_dimensions(completed) == QDIM_TABLE
    assert glob(completed) == 1152
    assert 1152 == 24 ** 2 * 2
    tensor = fusion_tensor(completed)
    N = np.array(tensor.values, dtype=np.int64)
    q = np.array(QDIM_TABLE, dtype=np.int64)
    assert (N @ q == np.outer(q, q)).all()
    currents = [i for i in range(28) if QDIM_TABLE[i] == 1]
    assert currents == [0, 1]
    for i in currents:
        mat = N[i]
        assert ((mat == 0) | (mat == 1)).all()
        assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
    _report(6, "qdim table, glob = 1152 = 24^2*2, multiplicativity on all "
               "pairs, simple currents {0, 1}", started, budget=60.0)


def test_criterion_7_ring_properties():
    started = time.monotonic()
    datum, parents, _ = load_dataset()
    completed = complete(datum, parents).datum
    tensor = fusion_tensor(completed)
    N = np.array(tensor.values, dtype=np.int64)
    ident = np.eye(28, dtype=np.int64)
    assert (N[0] == ident).all()
    assert (N == N.transpose(1, 0, 2)).all()
    left = np.einsum("ijm,mkl->ijkl", N, N)
    right = np.einsum("jkm,iml->ijkl", N, N)
    assert (left == right).all()        # all 28^4 quadruples
    assert (N == N.transpose(0, 2, 1)).all()  # N[i,j]^k = N[i,k]^j (self-dual)
    _report(7, "vacuum identity, commutativity, associativity on all 28^4, "
               "duality symmetry", started, budget=60.0)
