"""The shipped dataset: labels, partial S-matrix, branchings, fixtures."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from fusionring.cyclo import inverse, sqrt_int
from fusionring.mdf import parse_file, serialize
from fusionring.modular_data import QdimMismatchError, computable_indices, quantum_dimensions
from fusionring.s4_dataset import data_path, load_dataset
from fusionring.verlinde import check_ring, compare_fixtures

QDIMS = [1, 1, 2, 3, 3, 2, 2, 4, 6, 6, 6, 6,
         8, 8, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6, 6, 6, 12, 12]


def test_vacuum_entry(s4):
    datum, _, _ = s4
    assert datum.entry(0, 0) == inverse(sqrt_int(32)) * Fraction(1, 6)


def test_qdim_column(s4):
    datum, _, _ = s4
    assert [q.as_rational() for q in quantum_dimensions(datum)] == QDIMS
    s00 = datum.entry(0, 0)
    for j in range(28):
        assert datum.entry(j, 0) == s00 * QDIMS[j]


def test_partial_symmetry(s4):
    datum, _, _ = s4
    for i in range(28):
        for j in range(28):
            if datum.known(i, j) and datum.known(j, i):
                assert datum.s[i][j] == datum.s[j][i]


def test_unknown_block_shape(s4):
    datum, _, _ = s4
    unknown = datum.unknown_positions()
    assert len(unknown) == 49
    assert all(1 <= r <= 7 and 1 <= c <= 7 for r, c in unknown)


def test_fixture_count_and_coverage(s4):
    _, _, fixtures = s4
    assert len(fixtures) == 406
    pairs = {(f.left, f.right) for f in fixtures}
    assert pairs == {(i, j) for i in range(28) for j in range(i, 28)}
    assert all(m in (1, 2) for f in fixtures for m in f.terms.values())
    assert all(f.citation.startswith("src:") for f in fixtures)
    assert sum(1 for f in fixtures if f.soft) == 18


def test_branching_parents(s4):
    _, parents, _ = s4
    by_name = {p.parent: p for p in parents}
    assert set(by_name) == {"norm32", "norm18", "norm8"}
    assert by_name["norm32"].k == 16
    assert by_name["norm18"].k == 9
    assert by_name["norm8"].k == 4
    covered = set()
    for p in parents:
        assert set(p.rows) == set(range(2 * p.k))
        for terms in p.rows.values():
            covered.update(terms)
    assert covered == set(range(28))


def test_branching_qdim_budget(s4):
    # Each parent module's decomposition carries the parent's relative
    # quantum dimension: 6 for the norm-32 parent, 8 for norm-18, 12 for norm-8.
    datum, parents, _ = s4
    budget = {"norm32": 6, "norm18": 8, "norm8": 12}
    for p in parents:
        for l, terms in p.rows.items():
            total = sum(QDIMS[m] * mult for m, mult in terms.items())
            assert total == budget[p.parent], (p.parent, l)


def test_known_block_indices(s4, s4_block_tensor):
    datum, _, _ = s4
    assert computable_indices(datum) == [0] + list(range(8, 28))
    # conftest builds the block as fusion_tensor(datum) of the partial datum.
    assert s4_block_tensor.indices == [0] + list(range(8, 28))
    with pytest.raises(ValueError, match="full tensor"):
        check_ring(s4_block_tensor, datum)


def test_known_block_tensor_values(s4_block_tensor):
    assert s4_block_tensor.coeff(18, 18, 12) == 1
    assert s4_block_tensor.coeff(0, 9, 9) == 1
    assert s4_block_tensor.coeff(8, 18, 18) == 1
    assert s4_block_tensor.coeff(8, 18, 26) == 1
    assert s4_block_tensor.coeff(8, 18, 20) == 0


def test_known_block_nonnegative(s4_block_tensor):
    values = [s4_block_tensor.coeff(i, j, k)
              for i in s4_block_tensor.indices
              for j in s4_block_tensor.indices
              for k in s4_block_tensor.indices]
    assert all(v >= 0 for v in values)
    assert any(v == 2 for v in values)


def test_block_tensor_matches_26_26_restriction(s4_block_tensor, s4):
    # The heaviest product restricted to the block: channels >= 8 of the
    # recorded (26, 26) line.
    _, _, fixtures = s4
    fx = next(f for f in fixtures if (f.left, f.right) == (26, 26))
    for k in [i for i in s4_block_tensor.indices]:
        assert s4_block_tensor.coeff(26, 26, k) == fx.terms.get(k, 0)


def test_block_matches_hard_fixtures(s4_block_tensor, s4):
    _, _, fixtures = s4
    hard = [f for f in fixtures if not f.soft]
    assert compare_fixtures(s4_block_tensor, hard) == []


def test_qdim_mismatch_detected(tmp_path, monkeypatch):
    import fusionring.s4_dataset as mod

    text = data_path("s4_partial.mdf").read_text()
    bad = text.replace("7 M7 qdim=4 dual=7", "7 M7 qdim=5 dual=7", 1)
    target = tmp_path / "s4_partial.mdf"
    target.write_text(bad)
    for name in ("s4_branching.mdf", "s4_fixtures.mdf"):
        (tmp_path / name).write_text(data_path(name).read_text())
    monkeypatch.setattr(mod, "data_path", lambda name: tmp_path / name)
    with pytest.raises(QdimMismatchError):
        mod.load_dataset()


def test_data_notes_shipped():
    notes = data_path("DATA_NOTES.txt").read_text()
    assert "soft" in notes
    assert "src:" in notes


def test_weights_recorded_where_stated(s4):
    datum, _, _ = s4
    assert datum.labels[8].weight == Fraction(1, 16)
    assert datum.labels[9].weight == Fraction(49, 16)
    assert datum.labels[0].weight is None


def test_shipped_files_byte_stable():
    for name in ("s4_partial.mdf", "s4_branching.mdf", "s4_fixtures.mdf"):
        text = data_path(name).read_text()
        body = "\n".join(line for line in text.splitlines()
                         if not line.startswith("#")) + "\n"
        df = parse_file(text)
        assert serialize(df) == body.lstrip("\n")


def generator():
    """The generator script as a module; importing it writes nothing."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "generate_s4_data.py"
    spec = importlib.util.spec_from_file_location("generate_s4_data", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_generator_script_reproduces_shipped_files(capsys):
    # Run the generator's audit and rebuild every data file in memory; nothing
    # is written.
    gen = generator()
    partial = gen.build_partial_datum_file()
    branchings = gen.build_branching_file()
    gen.audit(partial, branchings)
    assert capsys.readouterr().out == (
        "transcription audit: 406 unknowns solved from the branching tables alone; "
        "all 735 tabulated entries agree\n")
    built = {"s4_partial.mdf": partial, "s4_branching.mdf": branchings,
             "s4_fixtures.mdf": gen.build_fixture_file()}
    for name, df in built.items():
        text = gen.HEADER + serialize(df)
        assert text.encode() == data_path(name).read_bytes(), name
    assert gen.DATA_NOTES.encode() == data_path("DATA_NOTES.txt").read_bytes()


def test_generator_audit_names_each_mistranscribed_cell():
    # S[26,27] and its mirror are tabulated apart, so only the one cell differs;
    # the audit raises SystemExit, which ``python -O`` keeps.
    gen = generator()
    partial = gen.build_partial_datum_file()
    partial.s_entries[(26, 27)] = "2*sqrt(2)"
    with pytest.raises(SystemExit) as info:
        gen.audit(partial, gen.build_branching_file())
    assert str(info.value) == ("transcription audit: 1 of 735 tabulated S entries "
                               "differ from the branching-only completion: S[26,27]")
