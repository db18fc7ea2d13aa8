"""Datum model: validation, charge conjugation, quantum dimensions."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from conftest import counted_kernels, relabeled, su2_datum

from fusionring import mdf
from fusionring import modular_data as md
from fusionring.cyclo import Cyclotomic, format_exact, inverse, root_of_unity, sqrt_int
from fusionring.lattice import LatticeSpec, lattice_modular_data
from fusionring.mdf import eval_expr, parse_expr, parse_file, serialize
from fusionring.modular_data import (MissingEntryError, ModularDatum,
                                     ModuleLabel, NotPermutationError,
                                     charge_conjugation, datum_from_file, datum_to_file,
                                     glob, quantum_dimensions, validate)
from fusionring.s4_dataset import data_path
from fusionring.verlinde import check_ring, fusion_product, fusion_tensor


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


@pytest.mark.parametrize("labels, s, message", [
    ([], [], "a modular datum needs at least the vacuum module"),
    ([ModuleLabel(0, "vac")], [], "S-matrix shape must match the label count"),
    ([ModuleLabel(0, "vac"), ModuleLabel(1, "m")], [[1, 1], [1]],
     "S-matrix shape must match the label count"),
])
def test_datum_refuses_no_labels_and_a_wrong_shape(labels, s, message):
    with pytest.raises(ValueError) as info:
        ModularDatum(labels, s)
    assert str(info.value) == message


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


def test_dual_mismatches_list_each_module_once():
    # S^2 = C swaps 0 and 1.  The vacuum, labelled self-dual, is listed once,
    # and module 1, whose unset dual reads as self-dual, is listed too.
    half = Cyclotomic.from_rational(Fraction(1, 2))
    a, b = (1 + root_of_unity(4)) * half, (1 - root_of_unity(4)) * half
    datum = ModularDatum([ModuleLabel(0, "a", dual=0), ModuleLabel(1, "b")], [[a, b], [b, a]])
    report = validate(datum)
    assert report.dual_permutation == [1, 0]
    assert report.dual_mismatches == [0, 1]
    assert not report.ok
    # Labels that agree with C still leave the vacuum listed, as C moves it.
    agreeing = ModularDatum([ModuleLabel(0, "a", dual=1), ModuleLabel(1, "b", dual=0)],
                            [[a, b], [b, a]])
    assert validate(agreeing).dual_mismatches == [0]


def test_one_label_record_serves_file_and_datum():
    assert md.ModuleLabel is mdf.ModuleLabel
    label = ModuleLabel(0, "vac", dual=0)
    with pytest.raises(AttributeError):
        label.dual = 1
    df = parse_file("[header]\nmodules = 2\n\n[labels]\n1 b weight=1/16\n0 vac qdim=1\n\n"
                    "[S]\n0 0 1\n0 1 1\n1 0 1\n1 1 -1\n")
    assert df.labels == [ModuleLabel(1, "b", weight=Fraction(1, 16)), ModuleLabel(0, "vac")]
    assert df.qdims == {0: "1"}
    datum = datum_from_file(df)
    # The file's labels are used as they are, in index order.
    assert datum.labels[0] is df.labels[1] and datum.labels[1] is df.labels[0]
    assert datum.with_entries({}).labels is datum.labels
    back = datum_to_file(datum)
    assert all(x is y for x, y in zip(back.labels, datum.labels))
    assert back.qdims == {0: "1", 1: "1"}
    # A module without a label line is named m{i}.
    bare = datum_from_file(parse_file("[header]\nmodules = 1\n\n[S]\n0 0 1\n"))
    assert bare.labels == [ModuleLabel(0, "m0")]


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


def test_charge_conjugation_is_certified_once_per_datum(monkeypatch):
    squared = []
    s_squared_rows = md._s_squared_rows
    monkeypatch.setattr(md, "_s_squared_rows",
                        lambda datum: squared.append(datum) or s_squared_rows(datum))
    datum = lattice_modular_data(LatticeSpec(3))
    charge_conjugation(datum).append(6)  # callers get their own copy
    assert validate(datum).dual_permutation == [0, 5, 4, 3, 2, 1]
    assert check_ring(fusion_tensor(datum), datum).ok
    assert charge_conjugation(datum) == [0, 5, 4, 3, 2, 1]
    assert squared == [datum]
    # A failure is kept too: each call raises the one derivation's message.
    one = Cyclotomic.one()
    bad = ModularDatum([ModuleLabel(0, "a"), ModuleLabel(1, "b")], [[one, one], [one, one]])
    for _ in range(2):
        with pytest.raises(NotPermutationError, match=r"^S\^2\[0,0\] = 2 is neither 0 nor 1$"):
            charge_conjugation(bad)
    assert squared == [datum, bad]
    partial = ModularDatum(bad.labels, [[one, one], [one, None]])
    for _ in range(2):
        with pytest.raises(MissingEntryError, match="needs a fully known S-matrix"):
            charge_conjugation(partial)


def test_failed_verdict_is_derived_once_per_datum(monkeypatch):
    # The all-ones S passes the Galois check, as every entry is rational, but
    # S^2 = 3 * ones is no permutation; its tensor, ring check and the
    # reproduction certificate all read the one failed verdict.
    squared = []
    s_squared_rows = md._s_squared_rows
    monkeypatch.setattr(md, "_s_squared_rows",
                        lambda datum: squared.append(datum) or s_squared_rows(datum))
    one = Cyclotomic.one()
    datum = ModularDatum([ModuleLabel(i, f"m{i}") for i in range(3)], [[one] * 3] * 3)
    assert datum.engine.galois is not None
    assert validate(datum).square_message == "S^2[0,0] = 3 is neither 0 nor 1"
    for _ in range(5):
        assert fusion_product(datum, 1, 2) == {0: 3, 1: 3, 2: 3}
    assert not check_ring(fusion_tensor(datum), datum).ok
    assert not datum.reproduces({})
    with pytest.raises(NotPermutationError, match="neither 0 nor 1"):
        charge_conjugation(datum)
    assert squared == [datum]


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

    def with_vacuum(value):  # S is never edited in place: each case is a datum of its own
        return ModularDatum(labels, [[value, None, None], [None, None, None],
                                     [Cyclotomic.one(), None, None]])

    datum = with_vacuum(Cyclotomic.from_rational(Fraction(1, 2)))
    assert quantum_dimensions(datum) == [1, None, 2]
    with pytest.raises(MissingEntryError):
        glob(datum)
    assert validate(datum).bad_qdims == []
    assert list(datum_to_file(datum).qdims) == [0, 2]
    with pytest.raises(MissingEntryError):
        quantum_dimensions(with_vacuum(None))
    with pytest.raises(ZeroDivisionError):
        quantum_dimensions(with_vacuum(Cyclotomic.zero()))


def test_quantum_dimensions_one_product_per_distinct_entry(monkeypatch):
    # Every S[i,0] of the k = 13 lattice datum is the one object 1/sqrt(26).
    datum = lattice_modular_data(LatticeSpec(13))
    datum.vacuum_inverse(0)
    products = []
    times = Cyclotomic.__mul__

    def counting_mul(a, b):
        products.append((a, b))
        return times(a, b)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    assert quantum_dimensions(datum) == [1] * 26
    assert len(products) == 1


def counted_inverses(monkeypatch):
    """A list that gains each value ``modular_data`` inverts while the patch holds."""
    calls = []

    def counting_inverse(value):
        calls.append(value)
        return inverse(value)

    monkeypatch.setattr(md, "inverse", counting_inverse)
    return calls


def test_s00_inverted_once_per_datum_loop(monkeypatch):
    # Each distinct S[0,s] is inverted once per datum, whichever of these
    # runs first needs it: the qdims need S[0,0], the engine every S[0,s].
    # Every S[0,s] of the lattice datum is 1/sqrt(8); su(2)_6 has four values.
    calls = counted_inverses(monkeypatch)
    for datum in (lattice_modular_data(LatticeSpec(4)), su2_datum(6)):
        distinct = list(dict.fromkeys(datum.s[0]))
        calls.clear()
        glob(datum)
        assert calls == [datum.s[0][0]]
        for run in (validate, datum_to_file, quantum_dimensions, fusion_tensor):
            run(datum)
            assert calls == distinct, run.__name__
        # A copy has its own memo.
        copy = datum.with_entries({})
        for run in (fusion_tensor, validate, glob):
            run(copy)
        assert calls == distinct * 2


def test_validate_inverts_a_one_module_vacuum_once(monkeypatch):
    # S = [[sqrt(1031)]]: the qdims and the engine share the one inversion.
    calls = counted_inverses(monkeypatch)
    datum = ModularDatum([ModuleLabel(0, "vac", dual=0)], [[sqrt_int(1031)]])
    report = validate(datum)
    assert calls == [datum.s[0][0]]
    assert report.square_message == "S^2[0,0] = 1031 is neither 0 nor 1"


def test_validation_report_json(s4):
    import json

    datum, _, _ = s4
    payload = json.loads(validate(datum).to_json())
    assert payload["unknown_entries"] == 49
    assert payload["ok"] is True


def test_datum_to_file_round_trip(s4_completed):
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
    kernels = counted_kernels(monkeypatch)
    datum = lattice_modular_data(LatticeSpec(3))
    assert validate(datum).unitary is True
    # One kernel, held by the datum's engine alone, images the six distinct
    # entries zeta_6^e / sqrt(6) of S once, at one prime.
    (kernel,) = kernels
    assert len(kernel.lifts) == 6 and kernel.order == 24
    assert len(datum.engine.primes) == 1 and "images" not in vars(datum)


def test_validate_counts_unknowns_without_allocating_per_cell():
    # A header-only file at the module cap leaves all 1024^2 cells unknown;
    # one (i, j) tuple per cell would peak near 100 MB.
    datum = datum_from_file(parse_file(f"[header]\nmodules = {mdf.MAX_MODULES}\n"))
    tracemalloc.start()
    try:
        report = validate(datum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.unknown_count == mdf.MAX_MODULES ** 2
    assert peak < 1 << 20


def test_qdims_not_checked_without_a_vacuum_entry():
    labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    for s00 in (None, Cyclotomic.zero()):
        assert validate(ModularDatum(labels, [[s00, None], [None, None]])).bad_qdims is None


def test_file_layer_works_once_per_distinct_value(monkeypatch):
    # Lattice k = 13: 676 entries take 26 distinct values, and every qdim is 1.
    datum = lattice_modular_data(LatticeSpec(13))
    entries = {v for row in datum.s for v in row}
    dims = set(quantum_dimensions(datum))
    assert (len(entries), len(dims)) == (26, 1)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(arg):
            calls[name] += 1
            return original(arg)
        monkeypatch.setattr(module, name, counted)

    count(md, "format_exact")
    count(md, "eval_expr")
    count(mdf, "parse_expr")
    df = datum_to_file(datum, scale_expr_text="1/sqrt(26)")
    assert calls["format_exact"] <= len(entries) + len(dims)
    text = serialize(df)
    s_texts = {line.split(None, 2)[2] for line in text.split("[S]\n")[1].splitlines()}
    assert len(s_texts) == 26
    calls.clear()
    again = parse_file(text)
    # One parse per distinct expression text: the S entries, the scale and the
    # qdim= labels ("1", also an S text here) share one memo.
    qdim_texts = set(again.qdims.values())
    assert qdim_texts == {"1"}
    assert calls["parse_expr"] == len(s_texts | qdim_texts | {again.scale_expr}) == 27
    calls.clear()
    back = datum_from_file(again)
    # One evaluation per distinct S text, one for the scale and one per qdim= label.
    texts = set(again.s_entries.values())
    assert len(texts) == 26
    assert calls["eval_expr"] == len(texts) + 1 + datum.size
    assert back.s == datum.s


@pytest.mark.parametrize("k", [*range(1, 21), None])
def test_file_round_trip_is_byte_identical(k):
    # Relabeled lattice data for k = 1..20, and the shipped partial s4 datum (None).
    if k is None:
        datum = datum_from_file(parse_file(data_path("s4_partial.mdf").read_text()))
        scale = "1/sqrt(32)"
    else:
        datum = relabeled(lattice_modular_data(LatticeSpec(k)), seed=k)
        scale = f"1/sqrt({2 * k})"
    text = serialize(datum_to_file(datum, scale_expr_text=scale))
    df = parse_file(text)
    back = datum_from_file(df)
    assert back.s == datum.s and back.dual_permutation() == datum.dual_permutation()
    assert serialize(datum_to_file(back, scale_expr_text=df.scale_expr)) == text
    # Each S text is the entry over the scale, and each qdim text the qdim,
    # as format_exact writes them.
    inv_scale = inverse(eval_expr(parse_expr(scale)))
    assert df.scale_expr == scale
    assert df.s_entries == {(i, j): None if v is None else format_exact(v * inv_scale)
                            for i, row in enumerate(datum.s) for j, v in enumerate(row)}
    assert [df.qdims.get(i) for i in range(datum.size)] == [
        None if d is None else format_exact(d) for d in quantum_dimensions(datum)]
