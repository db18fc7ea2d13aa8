"""Scalar expression grammar and the datum file format."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring.cli import main
from fusionring.cyclo import embed
from fusionring.mdf import (MAX_ORDER, DatumFile, DuplicateEntryError, FixtureRecord,
                            IndexRangeError, LabelRecord, ParseError,
                            eval_expr, expr_to_text, parse_expr, parse_file,
                            serialize)

MINIMAL = """
[header]
name = mini
modules = 1
vacuum = 0

[labels]
0 vac qdim=1 dual=0

[S]
0 0 1
"""


def test_parse_rational_cell():
    assert eval_expr(parse_expr("1/6")) == Fraction(1, 6)


def test_parse_root():
    assert abs(embed(eval_expr(parse_expr("E(4)"))) - 1j) < 1e-12


def test_parse_w_symbol():
    value = eval_expr(parse_expr("4/3*(E(18)+E(18)^17)"))
    assert abs(embed(value) - (8 / 3) * math.cos(math.pi / 9)) < 1e-12


def test_eval_sqrt_square():
    assert eval_expr(parse_expr("sqrt(2)^2")) == 2


def test_eval_division():
    assert eval_expr(parse_expr("(E(8)+E(8)^7)/sqrt(2)")) == 1


def test_division_by_vanishing_sum():
    expr = parse_expr("1/(E(3)+E(3)^2+1)")
    with pytest.raises(ZeroDivisionError):
        eval_expr(expr)


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + $")
    assert info.value.offset == 4


@pytest.mark.parametrize("text, offset, message", [
    ("E(65537)", 0, "E() order exceeds 65536"),
    ("1 + E(10000019)^2", 4, "E() order exceeds 65536"),
    ("sqrt(1000000007)", 0, "sqrt() argument has a prime factor above 65536"),
    ("2*sqrt(262148)", 2, "sqrt() argument has a prime factor above 65536"),  # 4 * 65537
    ("sqrt(4295098369)", 0, "sqrt() argument has a prime factor above 65536"),  # 65537^2
    ("2^1000000000", 2, "exponent exceeds 65536"),
    ("(1+sqrt(2))^100000000", 12, "exponent exceeds 65536"),
    ("E(7)^-65537", 5, "exponent exceeds 65536"),
])
def test_conductor_caps(text, offset, message):
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    assert (info.value.offset, info.value.message) == (offset, message)


@pytest.mark.parametrize("entry", ["2^1000000000", "(1+sqrt(2))^100000000"])
def test_huge_exponent_exits_2_at_once(tmp_path, capsys, entry):
    bad = tmp_path / "big.mdf"
    bad.write_text(f"[header]\nname = big\nmodules = 1\n\n[S]\n0 0 {entry}\n")
    start = time.perf_counter()
    code = main(["validate", str(bad)])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: line 6, offset ")
    assert captured.err.endswith("exponent exceeds 65536\n")


def test_caps_admit_the_shipped_and_generated_orders():
    assert MAX_ORDER == 1 << 16
    # s4 works at order 288, su(2)_k at 4(k+2), lattice data at the order of
    # E(2k) / sqrt(2k); the largest allowed order and prime still parse.
    for text in ("E(288)^5", "E(200)", "1/sqrt(32)", "1/sqrt(131042)", "E(65536)",
                 "sqrt(2404631929946112)", "2^65536", "(2/3)^-65536", "E(65536)^65535"):
        parse_expr(text)
    # 2^40 3^7: trial division ends once the cofactor is exhausted.
    assert eval_expr(parse_expr("sqrt(2404631929946112)")) == eval_expr(parse_expr("2^20*27*sqrt(3)"))


def test_root_power_is_one_canonicalization(monkeypatch):
    from fusionring import cyclo

    calls = []
    real = cyclo._canonicalize

    def counting(n, terms):
        calls.append(n)
        return real(n, terms)

    monkeypatch.setattr(cyclo, "_canonicalize", counting)
    value = eval_expr(parse_expr("E(104)^77"))
    assert len(calls) == 1
    assert value == cyclo.root_of_unity(104, 77)
    assert eval_expr(parse_expr("E(104)^-77")) == cyclo.root_of_unity(104, -77)


@pytest.mark.parametrize("text", [
    "1/", "E(4", "sqrt()", "(1+2", "1 2", "^2", "E(0)", "sqrt(0)", ""])
def test_malformed_expressions_rejected(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_whitespace_insensitive():
    assert parse_expr(" 1 / 6 ") == parse_expr("1/6")
    assert parse_expr("4/3 * ( E(18) + E(18)^17 )") == parse_expr("4/3*(E(18)+E(18)^17)")


def test_rational_binds_at_atom_level():
    # Per the grammar, "4/2^2" is the rational 4/2 raised to the power 2.
    assert eval_expr(parse_expr("4/2^2")) == 4


EXPR_LEAVES = st.one_of(
    st.builds(lambda n, d: ("rat", Fraction(n, d)), st.integers(0, 9), st.integers(1, 9)),
    st.builds(lambda n: ("E", n), st.integers(1, 12)),
    st.builds(lambda n: ("sqrt", n), st.integers(1, 12)),
)


def expr_nodes(depth=3):
    if depth == 0:
        return EXPR_LEAVES
    sub = expr_nodes(depth - 1)
    return st.one_of(
        EXPR_LEAVES,
        st.builds(lambda a, b: ("add", a, b), sub, sub),
        st.builds(lambda a, b: ("sub", a, b), sub, sub),
        st.builds(lambda a, b: ("mul", a, b), sub, sub),
        st.builds(lambda a: ("neg", a), EXPR_LEAVES),
        st.builds(lambda a, k: ("pow", a, k), EXPR_LEAVES, st.integers(0, 3)),
    )


@settings(max_examples=80, deadline=None)
@given(expr_nodes())
def test_printer_parser_round_trip(node):
    text = expr_to_text(node)
    assert parse_expr(text) == node


def test_minimal_file_round_trip():
    df = parse_file(MINIMAL)
    assert df.modules == 1
    assert df.labels[0].name == "vac"
    text = serialize(df)
    again = parse_file(text)
    assert again == df
    assert serialize(again) == text


def test_vacuum_must_be_zero():
    bad = MINIMAL.replace("vacuum = 0", "vacuum = 1")
    with pytest.raises(ParseError, match="vacuum must be 0") as info:
        parse_file(bad)
    assert info.value.line == 5 and str(info.value).startswith("line 5, ")


def test_expression_error_names_its_line():
    bad = MINIMAL.replace("0 0 1", "0 0 1+E(3")
    with pytest.raises(ParseError) as info:
        parse_file(bad)
    assert info.value.line == 11
    assert str(info.value) == "line 11, offset 5: expected ')'"


S_HEADER = "[header]\nname = m\nmodules = 2\n\n[S]\n"  # [S] is line 5


@pytest.mark.parametrize("entries, where", [
    # A valid text repeated, then an invalid one: the invalid line is named.
    (["1/2", "1/2", "1/2", "1/(2"], "line 9, offset 4: expected ')'"),
    # The same invalid text twice: the first of the two lines is named.
    (["1/2", "E(0)", "1/2", "E(0)"], "line 7, offset 0: E() needs a positive order"),
])
def test_repeated_s_texts_keep_error_locations(entries, where):
    # S texts are parsed once per distinct text; a failure is not remembered.
    cells = ["0 0", "0 1", "1 0", "1 1"]
    text = S_HEADER + "".join(f"{cell} {entry}\n" for cell, entry in zip(cells, entries))
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse_file(text)
        assert str(info.value) == where


def test_repeated_and_spaced_s_texts_parse_as_before():
    entries = {(0, 0): "1+2", (0, 1): "1 + 2", (1, 0): "?", (1, 1): "1+2"}
    df = parse_file(S_HEADER + "".join(f"{r} {c} {t}\n" for (r, c), t in entries.items()))
    assert df.s_entries == {key: None if t == "?" else parse_expr(t) for key, t in entries.items()}
    assert [eval_expr(df.s_entries[key]) for key in [(0, 0), (0, 1), (1, 1)]] == [3, 3, 3]


def test_duplicate_s_entry_rejected():
    with pytest.raises(DuplicateEntryError):
        parse_file(MINIMAL + "\n[S]\n0 0 2\n")


def test_duplicate_label_rejected():
    bad = MINIMAL.replace("0 vac qdim=1 dual=0", "0 vac\n0 vac2")
    with pytest.raises(DuplicateEntryError):
        parse_file(bad)


def test_out_of_range_entry_rejected():
    with pytest.raises(IndexRangeError):
        parse_file(MINIMAL + "\n[S]\n0 5 1\n")


def test_unknown_marker_and_sections():
    text = MINIMAL + """
[branching parent="zeta" k=1]
0 = 0
1 = 2*0

[fusion]
0 x 0 = 0 | src:demo
soft 0 x 0 = 2*0 | src:demo2
"""
    df = parse_file(text)
    assert df.branchings[0].parent == "zeta"
    assert df.branchings[0].rows[1] == {0: 2}
    assert not df.fixtures[0].soft and df.fixtures[0].citation == "src:demo"
    assert df.fixtures[1].soft and df.fixtures[1].terms == {0: 2}
    assert parse_file(serialize(df)) == df


def test_unknown_s_entries_survive_round_trip():
    df = DatumFile(name="p", modules=2)
    df.labels = [LabelRecord(0, "a"), LabelRecord(1, "b")]
    df.s_entries = {(0, 0): parse_expr("1"), (0, 1): parse_expr("1"),
                    (1, 0): parse_expr("1"), (1, 1): None}
    again = parse_file(serialize(df))
    assert again.s_entries[(1, 1)] is None
    assert again == df


def test_empty_formal_sum_is_not_serialized():
    # The file syntax has no empty sum, and "0" would read back as module 0.
    df = DatumFile(name="p", modules=2)
    df.fixtures = [FixtureRecord(left=1, right=1, terms={})]
    with pytest.raises(ValueError, match="empty formal sum"):
        serialize(df)


def test_shipped_dataset_parses_cleanly():
    from fusionring.s4_dataset import data_path

    df = parse_file(data_path("s4_partial.mdf").read_text())
    assert df.modules == 28
    assert len(df.labels) == 28
    assert len(df.s_entries) == 784
    unknown = [k for k, v in df.s_entries.items() if v is None]
    assert len(unknown) == 49
    assert all(1 <= r <= 7 and 1 <= c <= 7 for r, c in unknown)
    # Byte-stable round trip.
    text = serialize(df)
    assert serialize(parse_file(text)) == text


NAME_ST = st.text(alphabet="abcdefgz", min_size=1, max_size=6)
# The parser only ever emits nonnegative rational leaves (minus signs become
# "neg" nodes), so file-borne syntax trees are drawn in that form.
SMALL_EXPR = st.one_of(
    st.builds(lambda n, d: ("rat", Fraction(n, d)), st.integers(0, 5), st.integers(1, 5)),
    st.builds(lambda n: ("E", n), st.integers(1, 9)),
    st.builds(lambda a: ("neg", a), EXPR_LEAVES),
    st.builds(lambda a, b: ("add", a, b), EXPR_LEAVES, EXPR_LEAVES),
)


@st.composite
def datum_files(draw):
    n = draw(st.integers(1, 4))
    df = DatumFile(name=draw(NAME_ST), modules=n)
    if draw(st.booleans()):
        df.scale_expr = draw(SMALL_EXPR)
    for i in range(n):
        df.labels.append(LabelRecord(
            index=i, name=draw(NAME_ST),
            qdim_expr=draw(st.none() | SMALL_EXPR),
            dual=draw(st.none() | st.integers(0, n - 1)),
            weight=draw(st.none() | st.builds(Fraction, st.integers(0, 9),
                                              st.integers(1, 9)))))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=6))
    for cell in cells:
        df.s_entries[cell] = draw(st.none() | SMALL_EXPR)
    for _ in range(draw(st.integers(0, 3))):
        terms = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                                     min_size=1, max_size=3))
        df.fixtures.append(FixtureRecord(
            left=draw(st.integers(0, n - 1)), right=draw(st.integers(0, n - 1)),
            terms=terms, soft=draw(st.booleans()),
            citation=draw(st.just("") | st.just("src:demo"))))
    return df


@settings(max_examples=60, deadline=None)
@given(datum_files())
def test_file_round_trip_property(df):
    text = serialize(df)
    again = parse_file(text)
    assert again == df
    assert serialize(again) == text
