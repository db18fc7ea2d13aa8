"""Scalar expression grammar and the datum file format."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring.cli import main
from fusionring.cyclo import embed
from fusionring.mdf import (MAX_MODULES, MAX_ORDER, BranchingSection, DatumFile,
                            DuplicateEntryError, FixtureRecord, IndexRangeError, ModuleLabel,
                            ParseError, eval_expr, parse_expr, parse_file, serialize)

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


def test_eval_negative_powers_of_non_roots():
    # Only E(n)^k is a root power; any other base is inverted, then raised.
    assert eval_expr(parse_expr("sqrt(2)^-2")) == Fraction(1, 2)
    assert eval_expr(parse_expr("(1+E(3))^-1")) == eval_expr(parse_expr("-E(3)"))


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


@pytest.mark.parametrize("weight, message", [
    ("1e999999999", "weight '1e999999999' is not [sign]int[/uint > 0]"),
    ("0.5", "weight '0.5' is not [sign]int[/uint > 0]"),
    ("1/-2", "weight '1/-2' is not [sign]int[/uint > 0]"),
    ("1/0", "weight '1/0' is not [sign]int[/uint > 0]"),
    ("1/000", "weight '1/000' is not [sign]int[/uint > 0]"),
])
def test_weight_reads_only_a_grammar_rational(tmp_path, capsys, weight, message):
    # Fraction(text) would build 10^999999999 in full, or raise outside
    # ParseError on a zero denominator.
    bad = tmp_path / "weight.mdf"
    bad.write_text("[header]\nmodules = 1\n\n[labels]\n"
                   f"0 a weight={weight}\n\n[S]\n0 0 1\n")
    start = time.perf_counter()
    code = main(["validate", str(bad)])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: line 5, offset 0: {message}\n")


def test_signed_weights_are_read():
    df = parse_file("[header]\nmodules = 3\n\n[labels]\n"
                    "0 a weight=-3/16\n1 b weight=+2\n2 c weight=49/016\n")
    assert [lab.weight for lab in df.labels] == [Fraction(-3, 16), 2, Fraction(49, 16)]


def test_caps_admit_the_shipped_and_generated_orders():
    assert MAX_ORDER == 1 << 16
    # s4 works at order 288, su(2)_k at 4(k+2), lattice data at the order of
    # E(2k) / sqrt(2k); the largest allowed order and prime still parse.
    for text in ("E(288)^5", "E(200)", "1/sqrt(32)", "1/sqrt(131042)", "E(65536)",
                 "sqrt(2404631929946112)", "2^65536", "(2/3)^-65536", "E(65536)^65535"):
        parse_expr(text)
    # 2^40 3^7: trial division ends once the cofactor is exhausted.
    assert eval_expr(parse_expr("sqrt(2404631929946112)")) == eval_expr(parse_expr("2^20*27*sqrt(3)"))
    # The module cap admits 1024 modules, twice the largest lattice k of 512.
    assert MAX_MODULES == 1 << 10
    assert parse_file("[header]\nmodules = 1024\n").modules == 1024


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
    assert df.s_entries == {key: None if t == "?" else t for key, t in entries.items()}
    values = [eval_expr(parse_expr(df.s_entries[key])) for key in [(0, 0), (0, 1), (1, 1)]]
    assert values == [3, 3, 3]


def test_serialize_writes_expressions_as_read():
    text = ("[header]\nname = m\nmodules = 2\nvacuum = 0\nscale = 1 + 2\n\n"
            "[labels]\n0 a qdim=(1)\n1 b qdim=1+0\n\n"
            "[S]\n0 0 1 + 2\n0 1 (1)\n1 0 ?\n1 1   -E(3)^2  \n")
    out = serialize(parse_file(text))
    assert "scale = 1 + 2\n" in out
    assert "0 a qdim=(1)\n1 b qdim=1+0\n" in out
    assert "0 0 1 + 2\n0 1 (1)\n1 0 ?\n1 1 -E(3)^2\n" in out
    assert serialize(parse_file(out)) == out


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


HEADER2 = "[header]\nmodules = 2\n"  # a [labels] or [S] header after it is line 3


@pytest.mark.parametrize("text, error, message", [
    ("[header\n", ParseError, "line 1, offset 0: malformed section header"),
    ("[tables]\n", ParseError, "line 1, offset 0: unknown section 'tables'"),
    ('[branching parent="p"]\n', ParseError,
     'line 1, offset 0: branching sections need parent="..." and k=...'),
    ("0 0 1\n", ParseError, "line 1, offset 0: content before any section header"),
    ("[header]\nmodules 2\n", ParseError, "line 2, offset 0: header lines are key = value"),
    ("[header]\ncolour = red\n", ParseError, "line 2, offset 0: unknown header key 'colour'"),
    ("[header]\nname = x\nmodules = 1025\n", ParseError, "line 3, offset 0: modules exceeds 1024"),
    ("[header]\nmodules = 0\n", ParseError, "line 2, offset 0: modules must be at least 1"),
    ("[header]\nname = x\nmodules = -3\n", ParseError,
     "line 3, offset 0: modules must be at least 1"),
    (HEADER2 + "[labels]\n0\n", ParseError,
     "line 4, offset 0: label lines are: index name [attrs]"),
    (HEADER2 + "[labels]\n0 vac qdim\n", ParseError,
     "line 4, offset 0: malformed label attribute 'qdim'"),
    (HEADER2 + "[labels]\n0 vac spin=0\n", ParseError,
     "line 4, offset 0: unknown label attribute 'spin'"),
    (HEADER2 + "[S]\n0 1\n", ParseError, "line 4, offset 0: S lines are: row col expr"),
    (HEADER2 + "[S]\nx 1 1\n", ParseError,
     "line 4, offset 0: invalid literal for int() with base 10: 'x'"),
    ("[fusion]\n0 x 1\n", ParseError,
     "line 2, offset 0: fusion lines are: [soft] i x j = sum [| citation]"),
    ("[fusion]\n0 * 1 = 1\n", ParseError,
     "line 2, offset 0: fusion lines are: [soft] i x j = sum [| citation]"),
    ("[fusion]\n0 x 1 = 1 +\n", ParseError, "line 2, offset 0: empty summand"),
    ("[fusion]\n0 x 1 = 0*1\n", ParseError, "line 2, offset 0: multiplicities must be positive"),
    ('[branching parent="p" k=1]\n0 1\n', ParseError,
     "line 2, offset 0: branching lines are: parent_index = sum"),
    (HEADER2 + "[labels]\n0 a\n2 b\n", IndexRangeError,
     "label indices do not cover 0..1: missing [1], out of range [2]"),
    (HEADER2 + "[labels]\n0 a dual=0\n1 b dual=2\n", IndexRangeError,
     "dual index 2 out of range for label 1"),
    (HEADER2 + '[branching parent="p" k=1]\n1 = 2\n', IndexRangeError,
     "branching target 2 out of range"),
    # S or label lines need the header's module count; files of branching
    # sections or fixtures alone need no header.
    ("[S]\n0 0 1\n", ParseError, "the header has no 'modules' key"),
    ("[header]\nname = x\n[labels]\n0 vac\n", ParseError,
     "the header has no 'modules' key"),
    # A repeated header key is rejected, not overwritten by the later line.
    ("[header]\nmodules = 1\nmodules = 2\n", DuplicateEntryError,
     "line 3: header key 'modules' declared twice"),
    ("[header]\nmodules = 1\nscale = 1/2\nscale = 2\n", DuplicateEntryError,
     "line 4: header key 'scale' declared twice"),
    # So is a second hard, or soft, line for one unordered fusion pair.
    ("[fusion]\n0 x 1 = 1\nsoft 1 x 0 = 1\n1 x 0 = 1\n", DuplicateEntryError,
     "line 4: fusion pair 1 x 0 declared twice"),
    ("[fusion]\nsoft 1 x 1 = 0\n1 x 1 = 0\nsoft 1 x 1 = 0\n", DuplicateEntryError,
     "line 4: soft fusion pair 1 x 1 declared twice"),
])
def test_malformed_lines_are_located(text, error, message):
    with pytest.raises(error) as info:
        parse_file(text)
    assert type(info.value) is error and str(info.value) == message


def test_unknown_s_entries_survive_round_trip():
    df = DatumFile(name="p", modules=2)
    df.labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    df.s_entries = {(0, 0): "1", (0, 1): "1", (1, 0): "1", (1, 1): None}
    again = parse_file(serialize(df))
    assert again.s_entries[(1, 1)] is None
    assert again == df


def test_empty_formal_sum_is_not_serialized():
    # The file syntax has no empty sum, and "0" would read back as module 0.
    df = DatumFile(name="p", modules=2)
    df.fixtures = [FixtureRecord(left=1, right=1, terms={})]
    with pytest.raises(ValueError, match="empty formal sum"):
        serialize(df)


def writable_file():
    df = DatumFile(name="s4", modules=2)
    df.labels = [ModuleLabel(0, "a"), ModuleLabel(1, "b")]
    df.branchings = [BranchingSection(parent="norm8", k=1, rows={0: {0: 1}})]
    df.fixtures = [FixtureRecord(left=1, right=1, terms={0: 1}, citation="src:7.1")]
    return df


@pytest.mark.parametrize("field, value, message", [
    # Parsing cuts "s4 #2" to "s4", "v#0" to "v", and "a b" to two fields.
    ("name", "s4 #2", "header name 's4 #2'"),
    ("name", "s4\nmodules = 9", "header name 's4\\nmodules = 9'"),
    ("name", " s4", "header name ' s4'"),
    ("label", "v#0", "label name 'v#0'"),
    ("label", "a b", "label name 'a b'"),
    ("label", "a\tb", "label name 'a\\tb'"),
    ("label", "", "label name ''"),
    ("parent", 'say "hi"', "branching parent 'say \"hi\"'"),
    ("parent", "p#1", "branching parent 'p#1'"),
    ("parent", "p ", "branching parent 'p '"),
    ("citation", "src#2", "fixture citation 'src#2'"),
    ("citation", "src\r\n2", "fixture citation 'src\\r\\n2'"),
    ("citation", "src ", "fixture citation 'src '"),
    # "1 # 2" reads back as 1, "?" as an unknown, and "1 + 0" as three fields.
    ("S", "1 # 2", "S entry '1 # 2'"),
    ("S", "?", "S entry '?'"),
    ("qdim", "1 + 0", "qdim '1 + 0'"),
    ("scale", "1/2 # 3", "scale '1/2 # 3'"),
    # parse_file refuses a second hard line for 1 x 1.
    ("fixture", "src:7.2", "fusion pair 1 x 1 given twice"),
])
def test_serialize_refuses_text_it_cannot_write_back(field, value, message):
    df = writable_file()
    assert parse_file(serialize(df)) == df
    if field == "name":
        df.name = value
    elif field == "label":
        df.labels[1] = ModuleLabel(1, value)
    elif field == "parent":
        df.branchings[0].parent = value
    elif field == "S":
        df.s_entries = {(0, 0): "1", (0, 1): value, (1, 0): value}
    elif field == "qdim":
        df.qdims[1] = value
    elif field == "scale":
        df.scale_expr = value
    elif field == "fixture":
        df.fixtures.append(FixtureRecord(left=1, right=1, terms={0: 1}, citation=value))
    else:
        df.fixtures[0].citation = value
    with pytest.raises(ValueError) as info:
        serialize(df)
    assert str(info.value) == f"{message} cannot be written to a datum file"


def test_serialize_refuses_a_qdim_without_its_label():
    # A qdim= text is written on its module's label line, which must exist.
    df = writable_file()
    df.labels.pop()
    df.qdims[1] = "1"
    with pytest.raises(ValueError, match=r"qdims of modules \[1\] have no label line"):
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
# Records hold expressions as stripped text.  A qdim= label is one
# whitespace-free field of its line; S entries and the scale may hold spaces.
LEAF_TEXT = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 9), st.integers(1, 9)),
    st.builds(lambda n: f"E({n})", st.integers(1, 12)),
    st.builds(lambda n: f"sqrt({n})", st.integers(1, 12)),
)
SMALL_EXPR = st.one_of(
    LEAF_TEXT,
    st.builds(lambda a: f"-{a}", LEAF_TEXT),
    st.builds(lambda a, b: f"{a}+{b}", LEAF_TEXT, LEAF_TEXT),
    st.builds(lambda a, k: f"({a})^{k}", LEAF_TEXT, st.integers(0, 3)),
)
SPACED_EXPR = SMALL_EXPR | st.builds(lambda a, b: f"{a} - {b} * {b}", LEAF_TEXT, LEAF_TEXT)


@st.composite
def datum_files(draw):
    n = draw(st.integers(1, 4))
    df = DatumFile(name=draw(NAME_ST), modules=n)
    if draw(st.booleans()):
        df.scale_expr = draw(SPACED_EXPR)
    for i in range(n):
        df.labels.append(ModuleLabel(
            index=i, name=draw(NAME_ST),
            dual=draw(st.none() | st.integers(0, n - 1)),
            weight=draw(st.none() | st.builds(Fraction, st.integers(0, 9),
                                              st.integers(1, 9)))))
        qdim = draw(st.none() | SMALL_EXPR)
        if qdim is not None:
            df.qdims[i] = qdim
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=6))
    for cell in cells:
        df.s_entries[cell] = draw(st.none() | SPACED_EXPR)
    # A file gives each unordered pair at most one hard and one soft line.
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
                          unique_by=lambda p: (min(p[:2]), max(p[:2]), p[2]), max_size=3))
    for left, right, soft in pairs:
        terms = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                                     min_size=1, max_size=3))
        df.fixtures.append(FixtureRecord(
            left=left, right=right, terms=terms, soft=soft,
            citation=draw(st.just("") | st.just("src:demo"))))
    return df


@settings(max_examples=60, deadline=None)
@given(datum_files())
def test_file_round_trip_property(df):
    text = serialize(df)
    again = parse_file(text)
    assert again == df
    assert serialize(again) == text
