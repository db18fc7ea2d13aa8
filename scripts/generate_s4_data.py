#!/usr/bin/env python3
"""Regenerate the shipped orbifold dataset files under src/fusionring/data/.

The tables below are transcribed from the source document (its S-matrix
tables, module classification, branching identifications, and recorded
fusion products); ``src:`` tags on fixture lines index the numbered
statements they come from.  Before writing anything the script audits the
transcription; the audits raise, never ``assert``, so ``python -O`` runs them:

  * a blank 28-module S-matrix is completed from the branching tables and
    the parent lattice S-matrices alone, and every tabulated S entry must
    equal that completion (``audit`` exits naming each cell that differs;
    a column 0 that contradicts QDIMS is refused on load, by the ``qdim=``
    labels);
  * the fixture list must cover each unordered module pair exactly once.

Fixture lines the exact fusion computation refutes are marked ``soft`` (see
SOFT_PAIRS and DATA_NOTES.txt); they are excluded from hard regression but
still reported.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fusionring import mdf
from fusionring.branching import complete
from fusionring.mdf import BranchingSection, DatumFile, FixtureRecord, ModuleLabel
from fusionring.modular_data import ModularDatum, datum_from_file

DATA_DIR = ROOT / "src" / "fusionring" / "data"
HEADER = ("# Generated by scripts/generate_s4_data.py; do not edit by hand.\n"
          "# src: tags index numbered statements of the source document;\n"
          "# see DATA_NOTES.txt for known blemishes and soft fixtures.\n")

QDIMS = [1, 1, 2, 3, 3, 2, 2, 4, 6, 6, 6, 6,
         8, 8, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6, 6, 6, 12, 12]
WEIGHTS = {8: "1/16", 9: "49/16"}
COSETS_18 = [1, 2, 4, 5, 7, 8]        # modules 12..17 <-> norm-18 cosets r
COSETS_32 = [1, 3, 5, 7, 9, 11, 13, 15]  # modules 18..25 <-> norm-32 cosets s


def pair18(j: int) -> str:
    j = j % 18
    j = min(j, 18 - j)
    assert j in COSETS_18, j
    return f"4/3*(E(18)^{j}+E(18)^{18 - j})"


def pair16(j: int) -> str:
    j = j % 16
    j = min(j, 16 - j)
    assert j in (1, 3, 5, 7), j
    return f"E(16)^{j}+E(16)^{16 - j}"


def pair32(j: int) -> str:
    j = j % 32
    j = min(j, 32 - j)
    assert j in COSETS_32, j
    return f"E(32)^{j}+E(32)^{32 - j}"


S2, N2 = "sqrt(2)", "-sqrt(2)"

# sqrt(32)*S, tabulated columns 0, 8..11, 12..17 for every row.
COLS_1 = [0, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]
TABLE_1 = [
    ["1/6", "1", "1", "1", "1", "4/3", "4/3", "4/3", "4/3", "4/3", "4/3"],
    ["1/6", "1", "1", "1", "1", "4/3", "4/3", "4/3", "4/3", "4/3", "4/3"],
    ["1/3", "2", "2", "2", "2", "-4/3", "-4/3", "-4/3", "-4/3", "-4/3", "-4/3"],
    ["1/2", "-1", "-1", "-1", "-1", "0", "0", "0", "0", "0", "0"],
    ["1/2", "-1", "-1", "-1", "-1", "0", "0", "0", "0", "0", "0"],
    ["1/3", "0", "0", "0", "0", "4/3", "-4/3", "-4/3", "4/3", "4/3", "-4/3"],
    ["1/3", "0", "0", "0", "0", "4/3", "-4/3", "-4/3", "4/3", "4/3", "-4/3"],
    ["2/3", "0", "0", "0", "0", "-4/3", "4/3", "4/3", "-4/3", "-4/3", "4/3"],
    ["1", S2, S2, N2, N2, "0", "0", "0", "0", "0", "0"],
    ["1", S2, S2, N2, N2, "0", "0", "0", "0", "0", "0"],
    ["1", N2, N2, S2, S2, "0", "0", "0", "0", "0", "0"],
    ["1", N2, N2, S2, S2, "0", "0", "0", "0", "0", "0"],
    ["4/3", "0", "0", "0", "0", pair18(1), pair18(2), pair18(4), pair18(5), pair18(7), pair18(8)],
    ["4/3", "0", "0", "0", "0", pair18(2), pair18(4), pair18(8), pair18(8), pair18(4), pair18(2)],
    ["4/3", "0", "0", "0", "0", pair18(4), pair18(8), pair18(2), pair18(2), pair18(8), pair18(4)],
    ["4/3", "0", "0", "0", "0", pair18(5), pair18(8), pair18(2), pair18(7), pair18(1), pair18(4)],
    ["4/3", "0", "0", "0", "0", pair18(7), pair18(4), pair18(8), pair18(1), pair18(5), pair18(2)],
    ["4/3", "0", "0", "0", "0", pair18(8), pair18(2), pair18(4), pair18(4), pair18(2), pair18(8)],
    ["1", pair16(1), pair16(7), pair16(3), pair16(5), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(3), pair16(5), pair16(7), pair16(1), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(5), pair16(3), pair16(1), pair16(7), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(7), pair16(1), pair16(5), pair16(3), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(7), pair16(1), pair16(5), pair16(3), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(5), pair16(3), pair16(1), pair16(7), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(3), pair16(5), pair16(7), pair16(1), "0", "0", "0", "0", "0", "0"],
    ["1", pair16(1), pair16(7), pair16(3), pair16(5), "0", "0", "0", "0", "0", "0"],
    ["2", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["2", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
]

COLS_2 = [18, 19, 20, 21, 22, 23, 24, 25, 26, 27]
TABLE_2 = [
    ["1", "1", "1", "1", "1", "1", "1", "1", "2", "2"],
    ["-1", "-1", "-1", "-1", "-1", "-1", "-1", "-1", "-2", "-2"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["1", "1", "1", "1", "1", "1", "1", "1", "-2", "-2"],
    ["-1", "-1", "-1", "-1", "-1", "-1", "-1", "-1", "2", "2"],
    [S2, N2, N2, S2, S2, N2, N2, S2, "0", "0"],
    [N2, S2, S2, N2, N2, S2, S2, N2, "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    [pair16(1), pair16(3), pair16(5), pair16(7), pair16(7), pair16(5), pair16(3), pair16(1), "0", "0"],
    [pair16(7), pair16(5), pair16(3), pair16(1), pair16(1), pair16(3), pair16(5), pair16(7), "0", "0"],
    [pair16(3), pair16(7), pair16(1), pair16(5), pair16(5), pair16(1), pair16(7), pair16(3), "0", "0"],
    [pair16(5), pair16(1), pair16(7), pair16(3), pair16(3), pair16(7), pair16(1), pair16(5), "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    [pair32(1), pair32(3), pair32(5), pair32(7), pair32(9), pair32(11), pair32(13), pair32(15), "0", "0"],
    [pair32(3), pair32(9), pair32(15), pair32(11), pair32(5), pair32(1), pair32(7), pair32(13), "0", "0"],
    [pair32(5), pair32(15), pair32(7), pair32(3), pair32(13), pair32(9), pair32(1), pair32(11), "0", "0"],
    [pair32(7), pair32(11), pair32(3), pair32(15), pair32(1), pair32(13), pair32(5), pair32(9), "0", "0"],
    [pair32(9), pair32(5), pair32(13), pair32(1), pair32(15), pair32(3), pair32(11), pair32(7), "0", "0"],
    [pair32(11), pair32(1), pair32(9), pair32(13), pair32(3), pair32(7), pair32(15), pair32(5), "0", "0"],
    [pair32(13), pair32(7), pair32(1), pair32(5), pair32(11), pair32(15), pair32(9), pair32(3), "0", "0"],
    [pair32(15), pair32(13), pair32(11), pair32(9), pair32(7), pair32(5), pair32(3), pair32(1), "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "2*sqrt(2)", "-2*sqrt(2)"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "-2*sqrt(2)", "2*sqrt(2)"],
]

# Structural cross-check values for the symbol tables.
for a, r in enumerate(COSETS_18):
    for b, rp in enumerate(COSETS_18):
        assert TABLE_1[12 + a][5 + b] == pair18(r * rp), (r, rp)
for a, s in enumerate(COSETS_32):
    for b, sp in enumerate(COSETS_32):
        assert TABLE_2[18 + a][b] == pair32(s * sp), (s, sp)
    assert TABLE_2[8][a] == pair16(s) and TABLE_2[9][a] == pair16(7 * s)
    assert TABLE_2[10][a] == pair16(3 * s) and TABLE_2[11][a] == pair16(5 * s)


def mirror(rows: dict[int, dict[int, int]], n: int) -> dict[int, dict[int, int]]:
    """Extend coset decompositions through the identification j ~ n - j."""
    out = dict(rows)
    for j in range(1, n):
        if j not in out:
            out[j] = dict(rows[n - j])
    return out


NORM32_ROWS = mirror({
    0: {0: 1, 2: 1, 3: 1},
    1: {18: 1}, 2: {8: 1}, 3: {19: 1}, 4: {5: 1, 7: 1},
    5: {20: 1}, 6: {10: 1}, 7: {21: 1}, 8: {3: 1, 4: 1},
    9: {22: 1}, 10: {11: 1}, 11: {23: 1}, 12: {6: 1, 7: 1},
    13: {24: 1}, 14: {9: 1}, 15: {25: 1}, 16: {1: 1, 2: 1, 4: 1},
}, 32)
NORM18_ROWS = mirror({
    0: {0: 1, 1: 1, 3: 1, 4: 1},
    1: {12: 1}, 2: {13: 1}, 3: {5: 1, 6: 1, 7: 1}, 4: {14: 1},
    5: {15: 1}, 6: {2: 1, 3: 1, 4: 1}, 7: {16: 1}, 8: {17: 1},
    9: {7: 2},
}, 18)
NORM8_ROWS = mirror({
    0: {0: 1, 2: 1, 3: 1, 4: 2},
    1: {26: 1}, 2: {5: 1, 6: 1, 7: 2}, 3: {27: 1},
    4: {1: 1, 2: 1, 3: 2, 4: 1},
}, 8)


# -- fixtures -----------------------------------------------------------------

# Pairs whose recorded lines the exact computation refutes or whose printed
# labels are corrupt; kept out of hard regression.  See DATA_NOTES.txt.
SOFT_PAIRS = {
    # src:7.2(29) lower half: duplicated "+" labels; recorded under the only
    # consistent reading (second factor of the pair family).
    (6, 19), (6, 21), (6, 23), (6, 25),
    # src:7.1(4): the sixth row-module's list breaks the parity pattern of
    # the other five; the exact tensor refutes these six lines.
    (17, 20), (17, 21), (17, 22), (17, 23), (17, 24), (17, 25),
    # src:7.2(36) first four families: the relabeling exponent appears with
    # the opposite sign; refuted lines.
    (15, 15), (16, 16), (12, 15), (12, 16),
    (14, 14), (17, 17), (13, 14), (13, 17),
}

_fixtures: dict[tuple[int, int], FixtureRecord] = {}


def add(i: int, j: int, terms: dict[int, int], cite: str) -> None:
    key = (min(i, j), max(i, j))
    if key in _fixtures:
        raise SystemExit(f"duplicate fixture {key}")
    assert all(m in (1, 2) for m in terms.values()), (key, terms)
    _fixtures[key] = FixtureRecord(left=key[0], right=key[1],
                                   terms=dict(sorted(terms.items())),
                                   soft=key in SOFT_PAIRS, citation=cite)


def ones(*indices: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for idx in indices:
        out[idx] = out.get(idx, 0) + 1
    return out


def m32(s: int) -> int:
    """Module index of the odd norm-32 coset s, folding s ~ 32 - s."""
    s = s % 32
    s = min(s, 32 - s)
    return 18 + COSETS_32.index(s)


def m18(r: int) -> int:
    """Module index of the norm-18 coset r, folding r ~ 18 - r."""
    r = r % 18
    r = min(r, 18 - r)
    return 12 + COSETS_18.index(r)


def build_fixtures() -> list[FixtureRecord]:
    _fixtures.clear()
    # src:7.1(1)
    for a in (8, 9, 10, 11):
        for b in range(12, 18):
            add(a, b, ones(12, 13, 14, 15, 16, 17), "src:7.1(1)")
    # src:7.1(2)
    table_71_2 = {
        8: {18: (18, 19), 19: (18, 20), 20: (19, 21), 21: (20, 22),
            22: (21, 23), 23: (22, 24), 24: (23, 25), 25: (24, 25)},
        9: {18: (24, 25), 19: (23, 25), 20: (22, 24), 21: (21, 23),
            22: (20, 22), 23: (19, 21), 24: (18, 20), 25: (18, 19)},
        10: {18: (20, 21), 19: (19, 22), 20: (18, 23), 21: (18, 24),
             22: (19, 25), 23: (20, 25), 24: (21, 24), 25: (22, 23)},
        11: {18: (22, 23), 19: (21, 24), 20: (20, 25), 21: (19, 25),
             22: (18, 24), 23: (18, 23), 24: (19, 22), 25: (20, 21)},
    }
    for a, row in table_71_2.items():
        for b, (x, y) in row.items():
            add(a, b, ones(x, y, 26, 27), "src:7.1(2)")
    # src:7.1(3)
    for a in (8, 9, 10, 11):
        for b in (26, 27):
            add(a, b, ones(*range(18, 26), 26, 27), "src:7.1(3)")
    # src:7.1(4); the printed first group, complement gets the second sum
    group1 = {(12, 18), (12, 21), (12, 22), (12, 25),
              (13, 19), (13, 20), (13, 23), (13, 24),
              (14, 19), (14, 20), (14, 23), (14, 24),
              (15, 18), (15, 21), (15, 22), (15, 25),
              (16, 18), (16, 21), (16, 22), (16, 25),
              (17, 19), (17, 21), (17, 22), (17, 25)}
    for a in range(12, 18):
        for b in range(18, 26):
            if (a, b) in group1:
                add(a, b, ones(18, 21, 22, 25, 26, 27), "src:7.1(4)")
            else:
                add(a, b, ones(19, 20, 23, 24, 26, 27), "src:7.1(4)")
    # src:7.1(5)
    for a in range(12, 18):
        for b in (26, 27):
            add(a, b, {**ones(*range(18, 26)), 26: 2, 27: 2}, "src:7.1(5)")
    # src:7.1(6)
    for a in range(18, 26):
        for b in (26, 27):
            add(a, b, ones(8, 9, 10, 11, 12, 13, 14, 15, 16, 17), "src:7.1(6)")
    # src:7.1(7)-(8)
    add(3, 26, {26: 1, 27: 2}, "src:7.1(7)")
    add(4, 27, {26: 1, 27: 2}, "src:7.1(7)")
    add(3, 27, {26: 2, 27: 1}, "src:7.1(8)")
    add(4, 26, {26: 2, 27: 1}, "src:7.1(8)")

    # src:7.2(1)-(10): fusion with the two invertible modules
    add(0, 0, ones(0), "src:7.2(1)")
    add(0, 1, ones(1), "src:7.2(1)")
    add(1, 1, ones(0), "src:7.2(1)")
    for i in (0, 1):
        add(i, 2, ones(2), "src:7.2(2)")
        add(i, 7, ones(7), "src:7.2(5)")
    add(0, 3, ones(3), "src:7.2(3)")
    add(0, 4, ones(4), "src:7.2(3)")
    add(1, 3, ones(4), "src:7.2(3)")
    add(1, 4, ones(3), "src:7.2(3)")
    add(0, 5, ones(5), "src:7.2(4)")
    add(0, 6, ones(6), "src:7.2(4)")
    add(1, 5, ones(6), "src:7.2(4)")
    add(1, 6, ones(5), "src:7.2(4)")
    for b in (8, 9, 10, 11):
        add(0, b, ones(b), "src:7.2(6)")
    add(1, 8, ones(9), "src:7.2(6)")
    add(1, 9, ones(8), "src:7.2(6)")
    add(1, 10, ones(11), "src:7.2(6)")
    add(1, 11, ones(10), "src:7.2(6)")
    for b in range(12, 18):
        add(0, b, ones(b), "src:7.2(7)")
        add(1, b, ones(b), "src:7.2(7)")
    for s in COSETS_32:
        add(0, m32(s), ones(m32(s)), "src:7.2(8)")
        add(1, m32(s), ones(m32(16 - s)), "src:7.2(9)")
    add(0, 26, ones(26), "src:7.2(10)")
    add(0, 27, ones(27), "src:7.2(10)")
    add(1, 26, ones(27), "src:7.2(10)")
    add(1, 27, ones(26), "src:7.2(10)")

    # src:7.2(11)-(18): fusion with module 2
    add(2, 2, ones(0, 1, 2), "src:7.2(11)")
    add(2, 3, ones(3, 4), "src:7.2(12)")
    add(2, 4, ones(3, 4), "src:7.2(12)")
    add(2, 5, ones(7), "src:7.2(13)")
    add(2, 6, ones(7), "src:7.2(13)")
    add(2, 7, ones(5, 6, 7), "src:7.2(14)")
    add(2, 8, ones(8, 9), "src:7.2(15)")
    add(2, 9, ones(8, 9), "src:7.2(15)")
    add(2, 10, ones(10, 11), "src:7.2(15)")
    add(2, 11, ones(10, 11), "src:7.2(15)")
    for r in COSETS_18:
        add(2, m18(r), ones(m18(5 * r), m18(7 * r)), "src:7.2(16)")
    for s in COSETS_32:
        add(2, m32(s), ones(m32(s), m32(16 - s)), "src:7.2(17)")
    add(2, 26, ones(26, 27), "src:7.2(18)")
    add(2, 27, ones(26, 27), "src:7.2(18)")

    # src:7.2(19)-(24): fusion with modules 3, 4
    add(3, 3, ones(0, 2, 3, 4), "src:7.2(19)")
    add(3, 4, ones(1, 2, 3, 4), "src:7.2(19)")
    add(4, 4, ones(0, 2, 3, 4), "src:7.2(19)")
    add(3, 5, ones(5, 7), "src:7.2(20)")
    add(3, 6, ones(6, 7), "src:7.2(20)")
    add(4, 5, ones(6, 7), "src:7.2(20)")
    add(4, 6, ones(5, 7), "src:7.2(20)")
    add(3, 7, {5: 1, 6: 1, 7: 2}, "src:7.2(21)")
    add(4, 7, {5: 1, 6: 1, 7: 2}, "src:7.2(21)")
    add(3, 8, ones(8, 10, 11), "src:7.2(22)")
    add(3, 9, ones(9, 10, 11), "src:7.2(22)")
    add(4, 8, ones(9, 10, 11), "src:7.2(22)")
    add(4, 9, ones(8, 10, 11), "src:7.2(22)")
    add(3, 10, ones(10, 8, 9), "src:7.2(22)")
    add(3, 11, ones(11, 8, 9), "src:7.2(22)")
    add(4, 10, ones(11, 8, 9), "src:7.2(22)")
    add(4, 11, ones(10, 8, 9), "src:7.2(22)")
    for a in (3, 4):
        for r in COSETS_18:
            if r % 2 == 1:
                add(a, m18(r), ones(12, 15, 16), "src:7.2(23)")
            else:
                add(a, m18(r), ones(13, 14, 17), "src:7.2(23)")
    table_72_24 = {
        (3, 1): (1, 7, 9), (3, 3): (3, 5, 11), (3, 5): (3, 5, 13),
        (3, 7): (1, 7, 15), (3, 9): (1, 9, 15), (3, 11): (3, 11, 13),
        (3, 13): (5, 11, 13), (3, 15): (7, 9, 15),
        (4, 1): (7, 9, 15), (4, 3): (5, 11, 13), (4, 5): (3, 11, 13),
        (4, 7): (1, 9, 15), (4, 9): (1, 7, 15), (4, 11): (3, 5, 13),
        (4, 13): (3, 5, 11), (4, 15): (1, 7, 9),
    }
    for (a, s), channels in table_72_24.items():
        add(a, m32(s), ones(*(m32(c) for c in channels)), "src:7.2(24)")

    # src:7.2(25)-(30): fusion with modules 5, 6
    add(5, 5, ones(0, 3), "src:7.2(25)")
    add(5, 6, ones(1, 4), "src:7.2(25)")
    add(6, 6, ones(0, 3), "src:7.2(25)")
    add(5, 7, ones(2, 3, 4), "src:7.2(26)")
    add(6, 7, ones(2, 3, 4), "src:7.2(26)")
    add(5, 8, ones(10, 8), "src:7.2(27)")
    add(5, 9, ones(11, 9), "src:7.2(27)")
    add(5, 10, ones(11, 8), "src:7.2(27)")
    add(5, 11, ones(10, 9), "src:7.2(27)")
    add(6, 8, ones(11, 9), "src:7.2(27)")
    add(6, 9, ones(10, 8), "src:7.2(27)")
    add(6, 10, ones(10, 9), "src:7.2(27)")
    add(6, 11, ones(11, 8), "src:7.2(27)")
    for a in (5, 6):
        for r in COSETS_18:
            add(a, m18(r), ones(m18(3 + r), m18(3 - r)), "src:7.2(28)")
    upper_72_29 = {1: (3, 5), 3: (1, 7), 5: (1, 9), 7: (3, 11),
                   9: (5, 13), 11: (7, 15), 13: (9, 15), 15: (11, 13)}
    for s, (x, y) in upper_72_29.items():
        add(5, m32(s), ones(m32(x), m32(y)), "src:7.2(29)")
    lower_72_29 = {1: (11, 13), 3: (9, 15), 5: (7, 15), 7: (5, 13),
                   9: (3, 11), 11: (1, 9), 13: (1, 7), 15: (3, 5)}
    for s, (x, y) in lower_72_29.items():
        add(6, m32(s), ones(m32(x), m32(y)), "src:7.2(29)")
    for a in (5, 6):
        for b in (26, 27):
            add(a, b, ones(26, 27), "src:7.2(30)")

    # src:7.2(31)-(34): fusion with module 7
    add(7, 7, {0: 1, 1: 1, 2: 1, 3: 2, 4: 2}, "src:7.2(31)")
    for b in (8, 9, 10, 11):
        add(7, b, ones(8, 9, 10, 11), "src:7.2(32)")
    table_72_33 = {1: {2: 1, 4: 1, 8: 2}, 2: {1: 1, 5: 1, 7: 2},
                   4: {1: 1, 5: 2, 7: 1}, 5: {2: 1, 4: 2, 8: 1},
                   7: {2: 2, 4: 1, 8: 1}, 8: {1: 2, 5: 1, 7: 1}}
    for r, channels in table_72_33.items():
        add(7, m18(r), {m18(c): m for c, m in channels.items()}, "src:7.2(33)")
    for s in COSETS_32:
        if s in (1, 7, 9, 15):
            add(7, m32(s), ones(19, 20, 23, 24), "src:7.2(34)")
        else:
            add(7, m32(s), ones(18, 21, 22, 25), "src:7.2(34)")

    # src:7.2(35): products of modules 8..11 (pm channels expanded to all four)
    four = ones(8, 9, 10, 11)
    add(8, 8, {**ones(5, 7, 0, 2, 3), **four}, "src:7.2(35)")
    add(8, 9, {**ones(6, 7, 1, 2, 4), **four}, "src:7.2(35)")
    add(9, 9, {**ones(5, 7, 0, 2, 3), **four}, "src:7.2(35)")
    add(10, 10, {**ones(6, 7, 0, 2, 3), **four}, "src:7.2(35)")
    add(10, 11, {**ones(5, 7, 1, 2, 4), **four}, "src:7.2(35)")
    add(11, 11, {**ones(6, 7, 0, 2, 3), **four}, "src:7.2(35)")
    add(8, 10, {**ones(5, 7, 3, 4), **four}, "src:7.2(35)")
    add(8, 11, {**ones(6, 7, 3, 4), **four}, "src:7.2(35)")
    add(9, 10, {**ones(6, 7, 3, 4), **four}, "src:7.2(35)")
    add(9, 11, {**ones(5, 7, 3, 4), **four}, "src:7.2(35)")

    # src:7.2(36): products among modules 12..17, transcribed as printed.
    w1 = {0: 12, 1: 15, 2: 16}   # first family by superscript
    w2 = {0: 13, 1: 14, 2: 17}   # second family by superscript
    for k in range(3):
        for l in range(k, 3):
            if k == l:
                extra = ones(0, 1, 3, 4)
            else:
                extra = ones(2, 3, 4)
            add(w1[k], w1[l],
                {**ones(12, 15, 16, w2[(-k - l) % 3]), **extra, **four},
                "src:7.2(36)")
            add(w2[k], w2[l],
                {**ones(12, 15, 16, w2[(1 + k + l) % 3]), **extra, **four},
                "src:7.2(36)")
    mixed_72_36 = {
        (12, 13): ((1, 2, 4, 8), ones(5, 6, 7)),
        (12, 14): ((2, 4, 5, 8), ones(5, 6, 7)),
        (12, 17): ((2, 4, 7, 8), {7: 2}),
        (13, 15): ((2, 4, 7, 8), ones(5, 6, 7)),
        (14, 15): ((1, 2, 4, 8), {7: 2}),
        (15, 17): ((2, 4, 5, 8), ones(5, 6, 7)),
        (13, 16): ((2, 4, 5, 8), {7: 2}),
        (14, 16): ((2, 4, 7, 8), ones(5, 6, 7)),
        (16, 17): ((1, 2, 4, 8), ones(5, 6, 7)),
    }
    for (a, b), (gammas, extra) in mixed_72_36.items():
        add(a, b, {**ones(*(m18(r) for r in gammas)), **extra, **four},
            "src:7.2(36)")

    # src:7.3: products among modules 18..25, parts A + B + C combined
    part_a1 = {(18, 18), (18, 21), (18, 22), (18, 25), (19, 19), (19, 20),
               (19, 23), (19, 24), (20, 20), (20, 23), (20, 24), (21, 21),
               (21, 22), (21, 25), (22, 22), (22, 25), (23, 23), (23, 24),
               (24, 24), (25, 25)}
    part_b = {}
    for target, pairs in [
        (8, [(18, 18), (18, 19), (19, 20), (20, 21), (21, 22), (22, 23),
             (23, 24), (24, 25), (25, 25)]),
        (9, [(18, 24), (18, 25), (19, 23), (19, 25), (20, 22), (20, 24),
             (21, 21), (21, 23), (22, 22)]),
        (10, [(18, 20), (18, 21), (19, 19), (19, 22), (20, 23), (21, 24),
              (22, 25), (23, 25), (24, 24)]),
        (11, [(18, 22), (18, 23), (19, 21), (19, 24), (20, 25), (20, 20),
              (21, 25), (22, 24), (23, 23)]),
    ]:
        for pair in pairs:
            assert pair not in part_b, pair
            part_b[pair] = target
    part_c = {}
    for channels, pairs in [
        ((0, 2, 3), [(i, i) for i in range(18, 26)]),
        ((5, 7), [(18, 19), (18, 20), (19, 21), (20, 22), (21, 23), (22, 24),
                  (23, 25), (24, 25)]),
        ((3, 4), [(18, 21), (18, 22), (19, 20), (19, 23), (20, 24), (21, 25),
                  (22, 25), (23, 24)]),
        ((6, 7), [(18, 23), (18, 24), (19, 22), (19, 25), (20, 21), (20, 25),
                  (21, 24), (22, 23)]),
        ((1, 2, 4), [(18, 25), (19, 24), (20, 23), (21, 22)]),
    ]:
        for pair in pairs:
            assert pair not in part_c, pair
            part_c[pair] = channels
    for a in range(18, 26):
        for b in range(a, 26):
            pair = (a, b)
            assert pair in part_b and pair in part_c, pair
            part = ones(12, 15, 16) if pair in part_a1 else ones(13, 14, 17)
            add(a, b, {**part, **ones(part_b[pair]), **ones(*part_c[pair])},
                "src:7.3")

    # src:7.4
    add(7, 26, {26: 2, 27: 2}, "src:7.4(1)")
    add(7, 27, {26: 2, 27: 2}, "src:7.4(1)")
    twelve = {m: 2 for m in range(12, 18)}
    add(26, 26, {**twelve, **four, **ones(5, 6, 0, 2, 3), 7: 2, 4: 2},
        "src:7.4(2)")
    add(27, 27, {**twelve, **four, **ones(5, 6, 0, 2, 3), 7: 2, 4: 2},
        "src:7.4(2)")
    add(26, 27, {**twelve, **four, **ones(5, 6, 1, 2, 4), 7: 2, 3: 2},
        "src:7.4(2)")

    pairs = {(i, j) for i in range(28) for j in range(i, 28)}
    if set(_fixtures) != pairs:
        raise SystemExit(f"fixtures missing or out of range: {sorted(pairs ^ set(_fixtures))[:10]}")
    return [fx for _, fx in sorted(_fixtures.items())]


# -- assembly -----------------------------------------------------------------

def build_partial_datum_file() -> DatumFile:
    df = DatumFile(name="VL2-S4-orbifold", modules=28,
                   scale_expr="1/sqrt(32)")
    for i in range(28):
        weight = WEIGHTS.get(i)
        df.labels.append(ModuleLabel(
            index=i, name=f"M{i}", dual=i,
            weight=Fraction(weight) if weight else None))
        df.qdims[i] = str(QDIMS[i])
    table: dict[tuple[int, int], str] = {}
    for r in range(28):
        for c, text in zip(COLS_1, TABLE_1[r]):
            table[(r, c)] = text
        for c, text in zip(COLS_2, TABLE_2[r]):
            table[(r, c)] = text
    # Known set: every tabulated column, plus its transpose rows.
    for r in range(28):
        for c in range(28):
            if (r, c) in table:
                df.s_entries[(r, c)] = table[(r, c)]
            elif (c, r) in table:
                df.s_entries[(r, c)] = table[(c, r)]
            else:
                assert 1 <= r <= 7 and 1 <= c <= 7, (r, c)
                df.s_entries[(r, c)] = None
    unknown = [key for key, text in df.s_entries.items() if text is None]
    assert len(unknown) == 49
    return df


def build_branching_file() -> DatumFile:
    df = DatumFile(name="VL2-S4-orbifold-branching", modules=28)
    df.branchings.append(BranchingSection(parent="norm32", k=16, rows=NORM32_ROWS))
    df.branchings.append(BranchingSection(parent="norm18", k=9, rows=NORM18_ROWS))
    df.branchings.append(BranchingSection(parent="norm8", k=4, rows=NORM8_ROWS))
    return df


def build_fixture_file() -> DatumFile:
    df = DatumFile(name="VL2-S4-orbifold-fixtures", modules=28)
    df.fixtures = build_fixtures()
    return df


def audit(partial: DatumFile, branchings: DatumFile) -> None:
    """Compare every tabulated S entry with the S completed from the branching
    tables alone; exit naming the cells that differ (at most 10)."""
    tabulated = datum_from_file(partial)
    n = tabulated.size
    blank = ModularDatum(tabulated.labels, [[None] * n for _ in range(n)])
    result = complete(blank, branchings.branchings)
    known = [(r, c) for r in range(n) for c in range(n) if tabulated.known(r, c)]
    bad = [cell for cell in known if tabulated.entry(*cell) != result.datum.entry(*cell)]
    if bad:
        raise SystemExit(f"transcription audit: {len(bad)} of {len(known)} tabulated S "
                         f"entries differ from the branching-only completion: "
                         + ", ".join(f"S[{r},{c}]" for r, c in bad[:10]))
    print(f"transcription audit: {len(result.solved)} unknowns solved from the branching "
          f"tables alone; all {len(known)} tabulated entries agree")


DATA_NOTES = """\
Notes on the shipped orbifold dataset
=====================================

Provenance
----------
The tables were transcribed from the source document for the rank-1 lattice
orbifold with 28 irreducible modules.  Fixture lines carry src: tags that
index the numbered statements they were read from.  The S-matrix file stores
the tabulated values (the header scale 1/sqrt(32) is applied on load), so
its text mirrors the printed tables cell for cell.

Transcription audits (run by scripts/generate_s4_data.py)
----------------------------------------------------------
* A blank S-matrix is completed from the branching tables and the parent
  lattice S-matrices alone: the relations solve all 406 unknowns (the
  entries folded by symmetry), and all 735 tabulated entries agree with
  that completion.
* The fixture list covers each of the 406 unordered module pairs exactly
  once, which matches the recorded product statements tiling the full table.

Known blemishes in the source tables (soft fixtures)
----------------------------------------------------
The source is visibly a draft (it contains a stray editing sentence in the
fusion-rules section).  Lines that the exact computation refutes, or whose
printed labels are corrupt, are marked `soft` in s4_fixtures.mdf; they are
excluded from hard regression but still compared and reported.

1. src:7.2(29), lower half (4 fixtures: (6,19), (6,21), (6,23), (6,25)).
   Four lines repeat the "+"-superscript of the upper half where the
   "-"-superscript is the only consistent reading (as printed they would
   assign two different values to the same product).  The fixtures record
   the corrected reading; the exact computation CONFIRMS their values, so
   these four soft fixtures match.

2. src:7.1(4) (6 fixtures: (17,20) .. (17,25)).
   The printed membership list for the sixth row-module breaks the parity
   pattern obeyed by the other five row-modules.  The exact computation
   REFUTES the six affected lines: the correct first-group partners of
   module 17 are {19, 20, 23, 24}, matching modules 13 and 14.

3. src:7.2(36), first four statement families (8 fixtures: (12,15),
   (12,16), (13,14), (13,17), (14,14), (15,15), (16,16), (17,17)).
   The exponent in the relabeling term appears with the opposite sign: the
   computation shows the distinguished summand is the family-2 module with
   superscript (k+l) mod 3 in the first family (printed: (-k-l) mod 3) and
   (1-k-l) mod 3 in the second family (printed: (1+k+l) mod 3).  The eight
   diagonal/mixed cases where the two conventions differ are REFUTED as
   printed; the remaining four cases of those families agree and stay hard.

All 388 hard fixtures match the exactly computed fusion tensor.
"""


def main() -> None:
    partial = build_partial_datum_file()
    branchings = build_branching_file()
    fixtures = build_fixture_file()
    audit(partial, branchings)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "s4_partial.mdf").write_text(HEADER + mdf.serialize(partial))
    (DATA_DIR / "s4_branching.mdf").write_text(HEADER + mdf.serialize(branchings))
    (DATA_DIR / "s4_fixtures.mdf").write_text(HEADER + mdf.serialize(fixtures))
    (DATA_DIR / "DATA_NOTES.txt").write_text(DATA_NOTES)
    print(f"wrote {DATA_DIR}/s4_partial.mdf "
          f"({len(partial.s_entries)} S cells, {len(partial.labels)} labels)")
    print(f"wrote {DATA_DIR}/s4_branching.mdf ({len(branchings.branchings)} parents)")
    soft = sum(1 for fx in fixtures.fixtures if fx.soft)
    print(f"wrote {DATA_DIR}/s4_fixtures.mdf ({len(fixtures.fixtures)} fixtures, "
          f"{soft} soft)")
    print(f"wrote {DATA_DIR}/DATA_NOTES.txt")


if __name__ == "__main__":
    main()
