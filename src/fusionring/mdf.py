"""The modular-data file format: scalar expressions and datum files.

Datasets are plain UTF-8 text, line oriented, with ``#`` line comments and
five section kinds::

    [header]                     name/modules/vacuum/scale key-value lines
    [labels]                     index name qdim=<expr> dual=<int> weight=<rat>
    [S]                          row col <expr>      ("?" marks an unknown)
    [branching parent="g" k=9]   parent_index = k1 + 2*k3 + ...
    [fusion]                     [soft] i x j = k1 + 2*k3 + ... [| citation]

Scalar values use a small expression grammar (whitespace-insensitive)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := ('-')? atom ('^' int)?
    atom     := rational | 'E' '(' uint ')' | 'sqrt' '(' uint ')' | '(' expr ')'
    rational := int ('/' uint)?

``E(n)`` is the root of unity exp(2*pi*i/n).  Its order n, every prime factor
of m in ``sqrt(m)`` and the size of a ``^`` exponent may not exceed
``MAX_ORDER``, nor a header ``modules`` count or the 2k modules of a
branching parent ``MAX_MODULES``; uncapped, each would cost time and memory
without bound.  A rational literal like ``4/2^2`` binds the slash at the
atom level, per the grammar.  An S entry is stored as tabulated; the
optional header ``scale`` expression multiplies every entry on load so that
file text can mirror a printed table verbatim.
A ``weight=`` is ('+'|'-')? rational, its uint nonzero; a decimal or an
exponent like ``1e999999999``, which would be built in full, is refused.
The optional ``vacuum`` line must read 0, and ``modules`` at least 1.  Each
branching table is one ``BranchingSection``, which the completion takes as it
is; ``qdim=`` labels are checked by ``modular_data.datum_from_file``.  Parse
errors name the line, and a header key, label, S entry or branching row given
twice is a ``DuplicateEntryError``.

A ``DatumFile`` holds every expression as its stripped text: ``s_entries``
(``None`` for ``?``), ``qdims`` (by module index) and ``scale_expr``.
``parse_file`` parses each distinct text once, only to locate its errors, and
``serialize`` writes the texts back as read.  Syntax trees exist only between
``parse_expr`` and ``eval_expr``.  A ``ModuleLabel`` holds only label facts
(name, dual, weight); the datum uses the file's labels as they are.
Serialization is deterministic: ``parse_file(serialize(d))`` reproduces the
datum and re-serializing yields identical bytes; free text that would read
back otherwise (a ``#``, a line break, surrounding whitespace, whitespace in
a label name, ``"`` in a parent) is refused with ValueError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .cyclo import Cyclotomic, exact_sum, root_of_unity, sqrt_int

__all__ = [
    "MAX_ORDER", "MAX_MODULES", "ParseError", "DuplicateEntryError", "IndexRangeError",
    "parse_expr", "eval_expr",
    "ModuleLabel", "FixtureRecord", "BranchingSection", "DatumFile",
    "parse_file", "serialize", "format_formal_sum", "check_fixture_range",
]


class ParseError(ValueError):
    """Malformed expression or file; carries the byte offset and, in a file, the line."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.line = line

    def __str__(self) -> str:
        where = f"line {self.line}, " if self.line is not None else ""
        return f"{where}offset {self.offset}: {self.message}"


class DuplicateEntryError(ValueError):
    pass


class IndexRangeError(IndexError):
    pass


# -- scalar expressions ----------------------------------------------------

# The largest order of E(n) and the largest prime factor of m in sqrt(m).
MAX_ORDER = 1 << 16
# The most modules a datum may have; it holds modules^2 S entries.
MAX_MODULES = 1 << 10


def _largest_prime_factor(m: int) -> int:
    """The largest prime factor of m >= 1 (1 for m = 1), or some number above
    MAX_ORDER when one exceeds it; trial division stops at MAX_ORDER."""
    largest, p = 1, 2
    while p <= MAX_ORDER and p * p <= m:
        if m % p == 0:
            largest = p
            while m % p == 0:
                m //= p
        p += 1
    return max(largest, m)


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(sqrt|E)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, val, off = self.next()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", off)

    def parse(self):
        node = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError("trailing input", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "*/":
                self.next()
                rhs = self.factor()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "sym" and val == "-":
            self.next()
            negate = True
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            offset = self.peek()[2]
            exponent = self.int_literal(signed=True)
            if abs(exponent) > MAX_ORDER:
                raise ParseError(f"exponent exceeds {MAX_ORDER}", offset)
            node = ("pow", node, exponent)
        if negate:
            node = ("neg", node)
        return node

    def int_literal(self, signed: bool = False) -> int:
        kind, val, off = self.next()
        sign = 1
        if signed and kind == "sym" and val == "-":
            sign = -1
            kind, val, off = self.next()
        if kind != "int":
            raise ParseError("expected an integer", off)
        return sign * val

    def atom(self):
        kind, val, off = self.next()
        if kind == "int":
            # A rational literal greedily takes '/ uint' at the atom level.
            k2, v2, _ = self.peek()
            if k2 == "sym" and v2 == "/":
                k3, v3, _ = self.tokens[self.pos + 1]
                if k3 == "int":
                    self.next()
                    self.next()
                    if v3 == 0:
                        raise ParseError("zero denominator", off)
                    return ("rat", Fraction(val, v3))
            return ("rat", Fraction(val))
        if kind == "name":
            self.expect_sym("(")
            arg = self.int_literal()
            self.expect_sym(")")
            if val == "E":
                if arg < 1:
                    raise ParseError("E() needs a positive order", off)
                if arg > MAX_ORDER:
                    raise ParseError(f"E() order exceeds {MAX_ORDER}", off)
                return ("E", arg)
            if arg < 1:
                raise ParseError("sqrt() needs a positive integer", off)
            if _largest_prime_factor(arg) > MAX_ORDER:
                raise ParseError(f"sqrt() argument has a prime factor above {MAX_ORDER}", off)
            return ("sqrt", arg)
        if kind == "sym" and val == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        raise ParseError("expected a value", off)


def parse_expr(text: str):
    """Parse a scalar expression into its syntax tree."""
    return _ExprParser(text).parse()


def eval_expr(node) -> Cyclotomic:
    """Evaluate a syntax tree to an exact cyclotomic value."""
    op = node[0]
    if op == "rat":
        return Cyclotomic.from_rational(node[1])
    if op == "E":
        return root_of_unity(node[1])
    if op == "sqrt":
        return sqrt_int(node[1])
    if op == "neg":
        return -eval_expr(node[1])
    if op == "pow":
        if node[1][0] == "E":
            return root_of_unity(node[1][1], node[2])
        return eval_expr(node[1]) ** node[2]
    if op in ("add", "sub"):
        return exact_sum(_summands(node, False))
    a = eval_expr(node[1])
    b = eval_expr(node[2])
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown node {op!r}")


def _summands(node, negate: bool):
    """The signed terms of a chain of additions and subtractions."""
    op = node[0]
    if op in ("add", "sub"):
        yield from _summands(node[1], negate)
        yield from _summands(node[2], negate != (op == "sub"))
    else:
        value = eval_expr(node)
        yield -value if negate else value


# -- datum files -----------------------------------------------------------

@dataclass(frozen=True)
class ModuleLabel:
    """A module's label facts: its name, its dual k' and its conformal weight."""
    index: int
    name: str
    dual: int | None = None
    weight: Fraction | None = None


@dataclass
class FixtureRecord:
    left: int
    right: int
    terms: dict[int, int]
    soft: bool = False
    citation: str = ""


@dataclass
class BranchingSection:
    parent: str
    k: int
    rows: dict[int, dict[int, int]] = field(default_factory=dict)


@dataclass
class DatumFile:
    name: str = ""
    modules: int = 0
    scale_expr: str | None = None
    labels: list[ModuleLabel] = field(default_factory=list)
    s_entries: dict[tuple[int, int], str | None] = field(default_factory=dict)
    qdims: dict[int, str] = field(default_factory=dict)
    fixtures: list[FixtureRecord] = field(default_factory=list)
    branchings: list[BranchingSection] = field(default_factory=list)


_SECTION_RE = re.compile(r"\[(\w+)((?:\s+\w+=(?:\"[^\"]*\"|\S+))*)\s*\]$")
_ATTR_RE = re.compile(r"(\w+)=(\"[^\"]*\"|\S+)")
_WEIGHT_RE = re.compile(r"([+-]?\d+)(?:/(\d*[1-9]\d*))?")  # no zero denominator


def _parse_sum(text: str, line_no: int) -> dict[int, int]:
    """Parse ``k1 + 2*k3 + ...`` into an index -> multiplicity map."""
    out: dict[int, int] = {}
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece:
            raise ParseError("empty summand", 0, line_no)
        if "*" in piece:
            mult_s, _, idx_s = piece.partition("*")
            mult, idx = int(mult_s), int(idx_s)
        else:
            mult, idx = 1, int(piece)
        if mult <= 0:
            raise ParseError("multiplicities must be positive", 0, line_no)
        out[idx] = out.get(idx, 0) + mult
    return out


def format_formal_sum(terms: dict[int, int], names: list[str] | None = None) -> str:
    """Render ``k1 + 2*k3 + ...`` (module names in place of indices if given); "0" if empty."""
    parts = []
    for idx in sorted(terms):
        m = terms[idx]
        label = names[idx] if names is not None else str(idx)
        parts.append(label if m == 1 else f"{m}*{label}")
    return " + ".join(parts) if parts else "0"


def _sum_text(terms: dict[int, int]) -> str:
    """A formal sum in file syntax, which has no empty sum: "0" reads as module 0."""
    if not terms:
        raise ValueError("an empty formal sum cannot be written to a datum file")
    return format_formal_sum(terms)


def _written(text: str, what: str, forbidden: str = "#", one_word: bool = False) -> str:
    """Free text as a datum file line holds it; ValueError where parsing would
    read it back otherwise: it cuts lines at ``#`` and at line breaks, strips
    their ends and, on a label line, splits fields at whitespace."""
    if (text != text.strip() or len(text.splitlines()) > 1
            or any(c in forbidden for c in text) or one_word and text.split() != [text]):
        raise ValueError(f"{what} {text!r} cannot be written to a datum file")
    return text


def parse_file(text: str) -> DatumFile:
    """Parse datum file text; raises ParseError / DuplicateEntryError / IndexRangeError."""
    datum = DatumFile()
    section = None
    branching: BranchingSection | None = None
    seen_keys: set[str] = set()
    seen_labels: set[int] = set()

    @lru_cache(maxsize=None)
    def checked(text: str) -> str:
        parse_expr(text)  # once per distinct text; raises with the offset
        return text

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                m = _SECTION_RE.match(line)
                if m is None:
                    raise ParseError("malformed section header", 0, line_no)
                section = m.group(1)
                if section == "branching":
                    attrs = dict(_ATTR_RE.findall(m.group(2)))
                    if "parent" not in attrs or "k" not in attrs:
                        raise ParseError('branching sections need parent="..." and k=...', 0, line_no)
                    branching = BranchingSection(parent=attrs["parent"].strip('"'),
                                                 k=int(attrs["k"]))
                    datum.branchings.append(branching)
                elif section not in ("header", "labels", "S", "fusion"):
                    raise ParseError(f"unknown section {section!r}", 0, line_no)
                continue
            if section == "header":
                key, eq, value = line.partition("=")
                if not eq:
                    raise ParseError("header lines are key = value", 0, line_no)
                key, value = key.strip(), value.strip()
                if key in seen_keys:
                    raise DuplicateEntryError(f"line {line_no}: header key {key!r} declared twice")
                seen_keys.add(key)
                if key == "name":
                    datum.name = value
                elif key == "modules":
                    datum.modules = int(value)
                    if datum.modules < 1:
                        raise ParseError("modules must be at least 1", 0, line_no)
                    if datum.modules > MAX_MODULES:
                        raise ParseError(f"modules exceeds {MAX_MODULES}", 0, line_no)
                elif key == "vacuum":
                    if int(value) != 0:
                        raise ParseError("vacuum must be 0: module 0 is the vacuum", 0, line_no)
                elif key == "scale":
                    datum.scale_expr = checked(value)
                else:
                    raise ParseError(f"unknown header key {key!r}", 0, line_no)
            elif section == "labels":
                fields = line.split()
                if len(fields) < 2:
                    raise ParseError("label lines are: index name [attrs]", 0, line_no)
                index, facts = int(fields[0]), {}
                for attr in fields[2:]:
                    key, eq, value = attr.partition("=")
                    if not eq:
                        raise ParseError(f"malformed label attribute {attr!r}", 0, line_no)
                    if key == "qdim":
                        datum.qdims[index] = checked(value)
                    elif key == "dual":
                        facts["dual"] = int(value)
                    elif key == "weight":
                        m = _WEIGHT_RE.fullmatch(value)
                        if m is None:
                            raise ParseError(f"weight {value!r} is not [sign]int[/uint > 0]",
                                             0, line_no)
                        facts["weight"] = Fraction(int(m.group(1)), int(m.group(2) or 1))
                    else:
                        raise ParseError(f"unknown label attribute {key!r}", 0, line_no)
                if index in seen_labels:
                    raise DuplicateEntryError(f"line {line_no}: label {index} declared twice")
                seen_labels.add(index)
                datum.labels.append(ModuleLabel(index, fields[1], **facts))
            elif section == "S":
                fields = line.split(None, 2)
                if len(fields) != 3:
                    raise ParseError("S lines are: row col expr", 0, line_no)
                row, col = int(fields[0]), int(fields[1])
                key = (row, col)
                if key in datum.s_entries:
                    raise DuplicateEntryError(f"line {line_no}: S entry {key} declared twice")
                datum.s_entries[key] = None if fields[2] == "?" else checked(fields[2])
            elif section == "fusion":
                body, _, citation = line.partition("|")
                body = body.strip()
                soft = body.startswith("soft ")
                if soft:
                    body = body[5:].strip()
                left_s, x, rest = body.partition(" x ")
                if not x or "=" not in rest:
                    raise ParseError("fusion lines are: [soft] i x j = sum [| citation]", 0, line_no)
                right_s, _, sum_s = rest.partition("=")
                datum.fixtures.append(FixtureRecord(
                    left=int(left_s), right=int(right_s),
                    terms=_parse_sum(sum_s, line_no),
                    soft=soft, citation=citation.strip()))
            elif section == "branching":
                idx_s, eq, sum_s = line.partition("=")
                if not eq:
                    raise ParseError("branching lines are: parent_index = sum", 0, line_no)
                idx = int(idx_s)
                if idx in branching.rows:
                    raise DuplicateEntryError(f"line {line_no}: branching row {idx} declared twice")
                branching.rows[idx] = _parse_sum(sum_s, line_no)
            else:
                raise ParseError("content before any section header", 0, line_no)
        except ParseError as exc:
            exc.line = line_no  # expression errors know only their offset
            raise
        except DuplicateEntryError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), 0, line_no) from exc
    if (datum.s_entries or datum.labels) and not datum.modules:
        raise ParseError("the header has no 'modules' key", 0)
    _check_ranges(datum)
    return datum


def _check_ranges(datum: DatumFile) -> None:
    n = datum.modules
    for br in datum.branchings:
        if br.k < 1:
            raise IndexRangeError(f"branching parent {br.parent!r}: k={br.k} is not positive")
        if 2 * br.k > MAX_MODULES:
            raise IndexRangeError(f"branching parent {br.parent!r}: 2k = {2 * br.k} modules "
                                  f"exceeds {MAX_MODULES}")
        for parent_idx in br.rows:
            if not 0 <= parent_idx < 2 * br.k:
                raise IndexRangeError(f"branching row {parent_idx} out of range for k={br.k}")
    for (r, c) in datum.s_entries:
        if not (0 <= r < n and 0 <= c < n):
            raise IndexRangeError(f"S entry ({r}, {c}) out of range")
    if n <= 0:
        return
    declared = {rec.index for rec in datum.labels}
    if datum.labels and declared != set(range(n)):
        missing = sorted(set(range(n)) - declared)
        extra = sorted(declared - set(range(n)))
        raise IndexRangeError(f"label indices do not cover 0..{n - 1}: "
                              f"missing {missing}, out of range {extra}")
    for rec in datum.labels:
        if rec.dual is not None and not 0 <= rec.dual < n:
            raise IndexRangeError(f"dual index {rec.dual} out of range for label {rec.index}")
    check_fixture_range(datum.fixtures, n)
    for br in datum.branchings:
        for terms in br.rows.values():
            for idx in terms:
                if not 0 <= idx < n:
                    raise IndexRangeError(f"branching target {idx} out of range")


def check_fixture_range(fixtures, size: int) -> None:
    """Raise IndexRangeError if a fusion record names a module outside 0..size-1."""
    for fx in fixtures:
        for idx in (fx.left, fx.right, *fx.terms):
            if not 0 <= idx < size:
                raise IndexRangeError(f"fusion record index {idx} out of range "
                                      f"for {size} modules")


def serialize(datum: DatumFile) -> str:
    """Deterministic text form; byte-stable under parse/serialize round trips."""
    lines = ["[header]", f"name = {_written(datum.name, 'header name')}",
             f"modules = {datum.modules}", "vacuum = 0"]
    if datum.scale_expr is not None:
        lines.append(f"scale = {datum.scale_expr}")
    unlabelled = sorted(set(datum.qdims) - {rec.index for rec in datum.labels})
    if unlabelled:
        raise ValueError(f"qdims of modules {unlabelled} have no label line to be written on")
    if datum.labels:
        lines.append("")
        lines.append("[labels]")
        for rec in sorted(datum.labels, key=lambda r: r.index):
            parts = [str(rec.index), _written(rec.name, "label name", one_word=True)]
            if rec.index in datum.qdims:
                parts.append(f"qdim={datum.qdims[rec.index]}")
            if rec.dual is not None:
                parts.append(f"dual={rec.dual}")
            if rec.weight is not None:
                parts.append(f"weight={rec.weight}")
            lines.append(" ".join(parts))
    if datum.s_entries:
        lines.append("")
        lines.append("[S]")
        for (r, c) in sorted(datum.s_entries):
            text = datum.s_entries[(r, c)]
            lines.append(f"{r} {c} {'?' if text is None else text}")
    for br in datum.branchings:
        lines.append("")
        parent = _written(br.parent, "branching parent", '#"')
        lines.append(f'[branching parent="{parent}" k={br.k}]')
        for idx in sorted(br.rows):
            lines.append(f"{idx} = {_sum_text(br.rows[idx])}")
    if datum.fixtures:
        lines.append("")
        lines.append("[fusion]")
        for fx in datum.fixtures:
            prefix = "soft " if fx.soft else ""
            line = f"{prefix}{fx.left} x {fx.right} = {_sum_text(fx.terms)}"
            if fx.citation:
                line += f" | {_written(fx.citation, 'fixture citation')}"
            lines.append(line)
    return "\n".join(lines) + "\n"
