"""Batch command-line interface.

Subcommands: validate, complete, fuse, table, qdim, glob, lattice, regress.
Exit status: 0 success, 1 validation or fixture failure, 2 parse error,
3 underdetermined or inconsistent completion, 4 usage error, 141 (as for
SIGPIPE) when the reader of standard output goes away, e.g. ``| head -1``.

File arguments accept a path, "-" for stdin, or an @alias into the shipped
dataset: @s4 (partial datum), @s4_branching, @s4_fixtures.  Output is
deterministic: identical inputs yield byte-identical reports.
"""

# The docstring is the user's ``--help`` text.  Each command imports what it
# runs beyond ``cyclo``, ``mdf`` and ``modular_data``, which every command
# loads its files with, so a cold start imports no module the command does
# not use.

from __future__ import annotations

import argparse
import os
import sys

from .cyclo import embed, format_exact
from .mdf import (BranchingSection, DatumFile, DuplicateEntryError,
                  IndexRangeError, ParseError, check_fixture_range,
                  format_formal_sum, parse_file, serialize)
from .modular_data import (MissingEntryError, ModularDatum, NegativeResultError,
                           NonIntegerResultError, check_qdims, datum_from_file,
                           datum_to_file, glob, quantum_dimensions, validate)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_COMPLETION = 3
EXIT_USAGE = 4
EXIT_PIPE = 141

_ALIASES = {
    "@s4": "s4_partial.mdf",
    "@s4_branching": "s4_branching.mdf",
    "@s4_fixtures": "s4_fixtures.mdf",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    if spec in _ALIASES:
        from .s4_dataset import data_path

        return data_path(_ALIASES[spec]).read_text()
    with open(spec, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_datum(spec: str) -> tuple[ModularDatum, DatumFile]:
    df = parse_file(_read_text(spec))
    return datum_from_file(df), df


def _load_parents(specs: str) -> list[BranchingSection]:
    return [section for part in specs.split(",")
            for section in parse_file(_read_text(part.strip())).branchings]


def _float_text(value) -> str:
    z = embed(value)
    if abs(z.imag) < 1e-10:
        return f"{z.real:.10f}"
    return f"{z.real:.10f}{z.imag:+.10f}i"


def cmd_validate(args) -> int:
    datum, _ = _load_datum(args.file)
    report = validate(datum)
    print(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_complete(args) -> int:
    from .branching import (InconsistentSystemError, UnderdeterminedError, complete,
                            eigen_complete)

    if args.fixtures and not args.cross_check:
        print("error: --fixtures needs --cross-check eigen", file=sys.stderr)
        return EXIT_USAGE
    # The shipped fixtures describe the shipped datum only.
    fixtures_spec = args.fixtures or ("@s4_fixtures" if args.file == "@s4" else None)
    if args.cross_check == "eigen" and fixtures_spec is None:
        print("error: --cross-check eigen needs --fixtures for a datum other than @s4",
              file=sys.stderr)
        return EXIT_USAGE
    datum, df = _load_datum(args.file)
    # Read before the solve, so a fixtures file that fails to parse stops the run at once.
    if args.cross_check == "eigen":
        fixtures = parse_file(_read_text(fixtures_spec)).fixtures
    if not args.parents:
        if not datum.fully_known():
            print("error: unknown entries present and no parents given "
                  "(underdetermined)", file=sys.stderr)
            return EXIT_COMPLETION
        result_datum = datum
    else:
        try:
            result = complete(datum, _load_parents(args.parents))
        except (UnderdeterminedError, InconsistentSystemError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_COMPLETION
        result_datum = result.datum
        print(f"# solved {len(result.solved)} unknown entries; "
              f"{result.verified} relations verified", file=sys.stderr)
        # The load checked only the qdim= labels that the partial S knows.
        check_qdims(result_datum, df.qdims)
    if args.cross_check == "eigen":
        try:
            eigen = eigen_complete(datum, fixtures)
        except (UnderdeterminedError, InconsistentSystemError) as exc:
            print(f"error: eigen cross-check: {exc}", file=sys.stderr)
            return EXIT_COMPLETION
        bad = [(pos, value) for pos, value in sorted(eigen.items())
               if result_datum.entry(*pos) != value]
        if bad:
            for (r, c), value in bad:
                print(f"# eigen route disagrees at S[{r},{c}]: {format_exact(value)}",
                      file=sys.stderr)
            return EXIT_COMPLETION
        print(f"# eigen cross-check: {len(eigen)} entries agree", file=sys.stderr)
    out = serialize(datum_to_file(result_datum, scale_expr_text=df.scale_expr))
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_fuse(args) -> int:
    from .verlinde import fusion_product

    datum, _ = _load_datum(args.file)
    print(format_formal_sum(fusion_product(datum, args.i, args.j)))
    return EXIT_OK


def cmd_table(args) -> int:
    from .verlinde import fusion_tensor, tensor_to_triples

    datum, _ = _load_datum(args.file)
    tensor = fusion_tensor(datum)
    sys.stdout.write(tensor_to_triples(tensor))
    return EXIT_OK


def cmd_qdim(args) -> int:
    datum, _ = _load_datum(args.file)
    for i, value in enumerate(quantum_dimensions(datum)):
        if value is None:
            raise MissingEntryError(f"S[{i},0] is unknown")
        print(f"{i} {datum.labels[i].name} {format_exact(value)} {_float_text(value)}")
    return EXIT_OK


def cmd_glob(args) -> int:
    datum, _ = _load_datum(args.file)
    value = glob(datum)
    print(f"{format_exact(value)} = {_float_text(value)}")
    return EXIT_OK


def cmd_lattice(args) -> int:
    from .lattice import LatticeSpec, lattice_datum_file

    sys.stdout.write(serialize(lattice_datum_file(LatticeSpec(args.k))))
    return EXIT_OK


def cmd_regress(args) -> int:
    from .verlinde import (applicable_fixtures, compare_fixtures, fusion_tensor,
                           triples_to_fixtures)

    datum, _ = _load_datum(args.file)
    fixtures_text = _read_text(args.fixtures)
    stripped = next((line for line in fixtures_text.splitlines()
                     if line.split("#", 1)[0].strip()), "")
    if stripped.startswith("["):
        fixtures = parse_file(fixtures_text).fixtures
    else:
        fixtures = triples_to_fixtures(fixtures_text)
    check_fixture_range(fixtures, datum.size)
    tensor = fusion_tensor(datum)
    # Only fixtures inside the tensor's index set are compared and counted.
    hard = applicable_fixtures(tensor, [fx for fx in fixtures if not fx.soft])
    soft = applicable_fixtures(tensor, [fx for fx in fixtures if fx.soft])
    hard_disc = compare_fixtures(tensor, hard)
    soft_disc = compare_fixtures(tensor, soft)
    names = [lab.name for lab in datum.labels]
    kinds = (("hard", hard, hard_disc), ("soft", soft, soft_disc))
    if args.json:
        import json

        payload = {}
        for kind, checked, disc in kinds:
            payload[f"{kind}_checked"] = len(checked)
            payload[f"{kind}_discrepancies"] = [
                {"left": d.left, "right": d.right, "citation": d.citation,
                 "expected": d.expected, "computed": d.computed} for d in disc]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for kind, checked, disc in kinds:
            print(f"{kind} fixtures checked: {len(checked)}, discrepancies: {len(disc)}")
            for d in disc:
                print("  " + d.to_text(names))
    failed = bool(hard_disc) or (args.soft_fixtures and bool(soft_disc))
    return EXIT_FAIL if failed else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="fusionring", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    jobs_help = "accepted and ignored; the tensor is computed in one process"

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "structural checks on a datum file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("complete", cmd_complete, "solve the unknown S entries from branching data")
    p.add_argument("file")
    p.add_argument("--parents", help="comma-separated branching files")
    p.add_argument("--cross-check", choices=["eigen"], dest="cross_check")
    p.add_argument("--fixtures", help="eigen cross-check fixtures (@s4_fixtures for @s4)")
    p.add_argument("-o", "--output", help="write the completed datum here")

    p = add("fuse", cmd_fuse, "fusion product of two irreducibles")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)

    p = add("table", cmd_table, 'full tensor as sorted "i j k N" triples')
    p.add_argument("file")
    p.add_argument("--jobs", type=int, default=1, help=jobs_help)

    p = add("qdim", cmd_qdim, "quantum dimensions, exact and floating")
    p.add_argument("file")

    p = add("glob", cmd_glob, "global dimension")
    p.add_argument("file")

    p = add("lattice", cmd_lattice, "emit the datum of a rank-1 lattice of norm 2k")
    p.add_argument("--k", type=int, required=True)

    p = add("regress", cmd_regress, "compare the computed tensor against fixtures")
    p.add_argument("file")
    p.add_argument("fixtures")
    p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    p.add_argument("--json", action="store_true")
    p.add_argument("--soft-fixtures", action="store_true", dest="soft_fixtures",
                   help="let soft-fixture mismatches fail the run")

    return parser


def _discard_stdout() -> None:
    """Point file descriptor 1 at devnull, so that the interpreter's final
    flush of output nobody reads raises no second BrokenPipeError."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass  # stdout is not backed by a file descriptor
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_PIPE
    except (ParseError, DuplicateEntryError, IndexRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MissingEntryError, NonIntegerResultError, NegativeResultError,
            ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
