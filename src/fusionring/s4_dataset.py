"""The shipped orbifold dataset: 28 modules, partial S-matrix, branchings, fixtures.

Files live under ``data/`` next to this module:

* ``s4_partial.mdf``   labels with quantum dimensions, the tabulated partial
                       S-matrix (49 unknown cells in the 7x7 block of rows
                       and columns 1..7),
* ``s4_branching.mdf`` decompositions of the three parent lattice algebras
                       (norms 32, 18 and 8) into the 28 modules,
* ``s4_fixtures.mdf``  the recorded fusion products, one per module pair,
                       with ``soft`` marking lines the exact computation
                       refutes (see DATA_NOTES.txt).

``load_dataset`` parses and cross-validates everything; in particular the
quantum-dimension column must satisfy S[j,0] = qdim(j) * S[0,0] exactly.

Before completion, ``verlinde.fusion_tensor`` of the partial datum is the
block tensor over its fully known rows, 0 and 8..27 (the 1..7 segments of
those rows come in by symmetry): every triple inside the block is computable,
and a non-integer result there points at a transcription typo.
"""

from __future__ import annotations

from importlib import resources

from .branching import ParentBranching
from .mdf import FixtureRecord, eval_expr, parse_file
from .modular_data import ModularDatum, MissingEntryError, datum_from_file, quantum_dimensions

__all__ = ["QdimMismatchError", "load_dataset", "data_path"]


class QdimMismatchError(ValueError):
    """The S-matrix vacuum column contradicts the recorded quantum dimensions."""


def data_path(name: str):
    """Filesystem path of a shipped data file."""
    return resources.files("fusionring.data") / name


def _read(name: str) -> str:
    return data_path(name).read_text()


def load_dataset() -> tuple[ModularDatum, list[ParentBranching], list[FixtureRecord]]:
    """Parse the shipped files; validates indices and the qdim column."""
    partial = parse_file(_read("s4_partial.mdf"))
    branching_file = parse_file(_read("s4_branching.mdf"))
    fixture_file = parse_file(_read("s4_fixtures.mdf"))
    datum = datum_from_file(partial)
    dims = quantum_dimensions(datum)
    for rec in partial.labels:
        if rec.qdim_expr is None:
            continue
        if dims[rec.index] is None:
            raise MissingEntryError(f"S[{rec.index},0] is unknown")
        recorded = eval_expr(rec.qdim_expr)
        if dims[rec.index] != recorded:
            raise QdimMismatchError(
                f"module {rec.index}: S[{rec.index},0]/S[0,0] != recorded qdim {recorded}")
    parents = [ParentBranching.from_section(sec)
               for sec in branching_file.branchings]
    return datum, parents, fixture_file.fixtures
