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
"""

from __future__ import annotations

from importlib import resources

from .branching import ParentBranching
from .mdf import FixtureRecord, eval_expr, parse_file
from .modular_data import ModularDatum, MissingEntryError, datum_from_file, quantum_dimensions
from .verlinde import computable_indices, fusion_tensor

__all__ = ["QdimMismatchError", "load_dataset", "known_block_tensor", "data_path"]


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


def known_block_tensor(datum: ModularDatum, jobs: int = 1):
    """Verlinde coefficients over the fully known rows of the partial S.

    In the shipped tables these are rows 0 and 8..27 (the 1..7 segments come
    in by symmetry), so every triple inside this index set is computable
    before any completion; a non-integer result here points at a
    transcription typo.
    """
    return fusion_tensor(datum, indices=computable_indices(datum), jobs=jobs)
