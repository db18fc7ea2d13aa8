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

``load_dataset`` parses the three files.  Loading the partial datum checks
its quantum-dimension column, S[j,0] = qdim(j) * S[0,0], exactly, as it does
for every datum file (``modular_data.datum_from_file``).

Before completion, ``verlinde.fusion_tensor`` of the partial datum is the
block tensor over its fully known rows, 0 and 8..27 (the 1..7 segments of
those rows come in by symmetry): every triple inside the block is computable,
and a non-integer result there points at a transcription typo.
"""

from __future__ import annotations

from importlib import resources

from .mdf import BranchingSection, FixtureRecord, parse_file
from .modular_data import ModularDatum, datum_from_file

__all__ = ["load_dataset", "data_path"]


def data_path(name: str):
    """Filesystem path of a shipped data file."""
    return resources.files("fusionring.data") / name


def load_dataset() -> tuple[ModularDatum, list[BranchingSection], list[FixtureRecord]]:
    """The partial datum, the three parent branchings and the fixtures."""
    partial, branching, fixtures = (
        parse_file(data_path(name).read_text())
        for name in ("s4_partial.mdf", "s4_branching.mdf", "s4_fixtures.mdf"))
    return datum_from_file(partial), branching.branchings, fixtures.fixtures
