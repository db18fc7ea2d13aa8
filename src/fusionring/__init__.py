"""Exact fusion rings from modular S-matrices.

Cyclotomic arithmetic, a text interchange format for modular data, Verlinde
fusion coefficients, rank-1 lattice generators, completion of partial
S-matrices from branching data, and the shipped 28-module orbifold dataset.
"""

from .cyclo import Cyclotomic, conj, embed, inverse, root_of_unity, sqrt_int
from .lattice import LatticeSpec, expected_group_fusion, lattice_modular_data
from .modular_data import ModularDatum, ModuleLabel, glob, qdim, validate
from .verlinde import FusionTensor, check_ring, compare_fixtures, fuse, fusion_coeff, fusion_tensor
from .branching import ParentBranching, assemble_system, complete, derive_rows, solve
from .s4_dataset import known_block_tensor, load_dataset

__version__ = "0.1.0"

__all__ = [
    "Cyclotomic", "root_of_unity", "sqrt_int", "conj", "inverse", "embed",
    "LatticeSpec", "lattice_modular_data", "expected_group_fusion",
    "ModularDatum", "ModuleLabel", "validate", "qdim", "glob",
    "FusionTensor", "fusion_coeff", "fusion_tensor", "fuse", "check_ring",
    "compare_fixtures",
    "ParentBranching", "derive_rows", "assemble_system", "solve", "complete",
    "load_dataset", "known_block_tensor",
    "__version__",
]
