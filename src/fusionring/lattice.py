"""Modular data of rank-1 even lattices with norm 2k.

Such a lattice has 2k irreducible module cosets, indexed here 0..2k-1 (the
symmetric range -k+1..k maps in via j mod 2k).  The S-matrix entry between
cosets j and l is exp(-2*pi*i*jl/2k) / sqrt(2k), the dual of coset j is
-j mod 2k, and fusion is addition in Z_2k, which makes these data the
standard exactly-solvable oracle for the fusion engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import inverse, root_of_unity, sqrt_int
from .mdf import MAX_MODULES, DatumFile
from .modular_data import ModularDatum, ModuleLabel, datum_to_file


@dataclass(frozen=True)
class LatticeSpec:
    """Rank-1 even lattice with norm (alpha, alpha) = 2k."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.modules > MAX_MODULES:
            raise ValueError(f"2k = {self.modules} modules exceeds {MAX_MODULES}")

    @property
    def modules(self) -> int:
        return 2 * self.k


def lattice_modular_data(spec: LatticeSpec) -> ModularDatum:
    """The 2k-module datum with S[j,l] = zeta_2k^(-jl) / sqrt(2k)."""
    n = spec.modules
    inv_sqrt = inverse(sqrt_int(n))
    labels = [ModuleLabel(index=j, name=f"c{j}", dual=(n - j) % n) for j in range(n)]
    roots = [root_of_unity(n, -e) * inv_sqrt for e in range(n)]
    s = [[roots[(j * l) % n] for l in range(n)] for j in range(n)]
    return ModularDatum(labels, s, name=f"lattice_2k{n}")


def lattice_datum_file(spec: LatticeSpec) -> DatumFile:
    """Emit the generated datum in the interchange file format."""
    return datum_to_file(lattice_modular_data(spec),
                         scale_expr_text=f"1/sqrt({spec.modules})")
