"""Exact fusion rings from modular S-matrices.

Cyclotomic arithmetic, a text interchange format for modular data, Verlinde
fusion coefficients, rank-1 lattice generators, completion of partial
S-matrices from branching data, and the shipped 28-module orbifold dataset.
"""

__version__ = "0.1.0"
