"""Benchmark inputs and oracles that share no code with the fusion engine.

The su(2)_k datum is built here from the public cyclotomic API only; the
expected fusion rules (cyclic group addition for lattice data, the truncated
Clebsch-Gordan rule for su(2)_k) and the fixture-file reader are plain
integer code, so a fault in the engine cannot also hide in its oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fusionring.cyclo import inverse, root_of_unity, sqrt_int
from fusionring.modular_data import ModularDatum, ModuleLabel


def su2_datum(k: int) -> ModularDatum:
    """Kac-Peterson S_ab = sqrt(2/(k+2)) sin(pi (a+1)(b+1) / (k+2)), a, b = 0..k.

    sin(pi m / h) = (zeta_2h^m - zeta_2h^-m) / 2i, and 1/2i = zeta_4^3 / 2.
    """
    h = k + 2
    scale = sqrt_int(2) * inverse(sqrt_int(h)) * root_of_unity(4, 3) * Fraction(1, 2)
    sines = {}
    n = k + 1
    s = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m = (a + 1) * (b + 1) % (2 * h)
            if m not in sines:
                sines[m] = (root_of_unity(2 * h, m) - root_of_unity(2 * h, -m)) * scale
            s[a][b] = sines[m]
    labels = [ModuleLabel(index=a, name=f"j{a}", dual=a) for a in range(n)]
    return ModularDatum(labels, s, name=f"su2_k{k}")


def seeded_relabeling(rng: random.Random, n: int) -> list[int]:
    """A permutation of 0..n-1 that fixes the vacuum 0: old index -> new index."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel(datum: ModularDatum, perm: list[int]) -> ModularDatum:
    """The same datum with module a renamed perm[a]; duals follow."""
    n = datum.size
    old = [0] * n
    for a, x in enumerate(perm):
        old[x] = a
    s = [[datum.s[old[x]][old[y]] for y in range(n)] for x in range(n)]
    labels = [ModuleLabel(index=x, name=datum.labels[old[x]].name,
                          dual=perm[datum.labels[old[x]].dual]) for x in range(n)]
    return ModularDatum(labels, s, name=datum.name)


def _relabeled_tensor(n: int, perm: list[int], coeff) -> list[list[list[int]]]:
    values = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            row = values[perm[a]][perm[b]]
            for c in range(n):
                row[perm[c]] = coeff(a, b, c)
    return values


def lattice_oracle(k: int, perm: list[int]):
    """Fusion tensor and duals of Z_2k after relabeling: N[i,j]^l = [l = i+j mod 2k]."""
    n = 2 * k
    values = _relabeled_tensor(n, perm, lambda a, b, c: int(c == (a + b) % n))
    duals = [0] * n
    for a in range(n):
        duals[perm[a]] = perm[(n - a) % n]
    return values, duals


def su2_oracle(k: int, perm: list[int]) -> list[list[list[int]]]:
    """Truncated Clebsch-Gordan rule after relabeling:
    N_ab^c = 1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even."""
    def coeff(a, b, c):
        return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)
    return _relabeled_tensor(k + 1, perm, coeff)


def triples_text(values: list[list[list[int]]]) -> str:
    """The expected output of ``fusionring table``: sorted "i j k N" lines, zeros omitted."""
    lines = [f"{i} {j} {k} {m}"
             for i, plane in enumerate(values)
             for j, row in enumerate(plane)
             for k, m in enumerate(row) if m]
    return "\n".join(lines) + ("\n" if lines else "")


def read_fixtures(text: str) -> list[tuple[bool, int, int, dict[int, int]]]:
    """(soft, left, right, product) from the ``[fusion]`` lines of a fixture file."""
    out = []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").split()[0]
            continue
        if section != "fusion":
            continue
        body = line.split("|", 1)[0]
        soft = body.startswith("soft ")
        pair, rhs = body.removeprefix("soft ").split("=")
        left, right = (int(x) for x in pair.split("x"))
        product: dict[int, int] = {}
        for term in rhs.split("+"):
            mult, _, idx = term.strip().rpartition("*")
            product[int(idx)] = product.get(int(idx), 0) + int(mult or 1)
        out.append((soft, left, right, product))
    return out
