import random
from fractions import Fraction

import pytest

from fusionring import cyclo
from fusionring.branching import complete
from fusionring.cyclo import inverse, root_of_unity, sqrt_int
from fusionring.modular_data import ModularDatum, ModuleLabel
from fusionring.s4_dataset import load_dataset
from fusionring.verlinde import FusionTensor, fusion_tensor


@pytest.fixture(scope="session")
def s4():
    """(datum, parents, fixtures) of the shipped dataset."""
    return load_dataset()


@pytest.fixture(scope="session")
def s4_completed(s4):
    datum, parents, _ = s4
    return complete(datum, parents).datum


@pytest.fixture(scope="session")
def s4_tensor(s4_completed):
    return fusion_tensor(s4_completed)


@pytest.fixture(scope="session")
def s4_block_tensor(s4):
    datum, _, _ = s4
    return fusion_tensor(datum)


def su2_datum(k):
    """Kac-Peterson S_ab = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2)), a, b = 0..k."""
    h = k + 2
    scale = sqrt_int(2) * inverse(sqrt_int(h)) * root_of_unity(4, 3) * Fraction(1, 2)
    s = [[(root_of_unity(2 * h, (a + 1) * (b + 1)) - root_of_unity(2 * h, -(a + 1) * (b + 1)))
          * scale for b in range(k + 1)] for a in range(k + 1)]
    return ModularDatum([ModuleLabel(a, f"j{a}", dual=a) for a in range(k + 1)], s)


def expected_group_fusion(spec):
    """Coset-addition fusion of the rank-1 lattice: N[i,j]^k = 1 iff k = i+j mod 2k.

    This is the independent oracle the Verlinde output is compared against.
    """
    n = spec.modules
    values = [[[1 if k == (i + j) % n else 0 for k in range(n)]
               for j in range(n)] for i in range(n)]
    return FusionTensor(list(range(n)), values)


def relabeled(datum, seed):
    """The datum with its non-vacuum modules shuffled; duals follow."""
    n = datum.size
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    old = [0] + rest  # new module x is old module old[x]
    new = {a: x for x, a in enumerate(old)}
    labels = [ModuleLabel(x, datum.labels[a].name, dual=new[datum.labels[a].dual])
              for x, a in enumerate(old)]
    return ModularDatum(labels, [[datum.s[a][b] for b in old] for a in old], name=datum.name)


def counted_kernels(monkeypatch):
    """A list that gains each ``cyclo.Images`` built while the patch holds."""
    built = []

    class CountedImages(cyclo.Images):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cyclo, "Images", CountedImages)
    return built
