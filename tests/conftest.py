import pytest

from fusionring.branching import complete
from fusionring.s4_dataset import load_dataset
from fusionring.verlinde import fusion_tensor


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
