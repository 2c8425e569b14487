import numpy as np
import pytest

from effcond import make_cell


@pytest.fixture(scope="session")
def square_cell():
    return make_cell(1.0, 1j)


@pytest.fixture(scope="session")
def sheared_cell():
    return make_cell(1.0, 0.5 + 1j)


@pytest.fixture(scope="session")
def hex_cell():
    return make_cell(1.0, np.exp(1j * np.pi / 3))


@pytest.fixture(scope="session")
def thin_cell():
    return make_cell(1.0, 0.2j)
