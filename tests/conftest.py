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


@pytest.fixture()
def kernel_passes(monkeypatch):
    """(n_lo, n_hi) of every kernel build, in call order."""
    import effcond.esums
    from effcond.lattice import eisenstein_stack

    calls = []

    def counting(cell, n_lo, n_hi, z):
        calls.append((n_lo, n_hi))
        return eisenstein_stack(cell, n_lo, n_hi, z)

    monkeypatch.setattr(effcond.esums, "eisenstein_stack", counting)
    return calls


@pytest.fixture()
def min_image_points(monkeypatch):
    """Sizes of the point arrays passed to Cell.min_image, in call order."""
    from effcond.lattice import Cell

    sizes = []
    min_image = Cell.min_image

    def counting(cell, z):
        sizes.append(int(np.size(z)))
        return min_image(cell, z)

    monkeypatch.setattr(Cell, "min_image", counting)
    return sizes
