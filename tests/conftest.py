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
def distance_shapes(monkeypatch):
    """Shapes of the point arrays passed to Cell.distance, in call order."""
    from effcond.lattice import Cell

    shapes = []
    distance = Cell.distance

    def counting(cell, z, within):
        shapes.append(np.shape(z))
        return distance(cell, z, within)

    monkeypatch.setattr(Cell, "distance", counting)
    return shapes
