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
    """Shapes of the point arrays passed to the cell lists' close_pairs, in
    call order, and "grid" for each cell list built; the cache of cell
    lists starts empty."""
    from effcond.geometry import _cell_list, _CellList

    shapes = []
    init, close_pairs = _CellList.__init__, _CellList.close_pairs

    def counting_init(grid, *args):
        shapes.append("grid")
        init(grid, *args)

    def counting(grid, z, bins):
        shapes.append(np.shape(z))
        return close_pairs(grid, z, bins)

    _cell_list.cache_clear()
    monkeypatch.setattr(_CellList, "__init__", counting_init)
    monkeypatch.setattr(_CellList, "close_pairs", counting)
    yield shapes
    _cell_list.cache_clear()
