import math

import numpy as np
import pytest

from effcond import (
    DiskConfiguration,
    DomainError,
    EnsembleDescriptor,
    MultiIndex,
    apply_W,
    constant_field,
    eisenstein,
    esum,
    esum_nn,
    esum_reference,
    kernel_matrix,
    regular_array,
    required_indices,
    rsa_generate,
)
from effcond.esums import as_multi_index, esums_csv

from _oracles import eisenstein_mpmath


@pytest.fixture(scope="module")
def rsa16():
    return rsa_generate(EnsembleDescriptor(n=16, nu=0.25, trials=1, seed=21))


class TestMultiIndex:
    def test_entries_below_two_rejected(self):
        with pytest.raises(DomainError):
            MultiIndex((1, 2))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            MultiIndex(())

    def test_weight(self):
        assert MultiIndex((3, 3, 2)).weight == 5.0
        assert MultiIndex((2,)).weight == 2.0

    def test_label(self):
        assert MultiIndex((3, 3, 2)).label() == "3-3-2"

    def test_coercion(self):
        assert as_multi_index(2).entries == (2,)
        assert as_multi_index([2, 3]).entries == (2, 3)


class TestSingleDiskValues:
    def test_e2_is_s2(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        assert esum(config, (2,)) == pytest.approx(math.pi, abs=1e-12)

    def test_e22_is_s2_squared(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        assert esum(config, (2, 2)) == pytest.approx(math.pi ** 2, abs=1e-11)

    def test_nn_values(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        assert esum_nn(config, 2) == pytest.approx(math.pi ** 2, abs=1e-11)
        assert esum_nn(config, 3) == 0.0


class TestSymmetryProperties:
    def test_centrosymmetric_odd_kernel_cancels(self, square_cell):
        config = DiskConfiguration(
            cell=square_cell,
            centers=np.array([0.17 + 0.11j, -0.17 - 0.11j]),
            radius=0.05,
        )
        assert abs(esum(config, (3,))) < 1e-12

    def test_radius_independence_bitwise(self, square_cell):
        centers = np.array([0.1 + 0.05j, -0.2 + 0.22j, 0.31 - 0.14j])
        a = DiskConfiguration(cell=square_cell, centers=centers, radius=0.04)
        b = DiskConfiguration(cell=square_cell, centers=centers, radius=0.08)
        for idx in [(2,), (3, 3), (2, 2, 2)]:
            assert esum(a, idx) == esum(b, idx)

    def test_refinement_invariance(self, square_cell):
        e1 = esum(regular_array(square_cell, "square", 1, 0.2), (2,))
        e4 = esum(regular_array(square_cell, "square", 4, 0.2), (2,))
        assert e4 == pytest.approx(e1, abs=1e-9)


class TestFastChain:
    def test_identity_nn_vs_chain(self, rsa16):
        for n in range(2, 7):
            chain = esum(rsa16, (n, n))
            direct = esum_nn(rsa16, n)
            assert chain == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_brute_force_equivalence(self, square_cell):
        rng = np.random.default_rng(17)
        for n_disks in (2, 3, 4):
            desc = EnsembleDescriptor(n=n_disks, nu=0.15, trials=1, seed=int(rng.integers(1 << 30)))
            config = rsa_generate(desc)
            for idx in [(2,), (3,), (2, 2), (3, 2), (2, 2, 2), (4, 3, 2), (3, 3, 2)]:
                fast = esum(config, idx)
                slow = esum_reference(config, idx)
                assert fast == pytest.approx(slow, rel=1e-12, abs=1e-13)

    def test_entries_below_two_rejected(self, rsa16):
        with pytest.raises(DomainError):
            esum(rsa16, (1, 2))
        with pytest.raises(DomainError):
            esum_nn(rsa16, 1)


class TestKernelMatrix:
    def test_diagonal_is_lattice_sum(self, square_cell):
        config = regular_array(square_cell, "square", 4, 0.2)
        mat = kernel_matrix(config, 2)
        assert np.allclose(np.diag(mat), math.pi)

    def test_cache_returns_same_object(self, rsa16):
        assert kernel_matrix(rsa16, 4) is kernel_matrix(rsa16, 4)

    def test_read_only(self, rsa16):
        mat = kernel_matrix(rsa16, 2)
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_even_kernel_symmetric(self, rsa16):
        mat = kernel_matrix(rsa16, 2)
        assert np.allclose(mat, mat.T, atol=1e-13)

    def test_odd_kernel_antisymmetric_off_diagonal(self, rsa16):
        mat = kernel_matrix(rsa16, 3).copy()
        np.fill_diagonal(mat, 0.0)
        assert np.allclose(mat, -mat.T, atol=1e-13)


class TestKernelOracle:
    """kernel_matrix entries against the 40-digit mpmath row sum.

    The error is scaled by the nearest pole term, |E - ref| * |z|^n with |z|
    the distance to the nearest lattice point.  Each bound is 4x the worst
    error of the previous per-order row evaluation at the same points (two
    entries each of two separations per kind, on both cells):
        n            2        3        12       31
        contact   4.0e-16  8.2e-16  3.3e-15  8.5e-15
        corner    2.9e-16  9.8e-16  2.5e-15  1.2e-12
    At cell corners the rows cancel: E_31 there is far below its rows.
    """

    RADIUS = 0.05
    BOUNDS = {
        "contact": {2: 1.6e-15, 3: 3.3e-15, 12: 1.3e-14, 31: 3.4e-14},
        "corner": {2: 1.2e-15, 3: 3.9e-15, 12: 1.0e-14, 31: 4.6e-12},
    }

    def separations(self, cell):
        gap = 2 * self.RADIUS * (1 + 1e-6)
        return {
            "contact": [gap * np.exp(1j * t) for t in (0.3, 2.0)],
            "corner": [
                0.499 * cell.omega1 + 0.498 * cell.omega2,
                0.497 * cell.omega1 - 0.499 * cell.omega2,
            ],
        }

    @pytest.mark.parametrize("n", [2, 3, 12, 31])
    def test_entries_match_mpmath(self, n, square_cell, sheared_cell):
        for cell in (square_cell, sheared_cell):
            for kind, seps in self.separations(cell).items():
                for s in seps:
                    config = DiskConfiguration(
                        cell=cell, centers=np.array([0j, s]), radius=self.RADIUS
                    )
                    mat = kernel_matrix(config, n)
                    sep = config.pair_separations()
                    for j, k in ((0, 1), (1, 0)):
                        ref = eisenstein_mpmath(cell, n, sep[j, k])
                        scale = cell.lattice_distance(sep[j, k]) ** n
                        assert abs(mat[j, k] - ref) * scale <= self.BOUNDS[kind][n]


class TestKernelStack:
    """Kernels are bitwise independent of how the stack was built."""

    ORDERS = (2, 3, 6, 7, 12, 31)

    @staticmethod
    def fresh():
        return rsa_generate(EnsembleDescriptor(n=64, nu=0.45, trials=1, seed=4))

    def test_build_order_bitwise(self):
        solver = self.fresh()
        apply_W(solver, constant_field(solver, 14))  # stack to 2*14 + 3 = 31
        extended = self.fresh()
        kernel_matrix(extended, 6)
        kernel_matrix(extended, 12)
        for n in self.ORDERS:
            alone = kernel_matrix(self.fresh(), n)
            assert np.array_equal(alone, kernel_matrix(solver, n))
            if n <= 12:
                assert np.array_equal(alone, kernel_matrix(extended, n))

    def test_upper_triangle_is_eisenstein(self):
        config = self.fresh()
        sep = config.pair_separations()[np.triu_indices(config.n_disks, 1)]
        for n in self.ORDERS:
            upper = kernel_matrix(config, n)[np.triu_indices(config.n_disks, 1)]
            assert np.array_equal(upper, eisenstein(config.cell, n, sep))

    def test_batch_matches_scalar_calls(self):
        config = self.fresh()
        sep = config.pair_separations()[np.triu_indices(config.n_disks, 1)]
        assert sep.size == 2016
        for n in (2, 31):
            batch = eisenstein(config.cell, n, sep)
            scalar = np.array([eisenstein(config.cell, n, complex(z)) for z in sep])
            assert np.array_equal(batch, scalar)


class TestRequiredIndices:
    def test_order_one(self):
        assert [i.entries for i in required_indices(1)] == [(2,)]

    def test_order_three(self):
        got = [i.entries for i in required_indices(3)]
        assert got == [(2,), (2, 2), (3, 3), (2, 2, 2)]

    def test_order_six_contains_printed_tails(self):
        got = {i.entries for i in required_indices(6)}
        assert (3, 3, 3, 3) in got
        assert (2, 2, 2, 2, 2, 2) in got
        assert (4, 5, 3) in got

    def test_counts_match_coefficient_table(self):
        # 1 + 1 + 2 + 4 + 8 + 16 distinct indices through order six
        assert len(required_indices(6)) == 32

    def test_out_of_range(self):
        for bad in (0, 7):
            with pytest.raises(DomainError):
                required_indices(bad)


class TestCsvEmitter:
    def test_format(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        text = esums_csv("cfg0", {(3, 3, 2): esum(config, (3, 3, 2))})
        lines = text.strip().split("\n")
        assert lines[0] == "config_id,index,re,im"
        fields = lines[1].split(",")
        assert fields[0] == "cfg0"
        assert fields[1] == "3-3-2"
        float(fields[2]), float(fields[3])
