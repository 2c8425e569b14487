import math

import numpy as np
import pytest

from effcond import (
    DiskConfiguration,
    DomainError,
    EnsembleDescriptor,
    eisenstein,
    esum,
    esum_nn,
    kernel_matrix,
    make_cell,
    regular_array,
    rsa_generate,
)
from effcond.esums import _matvec, check_index, esums_csv, kernel_stack
from effcond.lattice import Cell, eisenstein_stack
from effcond.pipeline import QuantitySpec

from _oracles import eisenstein_mpmath, esum_reference, nearest_distance_brute, required_indices


@pytest.fixture(scope="module")
def rsa16():
    return rsa_generate(EnsembleDescriptor(n=16, nu=0.25, trials=1, seed=21))


class TestMultiIndex:
    def test_entries_below_two_rejected(self):
        with pytest.raises(DomainError):
            check_index((1, 2))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            check_index(())

    def test_coercion(self):
        assert check_index(2) == (2,)
        assert check_index([2.0, 3]) == (2, 3)
        assert all(type(m) is int for m in check_index([2.0, 3]))

    @pytest.mark.parametrize("index", [(2.9,), (2, 2.5), 2.5, (True,), (3, False),
                                       ("2",), (math.nan,)])
    def test_non_integral_entries_rejected(self, index):
        # refused, never truncated to an int
        with pytest.raises(DomainError, match="must be integers"):
            check_index(index)

    def test_numpy_integers_accepted(self):
        assert check_index(np.int64(3)) == (3,)
        assert check_index((np.int32(2), np.uint8(5))) == (2, 5)
        assert all(type(m) is int for m in check_index(np.int64(3)))

    def test_fractional_index_refused_by_esum_and_quantity(self, rsa16):
        with pytest.raises(DomainError, match="must be integers"):
            esum(rsa16, (2.9,))
        with pytest.raises(DomainError, match="must be integers"):
            QuantitySpec("x", "esum", index=(2.5,))


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

    @pytest.mark.parametrize("n", [8, 63, 64, 65, 67, 256, 1025])
    def test_blocked_product_bitwise(self, n):
        """The row blocks round exactly as one mat @ vec, no block being one row."""
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert _matvec(mat, vec).tobytes() == (mat @ vec).tobytes()

    def test_entries_below_two_rejected(self, rsa16):
        with pytest.raises(DomainError):
            esum(rsa16, (1, 2))
        with pytest.raises(DomainError):
            esum_nn(rsa16, 1)

    def test_order_beyond_series_rejected(self, rsa16):
        # above lattice.MAX_KERNEL_ORDER, the one cap on kernel orders
        with pytest.raises(DomainError, match="kernel order"):
            esum_nn(rsa16, 150)


class TestKernelMatrix:
    def test_diagonal_is_lattice_sum(self, square_cell):
        config = regular_array(square_cell, "square", 4, 0.2)
        mat = kernel_matrix(config, 2)
        assert np.allclose(np.diag(mat), math.pi)

    def test_second_call_builds_nothing(self, kernel_passes):
        config = rsa_generate(EnsembleDescriptor(n=16, nu=0.25, trials=1, seed=21))
        first = kernel_matrix(config, 4)
        assert np.array_equal(kernel_matrix(config, 4), first)
        kernel_matrix(config, 3)
        assert kernel_passes == [(2, 4)]

    def test_growth_rebuilds_in_one_pass(self, kernel_passes):
        config = rsa_generate(EnsembleDescriptor(n=16, nu=0.25, trials=1, seed=21))
        low = kernel_stack(config, 4).copy()
        kernel_matrix(config, 9)
        assert kernel_passes == [(2, 4), (2, 9)]
        assert config._kernels.shape == (8, 16, 16)
        assert kernel_stack(config, 4).tobytes() == low.tobytes()

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), True])
    def test_non_integer_order_refused(self, n):
        config = rsa_generate(EnsembleDescriptor(n=16, nu=0.25, trials=1, seed=21))
        for cached in (False, True):  # before and after E_2..E_30 are cached
            if cached:
                kernel_matrix(config, 30)
            with pytest.raises(DomainError, match="kernel order must be an integer"):
                kernel_matrix(config, n)
            with pytest.raises(DomainError, match="kernel order must be an integer"):
                esum_nn(config, n)

    def test_numpy_integer_orders(self, rsa16):
        assert np.array_equal(kernel_matrix(rsa16, np.int64(3)), kernel_matrix(rsa16, 3))
        assert esum_nn(rsa16, np.int32(4)) == esum_nn(rsa16, 4)

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

    The hex and aspect-0.2 cells, whose transverse rows 1..M0 (M0 = 1 and
    2) an earlier evaluation summed one by one, have bounds 4x the worst
    error, per cell, of the per-row evaluation that summed every transverse
    row one by one:
        n                2        3        12       31
        hex   contact  3.6e-16  4.7e-16  1.8e-15  4.4e-15
              corner   7.8e-16  7.5e-16  2.9e-15  7.2e-15
    The thin n = 12 and 31 bounds are 4x the worst error of the coset sum
    over a compact sublattice (Cell.cosets), or the earlier bound where that
    is tighter; the rows gave 3.6e-10 at the corners for n = 31:
        n                12       31
        thin  contact  3.7e-15  9.8e-15
              corner   6.5e-15  4.1e-14
    The thin corners lie 1.13-1.14 from their nearest lattice point, so at
    n = 31 the pole scaling multiplies their absolute error by about 50.
    """

    RADIUS = 0.05
    BOUNDS = {
        "contact": {2: 1.6e-15, 3: 3.3e-15, 12: 1.3e-14, 31: 3.4e-14},
        "corner": {2: 1.2e-15, 3: 3.9e-15, 12: 1.0e-14, 31: 4.6e-12},
    }
    NEAR_ROW_BOUNDS = {
        "hex": {
            "contact": {2: 1.5e-15, 3: 1.9e-15, 12: 7.1e-15, 31: 1.8e-14},
            "corner": {2: 3.2e-15, 3: 3.0e-15, 12: 1.2e-14, 31: 2.9e-14},
        },
        "thin": {
            "contact": {2: 3.5e-15, 3: 3.5e-15, 12: 1.4e-14, 31: 3.3e-14},
            "corner": {2: 9.2e-15, 3: 4.4e-15, 12: 1.9e-14, 31: 1.7e-13},
        },
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

    def worst_errors(self, cell, n):
        """Worst pole-scaled error of E_n per kind of separation."""
        worst = {}
        for kind, seps in self.separations(cell).items():
            worst[kind] = 0.0
            for s in seps:
                config = DiskConfiguration(
                    cell=cell, centers=np.array([0j, s]), radius=self.RADIUS
                )
                mat = kernel_matrix(config, n)
                sep = config.centers[0] - config.centers[1]
                ref = eisenstein_mpmath(cell, n, sep)
                # E_n(-z) = (-1)^n E_n(z): one reference serves both entries
                for j, k, z, want in ((0, 1, sep, ref), (1, 0, -sep, (-1) ** n * ref)):
                    scale = nearest_distance_brute(cell, np.array([z]))[0] ** n
                    worst[kind] = max(worst[kind], abs(mat[j, k] - want) * scale)
        return worst

    @pytest.mark.parametrize("n", [2, 3, 12, 31])
    def test_entries_match_mpmath(self, n, square_cell, sheared_cell):
        for cell in (square_cell, sheared_cell):
            for kind, err in self.worst_errors(cell, n).items():
                assert err <= self.BOUNDS[kind][n]

    @pytest.mark.parametrize("n", [2, 3, 12, 31])
    def test_entries_match_mpmath_with_near_rows(self, n, hex_cell, thin_cell):
        for name, cell in (("hex", hex_cell), ("thin", thin_cell)):
            for kind, err in self.worst_errors(cell, n).items():
                assert err <= self.NEAR_ROW_BOUNDS[name][kind][n]

    # 4x the worst pole-scaled error of the Weierstrass recurrence over the
    # weak points below on the three compact cells (5 to 8 points per cell),
    # and per elongated cell of its coset sum (5 points each)
    #     n             2        3        12       20       31       55
    #   compact      1.0e-15  1.0e-15  4.1e-15  1.1e-14  9.3e-15  1.6e-14
    #   aspect 5     7.3e-16  1.8e-15  5.9e-15  6.9e-15  1.2e-14  2.6e-14
    #   aspect 0.5   1.7e-15  7.2e-16  3.0e-15  8.3e-15  7.0e-15  1.2e-14
    # On compact cells E_2 and E_3 are the q-series, measured at most 1.5e-15
    # at n = 2 and 3 on every cell here.  The earlier row sum through z
    # reached 2.7e-13, 1.4e-10, 4.9e-7 and 28 at n = 12, 20, 31 and 55; at
    # n = 2 and 3 the rows of the elongated cells gave 8.0e-16 and 4.2e-16
    # (aspect 5), 1.1e-15 and 7.2e-16 (aspect 0.5).
    # Aspect 0.2 is left out: its mpmath rows cost 1.7 s per point.
    WEAK_POINT_BOUNDS = {
        "compact": {2: 4.2e-15, 3: 4.0e-15, 12: 1.6e-14, 20: 4.5e-14, 31: 3.7e-14,
                    55: 6.4e-14},
        "aspect 5": {2: 2.9e-15, 3: 7.0e-15, 12: 2.4e-14, 20: 2.8e-14, 31: 4.8e-14,
                     55: 1.1e-13},
        "aspect 0.5": {2: 6.7e-15, 3: 2.9e-15, 12: 1.2e-14, 20: 3.4e-14, 31: 2.8e-14,
                       55: 4.8e-14},
    }

    @staticmethod
    def weak_points(cell):
        """Where the row through z cancels: |Im w| in [0.30, 0.35), w = z/omega1,
        and the point farthest from the lattice, the circumcenter of the
        acute triangle 0, omega1, omega2."""
        a, b = cell.omega1, cell.omega2
        points = [w * a for w in (0.5 + 0.3j, 0.5 + 0.345j, 0.3 + 0.33j, 0.45 - 0.31j)]
        points.append(a * b * (np.conj(a) - np.conj(b)) / (np.conj(a) * b - a * np.conj(b)))
        return np.array(points)

    @pytest.mark.parametrize("n", [2, 3, 12, 20, 31, 55])
    def test_cells_match_mpmath_at_weak_points(self, n, square_cell, hex_cell, sheared_cell):
        square_extra = [0.475 + 0.262j, 0.4972 + 0.3461j]  # an RSA separation, second
        cells = [("compact", square_cell), ("compact", hex_cell), ("compact", sheared_cell),
                 ("aspect 5", make_cell(1.0, 5j)), ("aspect 0.5", make_cell(1.0, 0.5j))]
        for name, cell in cells:
            assert cell.compact is (name == "compact")
            points = self.weak_points(cell)
            if cell is square_cell:
                points = np.append(points, square_extra)
            vals = eisenstein_stack(cell, n, n, points)[0]
            for z, val in zip(points, vals):
                ref = eisenstein_mpmath(cell, n, z, dps=30)
                err = abs(val - ref) * nearest_distance_brute(cell, np.array([z]))[0] ** n
                assert err <= self.WEAK_POINT_BOUNDS[name][n]

    # 4x the worst pole-scaled error |E_1 - ref|*|z| of the q-series over the
    # weak points and 20 random points a*omega1 + b*omega2, a, b in
    # [-0.75, 0.75), so that E_1 takes its jump on some; 2+0.5i is the
    # aspect-0.5 lattice in a basis with Re tau = 2, built as given
    E1_BOUNDS = {"square": 2.1e-15, "hexagonal": 2.2e-15, "0.5+1i": 2.1e-15,
                 "aspect 0.2": 4.3e-15, "aspect 5": 6.2e-15, "2+0.5i": 2.0e-14}

    @pytest.mark.parametrize("name", list(E1_BOUNDS))
    def test_e1_matches_mpmath(self, name):
        w2 = {"square": 1j, "hexagonal": np.exp(1j * np.pi / 3), "0.5+1i": 0.5 + 1j,
              "aspect 0.2": 0.2j, "aspect 5": 5j, "2+0.5i": 2 + 0.5j}[name]
        scale = 1 / math.sqrt(w2.imag)
        cell = Cell(scale, w2 * scale)
        a, b = np.random.default_rng(3).uniform(-0.75, 0.75, (2, 20))
        points = np.concatenate([self.weak_points(cell), a * cell.omega1 + b * cell.omega2])
        for z, val in zip(points, eisenstein(cell, 1, points)):
            err = abs(val - eisenstein_mpmath(cell, 1, z)) * nearest_distance_brute(cell, np.array([z]))[0]
            assert err <= self.E1_BOUNDS[name]


class TestKernelStack:
    """Kernels are bitwise independent of how the stack was built."""

    ORDERS = (2, 3, 6, 7, 12, 31)

    @staticmethod
    def fresh():
        return rsa_generate(EnsembleDescriptor(n=64, nu=0.45, trials=1, seed=4))

    def test_build_order_bitwise(self):
        solver = self.fresh()
        kernel_stack(solver, 31)  # one build of E_2..E_31, as a solve at degree 14 takes
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
        j, k = np.triu_indices(config.n_disks, 1)
        sep = config.centers[j] - config.centers[k]
        for n in self.ORDERS:
            upper = kernel_matrix(config, n)[np.triu_indices(config.n_disks, 1)]
            assert np.array_equal(upper, eisenstein(config.cell, n, sep))

    def test_batch_matches_scalar_calls(self, sheared_cell, hex_cell, thin_cell):
        config = self.fresh()
        j, k = np.triu_indices(config.n_disks, 1)
        sep = config.centers[j] - config.centers[k]
        assert sep.size == 2016
        for n in (2, 31):
            batch = eisenstein(config.cell, n, sep)
            scalar = np.array([eisenstein(config.cell, n, complex(z)) for z in sep])
            assert np.array_equal(batch, scalar)
        # every order of a stack, also on thinner cells, which take more q
        # terms, with the recurrence above E_3 directly (hex) and over
        # cosets (thin)
        for cell in (config.cell, sheared_cell, hex_cell, thin_cell):
            batch = eisenstein_stack(cell, 2, 31, sep)
            scalar = [eisenstein_stack(cell, 2, 31, complex(z)) for z in sep]
            assert np.array_equal(batch, np.stack(scalar, axis=1))


class TestRequiredIndices:
    def test_order_one(self):
        assert list(required_indices(1)) == [(2,)]

    def test_order_three(self):
        got = list(required_indices(3))
        assert got == [(2,), (2, 2), (3, 3), (2, 2, 2)]

    def test_order_six_contains_printed_tails(self):
        got = set(required_indices(6))
        assert (3, 3, 3, 3) in got
        assert (2, 2, 2, 2, 2, 2) in got
        assert (4, 5, 3) in got

    def test_counts_match_coefficient_table(self):
        # 1 + 1 + 2 + 4 + 8 + 16 distinct indices through order six
        assert len(required_indices(6)) == 32

    def test_out_of_range(self):
        for bad in (0, 13):
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
