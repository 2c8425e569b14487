import math

import mpmath
import numpy as np
import pytest

from effcond import (
    DomainError,
    InvalidCellError,
    NearSingularityError,
    eisenstein,
    lattice_sum,
    make_cell,
)
import effcond.lattice
from effcond.lattice import _TWO_ZETA, Cell, _rows, _weierstrass_stack, eisenstein_stack

from _oracles import (
    eisenstein_brute,
    eisenstein_regularized,
    lattice_sum_disk_sweep,
    lattice_sum_mpmath,
    regularized_taylor_coeff,
)

# frozen dev value: disk-truncation sweep of sum' P^-4 on the square cell,
# independently reproduced below to 1e-9
S4_SQUARE = 3.1512120021539


class TestMakeCell:
    def test_unit_square_unchanged(self):
        cell = make_cell(1, 1j)
        assert cell.omega1 == 1.0
        assert cell.omega2 == 1j

    def test_rescales_to_unit_area(self):
        cell = make_cell(2, 1j)
        s = 1 / math.sqrt(2)
        assert cell.omega1 == pytest.approx(2 * s, abs=1e-15)
        assert cell.omega2 == pytest.approx(1j * s, abs=1e-15)
        assert cell.area == pytest.approx(1.0, abs=1e-14)

    def test_real_part_untouched(self):
        cell = make_cell(1, 0.5 + 1j)
        assert cell.omega1 == 1.0
        assert cell.omega2 == 0.5 + 1j

    @pytest.mark.parametrize("w1,w2", [(0.0, 1j), (-1.0, 1j), (1.0, -1j), (1.0, 2.0)])
    def test_invalid_periods(self, w1, w2):
        with pytest.raises(InvalidCellError):
            make_cell(w1, w2)

    @pytest.mark.parametrize("w2", [6j, 0.15j])
    def test_aspect_guard(self, w2):
        with pytest.raises(InvalidCellError):
            make_cell(1.0, w2)

    @pytest.mark.parametrize("m", [3, 1e3, 1e6, 1e9, -3, -1e9])
    def test_sheared_basis_of_the_square_lattice_is_the_square_cell(self, m):
        """omega2 = m + i spans the square lattice for every integer m; make_cell
        takes omega2 less its whole multiples of omega1, so E_n keeps its
        digits however large m is."""
        assert make_cell(1, m + 1j) == make_cell(1, 1j)

    def test_fold_of_a_huge_shear_stays_exact(self):
        """Re omega2 / omega1 = 1e350 overflows; the fold must not."""
        cell = make_cell(1e-150, 1e200 + 1e-150j)
        assert 0.0 <= cell.omega2.real < cell.omega1

    CELLS = [
        (1j, True, 1), (np.exp(1j * np.pi / 3), True, 1), (0.5 + 1j, True, 1),
        (0.6j, True, 1),
        (1.5 + 1j, True, 1),  # the sheared lattice again, another basis
        (0.5j, False, 2), (0.2j, False, 3), (5j, False, 3),
        (2.0 + 0.5j, False, 2),  # the aspect-0.5 lattice again, another basis
    ]

    @pytest.mark.parametrize("w2, compact, cosets", CELLS,
                             ids=[f"{w2}-{compact}" for w2, compact, _ in CELLS])
    def test_compact_cells(self, w2, compact, cosets):
        """Covering radius R at most the shortest period h: R/h is 0.71 on
        the square, 0.58 hexagonal, 0.62 at 0.5+1i, 0.97 at aspect 0.6 and
        1.12 at 0.5.  An elongated cell has a compact sublattice of index k,
        the coset count, at its own scale (area k); a compact cell is its own
        single coset.  A basis with |Re tau| >= 1 is built as given, since
        make_cell would fold it."""
        if abs(w2.real) < 1:
            cell = make_cell(1.0, w2)
        else:
            scale = 1 / math.sqrt(w2.imag)
            cell = Cell(scale, w2 * scale)
        assert cell.compact is compact
        if cosets == 1:
            assert cell.cosets == (1, 0, cell)
        else:
            k, shift, sub = cell.cosets
            assert k == cosets and sub.compact
            assert abs(shift) <= cell.shortest_shift  # the shortest period
            assert sub.area == pytest.approx(k, abs=1e-14)


class TestLatticeSums:
    def test_odd_sums_exactly_zero(self, square_cell):
        for n in (3, 5, 7, 9, 15):
            assert lattice_sum(square_cell, n) == 0.0

    def test_order_below_two_rejected(self, square_cell):
        with pytest.raises(DomainError):
            lattice_sum(square_cell, 1)

    @pytest.mark.parametrize("n", [4.0, 3.5, np.float64(6.0), True])
    def test_non_integer_order_rejected(self, square_cell, n):
        with pytest.raises(DomainError, match="lattice sum order must be an integer"):
            lattice_sum(square_cell, n)

    def test_numpy_integer_orders(self, hex_cell):
        for n in (2, 5, 12):
            assert lattice_sum(hex_cell, np.int64(n)) == lattice_sum(hex_cell, n)

    def test_square_s2_is_pi(self, square_cell):
        assert lattice_sum(square_cell, 2) == pytest.approx(math.pi, abs=1e-13)

    def test_square_s4(self, square_cell):
        assert lattice_sum(square_cell, 4).real == pytest.approx(S4_SQUARE, abs=1e-10)

    def test_square_s4_vs_disk_sweep(self, square_cell):
        ref = lattice_sum_disk_sweep(square_cell, 4)
        assert lattice_sum(square_cell, 4) == pytest.approx(ref, abs=2e-9)

    def test_square_sums_real(self, square_cell):
        for n in range(2, 17):
            assert abs(lattice_sum(square_cell, n).imag) < 1e-12

    def test_hex_s2_is_pi(self, hex_cell):
        assert lattice_sum(hex_cell, 2) == pytest.approx(math.pi, abs=1e-12)

    def test_square_symmetry_kills_non_multiples_of_four(self, square_cell):
        # 90-degree rotation invariance: S_n = 0 unless 4 divides n (n > 2)
        assert abs(lattice_sum(square_cell, 6)) < 1e-13
        assert abs(lattice_sum(square_cell, 10)) < 1e-13

    def test_zeta_even_is_correctly_rounded(self):
        """The literals 2*zeta(n) of S_2, S_4 and S_6."""
        assert sorted(_TWO_ZETA) == [2, 4, 6]
        with mpmath.workdps(40):
            for n, two_zeta in _TWO_ZETA.items():
                assert two_zeta == float(2 * mpmath.zeta(n))

    # 4x the worst |S_n - ref| / max(1, |ref|) measured over n = 2..62
    MPMATH_BOUNDS = {"square_cell": 2.7e-15, "sheared_cell": 5.8e-15,
                     "hex_cell": 5.3e-15, "thin_cell": 2.2e-14}

    @pytest.mark.parametrize("name", sorted(MPMATH_BOUNDS))
    def test_sums_match_mpmath(self, name, request):
        cell = request.getfixturevalue(name)
        for n in range(2, 63, 2):
            ref = lattice_sum_mpmath(cell, n)
            err = abs(lattice_sum(cell, n) - ref) / max(1.0, abs(ref))
            assert err <= self.MPMATH_BOUNDS[name], n


class TestEisenstein:
    def test_order_below_one_rejected(self, square_cell):
        with pytest.raises(DomainError):
            eisenstein(square_cell, 0, 0.3)

    @pytest.mark.parametrize("n", [2.0, 2.5, np.float64(3.0), True])
    def test_non_integer_order_rejected(self, square_cell, n):
        with pytest.raises(DomainError, match="kernel order must be an integer"):
            eisenstein(square_cell, n, 0.3)
        with pytest.raises(DomainError, match="kernel order must be an integer"):
            eisenstein_stack(square_cell, 2, n, 0.3)

    def test_numpy_integer_orders(self, square_cell):
        z = np.array([0.3, 0.2 + 0.1j])
        for n in (1, 2, 7):
            assert np.array_equal(eisenstein(square_cell, np.int64(n), z),
                                  eisenstein(square_cell, n, z))

    def test_empty_order_range_rejected(self, square_cell):
        with pytest.raises(DomainError, match="kernel order"):
            eisenstein_stack(square_cell, 3, 2, 0.3)

    def test_near_lattice_point_refused(self, square_cell, hex_cell, sheared_cell,
                                        thin_cell):
        with pytest.raises(NearSingularityError):
            eisenstein(square_cell, 2, 1.0 + 1e-10)
        # the guard reads |z| after reduction: within the radius of any
        # lattice point is refused, just outside it is not
        for cell in (hex_cell, sheared_cell, thin_cell):
            for p in cell.stencil + 2 * cell.omega1 - cell.omega2:
                for step in (1e-10, -0.6e-9j, (-0.5 + 0.5j) * 1e-9):
                    with pytest.raises(NearSingularityError):
                        eisenstein_stack(cell, 2, 4, np.array([0.3, p + step]))
                assert np.all(np.isfinite(eisenstein_stack(cell, 2, 4, np.array([p + 2e-9]))))
        # E_1 alone reads the same guard, on an elongated cell too
        with pytest.raises(NearSingularityError):
            eisenstein(thin_cell, 1, thin_cell.omega2 + 1e-10)
        with pytest.raises(NearSingularityError):
            eisenstein_stack(thin_cell, 1, 1, np.array([0.3, 2 * thin_cell.omega1 - 0.6e-9j]))
        assert np.isfinite(eisenstein(thin_cell, 1, thin_cell.omega2 + 2e-9))

    def test_parity(self, square_cell, sheared_cell):
        rng = np.random.default_rng(11)
        for cell in (square_cell, sheared_cell):
            for n in range(1, 9):
                for _ in range(5):
                    a, b = rng.uniform(-0.45, 0.45, 2)
                    z = a * cell.omega1 + b * cell.omega2
                    if abs(z) < 0.1:
                        z += 0.2
                    left = eisenstein(cell, n, -z)
                    right = (-1) ** n * eisenstein(cell, n, z)
                    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))

    def test_e1_quasi_periodicity_100_points(self, square_cell):
        rng = np.random.default_rng(5)
        cell = square_cell
        jump = 2j * np.pi / cell.omega1
        for _ in range(100):
            a, b = rng.uniform(-0.4, 0.4, 2)
            z = complex(a, b)
            if abs(z) < 0.05:
                z += 0.2
            e1 = eisenstein(cell, 1, z)
            assert abs(eisenstein(cell, 1, z + cell.omega1) - e1) < 1e-10
            assert abs(eisenstein(cell, 1, z + cell.omega2) - e1 + jump) < 1e-10

    def test_e1_jump_on_sheared_cell(self, sheared_cell):
        cell = sheared_cell
        jump = 2j * np.pi / cell.omega1
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.uniform(-0.3, 0.3, 2)
            z = a * cell.omega1 + b * cell.omega2
            if abs(z) < 0.2:
                z += 0.25
            e1 = eisenstein(cell, 1, z)
            assert abs(eisenstein(cell, 1, z + cell.omega1) - e1) < 1e-10
            assert abs(eisenstein(cell, 1, z + cell.omega2) - e1 + jump) < 1e-10

    def test_double_periodicity(self, square_cell, sheared_cell):
        # absolute 1e-10 is only meaningful at moderate pole distance: the
        # rounding of z + omega alone shifts E_n by ~ n*|E_{n+1}|*eps
        rng = np.random.default_rng(7)
        for cell in (square_cell, sheared_cell):
            for n in range(2, 9):
                done = 0
                while done < 10:
                    a, b = rng.uniform(-0.45, 0.45, 2)
                    z = a * cell.omega1 + b * cell.omega2
                    if cell.distance(z, math.inf) < 0.3:
                        continue
                    done += 1
                    base = eisenstein(cell, n, z)
                    for omega in (cell.omega1, cell.omega2):
                        assert abs(eisenstein(cell, n, z + omega) - base) < 1e-10

    def test_e1_jumps_match_brute_force_convention(self, sheared_cell):
        # the brute-force iterated sum carries the convention independently
        cell = sheared_cell
        z = 0.11 + 0.23j
        ref = eisenstein_brute(cell, 1, z, m1_range=30000, m2_range=20)
        ref_shift = eisenstein_brute(cell, 1, z + cell.omega2, m1_range=30000, m2_range=20)
        assert abs(ref_shift - ref + 2j * np.pi / cell.omega1) < 1e-7
        assert abs(eisenstein(cell, 1, z) - ref) < 1e-7

    def test_derivative_rule(self, sheared_cell):
        cell = sheared_cell
        h = 1e-5
        z = 0.21 * cell.omega1 + 0.17 * cell.omega2
        for n in range(1, 8):
            fd = (eisenstein(cell, n, z + h) - eisenstein(cell, n, z - h)) / (2 * h)
            exact = -n * eisenstein(cell, n + 1, z)
            assert abs(fd - exact) <= 1e-6 * abs(exact)

    def test_laurent_limit(self, square_cell, sheared_cell):
        # E_n(z) - z^-n -> S_n.  The naive difference burns n digits of
        # headroom per decade of 1/|z|, so it is only checked where doubles
        # can represent it; the regularized evaluator covers the rest.
        for cell in (square_cell, sheared_cell):
            for n in (2, 3, 4):
                s_n = lattice_sum(cell, n)
                devs = []
                for radius in (1e-3, 1e-4):
                    z = radius * np.exp(0.4j)
                    naive_noise = 1e-14 * radius ** (-n)
                    if naive_noise < 1e-9:
                        diff = eisenstein(cell, n, z) - z ** (-n)
                        assert abs(diff - s_n) < 0.05
                    dev = abs(eisenstein_regularized(cell, n, z) - s_n)
                    devs.append(dev)
                assert devs[0] < 0.05
                assert devs[1] <= 0.2 * devs[0] + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n, square_cell, sheared_cell):
        for cell in (square_cell, sheared_cell):
            for z in (0.5 * cell.omega1, 0.23 * cell.omega1 + 0.31 * cell.omega2):
                ours = eisenstein(cell, n, z)
                ref = eisenstein_brute(cell, n, z, m1_range=30000, m2_range=20)
                assert abs(ours - ref) <= 1e-7 * max(1.0, abs(ref))

    def test_high_order_matches_plain_truncation(self, sheared_cell):
        from _oracles import eisenstein_truncated

        cell = sheared_cell
        z = 0.29 * cell.omega1 + 0.18 * cell.omega2
        for n in (10, 16, 30):
            ref = eisenstein_truncated(cell, n, z, 300, 25)
            assert abs(eisenstein(cell, n, z) - ref) <= 1e-11 * abs(ref)

    def test_rows_supply_what_the_recurrence_does_not(self, square_cell, thin_cell):
        """E_1 is the q-series on every cell, E_2 and E_3 on compact cells,
        bitwise, whichever orders the series was asked for."""
        z = np.array([0.31 + 0.12j, -0.4 + 0.33j, 0.05 - 0.45j])
        for cell in (square_cell, thin_cell, make_cell(1.0, 5j)):
            zr = cell.reduce(z)[0]  # inside the cell, E_1 takes no jump
            rows = 3 if cell.compact else 1
            assert np.array_equal(eisenstein_stack(cell, 1, 12, zr)[:rows],
                                  _rows(cell, 1, rows, zr))
            for n in range(1, rows + 1):
                assert np.array_equal(_rows(cell, n, n, zr)[0], _rows(cell, 1, 3, zr)[n - 1])

    def test_rows_read_orders_up_to_six(self, monkeypatch):
        """Orders n >= 4 come from the recurrence on the cosets of a compact
        sublattice and S_2..S_6 from the q-expansions of G_2, G_4, G_6, so the
        q-series serve only E_1 and the cosets' E_2 and E_3, and E_2 alone
        asks for E_2 alone."""
        calls = []

        def recording(cell, n_lo, n_hi, zr):
            calls.append((n_lo, n_hi))
            return _rows(cell, n_lo, n_hi, zr)

        monkeypatch.setattr(effcond.lattice, "_rows", recording)
        z = np.array([0.31 + 0.12j, -0.4 + 0.33j, 0.05 - 0.45j])
        for w2 in (1j, 0.2j, 5j):
            unit = make_cell(1.0, w2)
            cell = Cell(unit.omega1, unit.omega2)  # nothing cached yet
            lattice_sum(cell, 40)
            assert calls == []
            eisenstein_stack(cell, 1, 31, z)
            assert set(calls) == {(1, 1), (2, 3)}
            calls.clear()
            eisenstein_stack(cell, 2, 2, z)
            assert set(calls) == {(2, 2)}
            calls.clear()

    @pytest.mark.parametrize("w2", [1j, np.exp(1j * np.pi / 3), 0.5 + 1j, 0.6j])
    def test_compact_cell_is_one_reduction_and_one_recurrence(self, w2):
        """A compact cell is its own single coset: its stack is the recurrence
        on cell.reduce(z), bit for bit, signed zeros included."""
        cell = make_cell(1.0, w2)
        rng = np.random.default_rng(3)
        z = np.append(rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40),
                      [complex(-0.0, 0.3), complex(0.41, -0.0), complex(-0.0, -0.27)])
        got = eisenstein_stack(cell, 2, 31, z)
        want = _weierstrass_stack(cell, 31, cell.reduce(z)[0].ravel())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_order_cap(self, square_cell, thin_cell):
        """MAX_KERNEL_ORDER = 122 is accepted and finite, 123 is refused."""
        for cell in (square_cell, thin_cell):
            z = 0.31 * cell.omega1 + 0.27 * cell.omega2
            assert np.isfinite(eisenstein(cell, 122, z))
            with pytest.raises(DomainError, match="kernel order"):
                eisenstein(cell, 123, z)

    def test_vectorized_matches_scalar(self, sheared_cell):
        cell = sheared_cell
        zs = np.array([0.1 + 0.2j, -0.3 + 0.05j, 0.4 - 0.1j])
        vec = eisenstein(cell, 3, zs)
        for z, v in zip(zs, vec):
            assert v == eisenstein(cell, 3, complex(z))


class TestRegularized:
    def test_value_at_zero_is_lattice_sum(self, square_cell):
        assert eisenstein_regularized(square_cell, 2, 0.0) == pytest.approx(
            math.pi, abs=1e-12
        )
        assert eisenstein_regularized(square_cell, 3, 0.0) == 0.0

    def test_order_below_two_rejected(self, square_cell):
        with pytest.raises(DomainError):
            eisenstein_regularized(square_cell, 1, 0.1)

    def test_continuity_near_zero(self, square_cell):
        val = eisenstein_regularized(square_cell, 2, 1e-4)
        assert abs(val - math.pi) < 1e-6

    def test_series_and_direct_paths_agree(self, square_cell):
        # evaluate just outside the internal switch radius through the direct
        # path and compare with the Taylor series continued to that point
        cell = square_cell
        z = 0.4 * np.exp(0.7j)
        direct = eisenstein_regularized(cell, 5, z)
        series = sum(
            regularized_taylor_coeff(cell, 5, j) * z ** j for j in range(160)
        )
        assert abs(direct - series) < 1e-12

    def test_taylor_of_e2_near_zero(self, square_cell):
        # quadratic growth coefficient is 3*S_4
        z = 1e-2
        val = eisenstein_regularized(square_cell, 2, z)
        expected = math.pi + 3 * S4_SQUARE * z ** 2
        assert val.real == pytest.approx(expected, abs=1e-6)

    def test_periodic_representative(self, square_cell):
        # argument is folded to the nearest lattice point before subtraction
        a = eisenstein_regularized(square_cell, 4, 0.01 + 0.02j)
        b = eisenstein_regularized(square_cell, 4, 1.01 + 1.02j)
        assert a == pytest.approx(b, rel=1e-12)
