import gc
import math
import weakref

import numpy as np
import pytest

from effcond import (
    ConvergenceError,
    DiskConfiguration,
    DomainError,
    EnsembleDescriptor,
    SolverParams,
    apply_W,
    cluster_coeffs,
    cluster_terms_exact,
    constant_field,
    esum,
    kernel_matrix,
    lambda_cluster,
    lattice_sum,
    regular_array,
    required_indices,
    rsa_generate,
    shape_factor,
    solve_contrast,
    trial_seed,
)
from effcond.solver import (
    TaylorField,
    _workspace,
    cluster_parts,
    contrast_cluster_grades,
)


@pytest.fixture(scope="module")
def rsa6():
    return rsa_generate(EnsembleDescriptor(n=6, nu=0.15, trials=1, seed=51))


class TestApplyW:
    def test_constant_field_image(self, rsa6):
        config = rsa6
        field = constant_field(config, 8)
        image = apply_W(config, field)
        r2 = config.radius ** 2
        expected = r2 * kernel_matrix(config, 2).sum(axis=1)
        assert np.allclose(image.coeffs[:, 0], expected, rtol=1e-13)

    def test_single_disk_square_constant(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        image = apply_W(config, constant_field(config, 4))
        assert image.coeffs[0, 0] == pytest.approx(
            config.radius ** 2 * math.pi, rel=1e-12
        )

    def test_zero_field_maps_to_zero(self, rsa6):
        field = TaylorField(config=rsa6, coeffs=np.zeros((6, 9), dtype=complex))
        image = apply_W(rsa6, field)
        assert not np.any(image.coeffs)

    def test_antilinearity(self, rsa6):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        field = TaylorField(config=rsa6, coeffs=coeffs)
        c = 0.7 - 0.4j
        scaled = TaylorField(config=rsa6, coeffs=c * coeffs)
        left = apply_W(rsa6, scaled).coeffs
        right = np.conj(c) * apply_W(rsa6, field).coeffs
        assert np.allclose(left, right, rtol=1e-13)

    def test_foreign_field_rejected(self, rsa6, square_cell):
        other = regular_array(square_cell, "square", 1, 0.2)
        with pytest.raises(DomainError):
            apply_W(rsa6, constant_field(other, 4))


class TestClusterGradeEquivalence:
    def test_grades_match_exact_low_order_blocks(self, rsa6):
        degree = 8
        grades = contrast_cluster_grades(rsa6, p_max=3, grade_max=3, degree=degree)
        parts = cluster_parts(rsa6, degree)
        for key in [(1, 1), (2, 2), (3, 3), (2, 3)]:
            got = grades[key]
            want = parts[key]
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-10 * max(scale, 1e-30)

    def test_iterate_is_sum_of_grades(self, rsa6):
        # W^2(1) splits exactly into its grade components
        degree = 6
        field = constant_field(rsa6, degree)
        g1 = apply_W(rsa6, field)
        g2 = apply_W(rsa6, g1)
        grades = contrast_cluster_grades(rsa6, p_max=2, grade_max=degree + 2, degree=degree)
        total = sum(v for (p, g), v in grades.items() if p == 2)
        assert np.allclose(total, g2.coeffs, rtol=1e-12, atol=1e-15)


class TestClusterTermsExact:
    def test_order_zero_is_one(self, rsa6):
        fields = cluster_terms_exact(rsa6, rho=0.8, upto=0)
        assert np.allclose(fields[0].coeffs[:, 0], 1.0)

    def test_first_order_center_values(self, rsa6):
        rho = 0.63
        fields = cluster_terms_exact(rsa6, rho=rho, upto=1)
        mat = kernel_matrix(rsa6, 2)
        expected = rho * mat.sum(axis=1)
        assert np.allclose(fields[1].coeffs[:, 0], expected, rtol=1e-13)

    def test_single_disk_second_order(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        rho = 0.9
        fields = cluster_terms_exact(config, rho=rho, upto=2)
        assert fields[2].coeffs[0, 0] == pytest.approx(
            rho ** 2 * math.pi ** 2, rel=1e-12
        )

    def test_beyond_printed_orders_rejected(self, rsa6):
        with pytest.raises(DomainError):
            cluster_terms_exact(rsa6, rho=0.5, upto=4)


class TestSolveContrast:
    def test_zero_contrast_immediate(self, rsa6):
        res = solve_contrast(rsa6, 0.0)
        assert res.lambda11 == 1.0
        assert res.lambda12 == 0.0
        assert res.iterations == 1
        assert res.converged

    def test_rho_domain(self, rsa6):
        with pytest.raises(DomainError):
            solve_contrast(rsa6, 1.5)

    def test_first_order_lambda(self, rsa6):
        rho = 0.44
        nu = rsa6.nu
        res = solve_contrast(rsa6, rho, SolverParams(mode="order", order=1))
        e2 = esum(rsa6, (2,))
        expected = 1 + 2 * rho * nu * (1 + rho * nu * e2 / math.pi)
        assert complex(res.lambda11, -res.lambda12) == pytest.approx(
            expected, rel=1e-12
        )

    def test_order_mode_matches_fixed_point(self, rsa6):
        rho = 0.8
        tol = solve_contrast(rsa6, rho, SolverParams(tolerance=1e-13))
        order = solve_contrast(rsa6, rho, SolverParams(mode="order", order=60, degree=14))
        assert tol.lambda11 == pytest.approx(order.lambda11, abs=1e-11)
        assert tol.lambda12 == pytest.approx(order.lambda12, abs=1e-11)

    def test_square_array_value(self, square_cell):
        # classic benchmark: nu = 0.2, perfect contrast, square array
        config = regular_array(square_cell, "square", 1, 0.2)
        res = solve_contrast(config, 1.0, SolverParams(degree=24, tolerance=1e-13))
        assert res.lambda12 == pytest.approx(0.0, abs=1e-12)
        series = lambda_cluster(
            1.0,
            0.2,
            cluster_coeffs(
                {i.entries: esum(config, i) for i in required_indices(6)}, 1.0, 6
            ),
        )
        assert res.lambda11 == pytest.approx(series.lambda11, abs=2e-4)

    def test_realness_for_conjugation_symmetric_config(self, square_cell):
        centers = np.array([0.2 + 0.1j, 0.2 - 0.1j, -0.3 + 0j])
        config = DiskConfiguration(cell=square_cell, centers=centers, radius=0.07)
        res = solve_contrast(config, 0.9)
        assert abs(res.lambda12) < 1e-10

    def test_non_convergence_carries_history(self, rsa6):
        with pytest.raises(ConvergenceError) as err:
            solve_contrast(rsa6, 1.0, SolverParams(max_iterations=2))
        assert len(err.value.residual_history) == 2

    def test_slow_contraction_converges_within_default_budget(self):
        # a dense RSA trial (nu = 0.45, N = 64) whose fixed-point iteration
        # contracts by ~0.943 per step at rho = 1 and needs 444 iterations
        desc = EnsembleDescriptor(n=64, nu=0.45, trials=2, seed=1080031)
        config = rsa_generate(desc, seed=trial_seed(desc.seed, 1))
        res = solve_contrast(config, 1.0)
        assert res.converged and res.iterations > 400

    def test_workspace_freed_without_cycle_collection(self):
        # the configuration owns its workspace; the workspace must not refer
        # back, or each solve's operator lives until a cyclic collection
        config = rsa_generate(EnsembleDescriptor(n=8, nu=0.3, trials=1, seed=5))
        gc.disable()
        try:
            res = solve_contrast(config, 0.5)
            ws = weakref.ref(_workspace(config, res.field.degree))
            del config, res
            assert ws() is None
        finally:
            gc.enable()

    def test_geometric_residual_decay_at_full_contrast(self):
        # enforced minimum gap of 0.2r via the inflated exclusion factor
        desc = EnsembleDescriptor(
            n=16, nu=0.25, trials=1, seed=77, exclusion_factor=1.1
        )
        config = rsa_generate(desc)
        for rho in (1.0, -1.0):
            res = solve_contrast(
                config, rho, SolverParams(tolerance=1e-13, max_iterations=300)
            )
            hist = res.residual_history
            assert len(hist) >= 21
            ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 21, len(hist) - 1)]
            assert max(ratios) < 0.95

    def test_truncation_stability_under_degree_refinement(self, square_cell):
        config = regular_array(square_cell, "square", 4, 0.2)
        lam = {}
        for degree in (14, 18):
            res = solve_contrast(
                config, 0.8, SolverParams(degree=degree, tolerance=1e-13)
            )
            lam[degree] = res.lambda11
        assert abs(lam[14] - lam[18]) < 1e-8

    def test_hexagonal_cell_end_to_end(self, hex_cell):
        # non-square cells flow through kernels, sums and the solver; the
        # hexagonal array at moderate filling sits on the Pade resummation
        config = regular_array(hex_cell, "hexagonal", 1, 0.2)
        res = solve_contrast(config, 1.0, SolverParams(degree=16, tolerance=1e-13))
        assert abs(res.lambda12) < 1e-10
        assert res.lambda11 == pytest.approx(1.5, abs=5e-3)
        assert esum(config, (2,)) == pytest.approx(math.pi, abs=1e-11)

    def test_single_disk_full_contrast_refinement(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.1)
        results = [
            solve_contrast(config, 1.0, SolverParams(degree=d, tolerance=1e-12))
            for d in (14, 18)
        ]
        assert results[0].converged and results[0].residual <= 1e-12
        assert abs(results[0].lambda11 - results[1].lambda11) < 1e-9

    def test_series_match_light(self):
        # the solved value approaches the order-6 series like nu^7-ish on a
        # fixed set of centers; full fitted-exponent check in acceptance
        desc = EnsembleDescriptor(n=4, nu=0.15, trials=1, seed=5, exclusion_factor=1.2)
        base = rsa_generate(desc)
        nu = 0.1
        r = math.sqrt(nu / (4 * math.pi))
        config = DiskConfiguration(cell=base.cell, centers=base.centers, radius=r)
        rho = 0.8
        res = solve_contrast(config, rho, SolverParams(degree=20, tolerance=1e-14))
        table = {i.entries: esum(config, i) for i in required_indices(6)}
        series = lambda_cluster(rho, nu, cluster_coeffs(table, rho, 6))
        diff = abs(
            complex(res.lambda11, -res.lambda12)
            - complex(series.lambda11, -series.lambda12)
        )
        assert diff < 50 * nu ** 7

    def test_truncation_tail_reported(self, rsa6):
        res = solve_contrast(rsa6, 0.7)
        assert res.truncation_tail >= 0.0

    def test_effective_wrapper(self, rsa6):
        res = solve_contrast(rsa6, 0.5)
        eff = res.effective()
        assert eff.method == "solver"
        assert eff.lambda11 == res.lambda11

    def test_iteration_dump_flag(self, rsa6, tmp_path):
        import json

        path = tmp_path / "fields.json"
        res = solve_contrast(
            rsa6, 0.6, SolverParams(degree=6, dump_path=str(path))
        )
        records = json.loads(path.read_text())
        assert len(records) == res.iterations
        assert records[0]["iteration"] == 1
        coeffs = records[-1]["coeffs"]
        assert len(coeffs) == rsa6.n_disks
        final = complex(*coeffs[0][0])
        assert final == pytest.approx(complex(res.field.coeffs[0, 0]))


class TestCoefficientTableAgainstOperator:
    def test_series_coefficients_match_grade_resolved_iterates(self):
        # Independent check of the whole closed-form coefficient table: the
        # grade-resolved operator iterates W^p(1) give the exact expansion
        # mean psi(a_k) = 1 + sum_n A_n nu^n with
        # A_n = sum_p rho^p mean(X[p,n][:,0]) / (N pi)^n, no printed
        # coefficients involved.
        config = rsa_generate(EnsembleDescriptor(n=5, nu=0.18, trials=1, seed=97))
        grades = contrast_cluster_grades(config, p_max=6, grade_max=6, degree=9)
        nu = config.nu  # grade-n blocks carry r^(2n); nu^n = (N pi r^2)^n
        for rho in (0.7, -0.6):
            table = {
                idx.entries: esum(config, idx) for idx in required_indices(6)
            }
            coeffs = cluster_coeffs(table, rho, 6)
            for n in range(1, 7):
                from_operator = sum(
                    rho ** p * np.mean(block[:, 0])
                    for (p, g), block in grades.items()
                    if g == n
                ) / nu ** n
                assert from_operator == pytest.approx(
                    coeffs.values[n - 1], rel=1e-10, abs=1e-12
                ), f"A_{n} at rho={rho}"


class TestTaylorFieldEvaluation:
    def test_polynomial_evaluation(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.1)
        coeffs = np.array([[1.0 + 0j, 2.0 + 0j, 0.5 + 0j]])
        field = TaylorField(config=config, coeffs=coeffs)
        z = 0.03 + 0.01j
        assert field(z) == pytest.approx(1 + 2 * z + 0.5 * z ** 2)


class TestShapeFactor:
    def test_dilute_limit_is_one(self, square_cell):
        assert shape_factor(square_cell, 0.005) == pytest.approx(1.0, abs=1e-4)

    def test_moderate_concentration_close_to_one(self, square_cell):
        nu = 0.1
        alpha = shape_factor(square_cell, math.sqrt(nu / math.pi))
        assert abs(alpha - 1.0) < 0.05
        assert abs(alpha - 1.0) < 0.5 * nu  # quadratic, not linear, in nu

    def test_contrast_independence_of_leading_term(self, square_cell):
        nu = 0.1
        r = math.sqrt(nu / math.pi)
        a_half = shape_factor(square_cell, r, rho=0.5)
        a_full = shape_factor(square_cell, r, rho=1.0)
        assert abs(a_half - a_full) < 0.5 * nu ** 2

    def test_domain(self, square_cell):
        with pytest.raises(DomainError):
            shape_factor(square_cell, 0.7)
