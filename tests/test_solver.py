import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from effcond import (
    ConvergenceError,
    DiskConfiguration,
    DomainError,
    EnsembleDescriptor,
    cluster_coeffs,
    esum,
    kernel_matrix,
    lambda_cluster,
    lattice_sum,
    regular_array,
    rsa_generate,
    solve_contrast,
    trial_seed,
)
import effcond.solver
from effcond.solver import w_image

from _oracles import (
    cluster_parts,
    cluster_terms_exact,
    contrast_cluster_grades,
    dense_operator,
)


@pytest.fixture(scope="module")
def rsa6():
    return rsa_generate(EnsembleDescriptor(n=6, nu=0.15, trials=1, seed=51))


class TestApplyW:
    def test_constant_field_image(self, rsa6):
        config = rsa6
        ones = np.tile(np.eye(1, 9, dtype=complex), (config.n_disks, 1))  # psi = 1
        image = w_image(config, ones)
        r2 = config.radius ** 2
        expected = r2 * kernel_matrix(config, 2).sum(axis=1)
        assert np.allclose(image[:, 0], expected, rtol=1e-13)

    def test_single_disk_square_constant(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        image = w_image(config, np.eye(1, 5, dtype=complex))  # psi = 1 on the one disk
        assert image[0, 0] == pytest.approx(config.radius ** 2 * math.pi, rel=1e-12)

    def test_zero_field_maps_to_zero(self, rsa6):
        assert not np.any(w_image(rsa6, np.zeros((6, 9), dtype=complex)))

    def test_antilinearity(self, rsa6):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        c = 0.7 - 0.4j
        left = w_image(rsa6, c * coeffs)
        right = np.conj(c) * w_image(rsa6, coeffs)
        assert np.allclose(left, right, rtol=1e-13)


class TestMatrixFreeOperator:
    def test_matches_dense_oracle_to_degree_L(self):
        config = rsa_generate(EnsembleDescriptor(n=64, nu=0.45, trials=1, seed=3))
        degree = 14
        rng = np.random.default_rng(8)
        shape = (config.n_disks, degree + 1)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = dense_operator(config, degree)
        want = (dense @ np.conj(coeffs).ravel()).reshape(config.n_disks, degree + 2)
        want = want[:, : degree + 1]  # the oracle's last column is degree L+1
        got = w_image(config, coeffs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestKrylovSolve:
    @pytest.mark.parametrize("rho", [1.0, -1.0, 0.5])
    def test_matches_successive_approximations(self, rsa6, rho):
        res = solve_contrast(rsa6, rho)
        series = solve_contrast(rsa6, rho, order=200, degree=14)
        assert res.iterations < 40
        assert res.lambda11 == pytest.approx(series.lambda11, abs=1e-10)
        assert res.lambda12 == pytest.approx(series.lambda12, abs=1e-10)

    def test_residual_is_the_fixed_point_residual(self, rsa6):
        rho = 0.9
        res = solve_contrast(rsa6, rho, tolerance=1e-13)
        psi = res.field
        ones = np.tile(np.eye(1, psi.degree + 1, dtype=complex), (rsa6.n_disks, 1))
        scale = rsa6.radius ** np.arange(psi.degree + 1)
        delta = psi.coeffs - ones - rho * w_image(rsa6, psi.coeffs)
        recomputed = (np.abs(delta) * scale).max()
        assert res.residual == pytest.approx(recomputed, rel=1e-12)
        assert res.residual <= 1e-13
        assert len(res.residual_history) == res.iterations

    def test_zero_contrast_breaks_down_exactly(self, rsa6):
        res = solve_contrast(rsa6, 0.0)
        assert res.iterations == 1 and res.residual_history[0] <= 1e-15
        assert res.residual <= 1e-15
        ones = np.tile(np.eye(1, 15, dtype=complex), (rsa6.n_disks, 1))  # psi = 1
        assert np.abs(res.field.coeffs - ones).max() <= 1e-15

    @pytest.mark.parametrize("degree", [0, 14])
    def test_single_disk_exhausts_krylov_space(self, square_cell, degree):
        # the system has N(L+1) unknowns, so GMRES ends within that many steps
        config = regular_array(square_cell, "square", 1, 0.5)
        res = solve_contrast(config, 1.0, degree=degree, tolerance=1e-14)
        series = solve_contrast(config, 1.0, order=300, degree=degree)
        assert res.iterations <= degree + 1 and res.residual <= 1e-14
        assert res.lambda11 == pytest.approx(series.lambda11, abs=1e-13)


class TestSolverControls:
    @pytest.mark.parametrize(
        "controls", [{"order": -1}, {"tolerance": 0.0}, {"degree": -1}]
    )
    def test_out_of_domain_refused(self, rsa6, controls):
        with pytest.raises(DomainError):
            solve_contrast(rsa6, 0.5, **controls)

    def test_order_zero_is_exactly_dilute(self, rsa6):
        rho = 0.5
        res = solve_contrast(rsa6, rho, order=0)
        assert res.lambda11 == 1 + 2 * rho * rsa6.nu
        assert res.lambda12 == 0.0 and res.iterations == 0

    def test_order_sets_default_degree(self, rsa6):
        # L = 2p + 2 with an order
        res = solve_contrast(rsa6, 0.5, order=3)
        assert res.field.coeffs.shape == (rsa6.n_disks, 9)

    @pytest.mark.parametrize("order", [0, 1, 5])
    def test_order_p_applies_w_p_times(self, rsa6, monkeypatch, order):
        calls = []

        def counting(config, coeffs):
            calls.append(coeffs.shape)
            return w_image(config, coeffs)

        monkeypatch.setattr(effcond.solver, "w_image", counting)
        solve_contrast(rsa6, 0.7, order=order)
        assert len(calls) == order

    def test_controls_are_keyword_only(self, rsa6):
        with pytest.raises(TypeError):
            solve_contrast(rsa6, 0.5, 14)


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
        ones = np.tile(np.eye(1, degree + 1, dtype=complex), (rsa6.n_disks, 1))  # psi = 1
        g2 = w_image(rsa6, w_image(rsa6, ones))
        grades = contrast_cluster_grades(rsa6, p_max=2, grade_max=degree + 2, degree=degree)
        total = sum(v for (p, g), v in grades.items() if p == 2)
        assert np.allclose(total, g2, rtol=1e-12, atol=1e-15)


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
        res = solve_contrast(rsa6, rho, order=1)
        e2 = esum(rsa6, (2,))
        expected = 1 + 2 * rho * nu * (1 + rho * nu * e2 / math.pi)
        assert complex(res.lambda11, -res.lambda12) == pytest.approx(
            expected, rel=1e-12
        )

    def test_order_mode_matches_fixed_point(self, rsa6):
        rho = 0.8
        tol = solve_contrast(rsa6, rho, tolerance=1e-13)
        order = solve_contrast(rsa6, rho, order=60, degree=14)
        assert tol.lambda11 == pytest.approx(order.lambda11, abs=1e-11)
        assert tol.lambda12 == pytest.approx(order.lambda12, abs=1e-11)

    def test_square_array_value(self, square_cell):
        # classic benchmark: nu = 0.2, perfect contrast, square array
        config = regular_array(square_cell, "square", 1, 0.2)
        res = solve_contrast(config, 1.0, degree=24, tolerance=1e-13)
        assert res.lambda12 == pytest.approx(0.0, abs=1e-12)
        series = lambda_cluster(0.2, cluster_coeffs(config, 1.0, 6))
        assert res.lambda11 == pytest.approx(series.lambda11, abs=2e-4)

    def test_realness_for_conjugation_symmetric_config(self, square_cell):
        centers = np.array([0.2 + 0.1j, 0.2 - 0.1j, -0.3 + 0j])
        config = DiskConfiguration(cell=square_cell, centers=centers, radius=0.07)
        res = solve_contrast(config, 0.9)
        assert abs(res.lambda12) < 1e-10

    def test_non_convergence_carries_history(self, rsa6):
        with pytest.raises(ConvergenceError) as err:
            solve_contrast(rsa6, 1.0, max_iterations=2)
        assert len(err.value.residual_history) == 2

    def test_slow_contraction_converges_within_default_budget(self):
        # a dense RSA trial (nu = 0.45, N = 64) whose successive
        # approximations contract by ~0.943 per step at rho = 1 and need 444
        # steps to reach 1e-12; GMRES needs 29 Krylov iterations
        desc = EnsembleDescriptor(n=64, nu=0.45, trials=2, seed=1080031)
        config = rsa_generate(desc, seed=trial_seed(desc.seed, 1))
        res = solve_contrast(config, 1.0)
        assert res.converged and res.iterations <= 40
        # 600 successive approximations leave a remainder of 0.943^600 ~ 5e-16
        series = solve_contrast(config, 1.0, order=600, degree=14)
        assert res.lambda11 == pytest.approx(series.lambda11, abs=1e-10)
        assert res.lambda12 == pytest.approx(series.lambda12, abs=1e-10)

    def test_kernel_stack_freed_without_cycle_collection(self):
        # the configuration owns its kernel stack; nothing the solve leaves
        # behind may refer back, or each stack lives until a cyclic collection
        config = rsa_generate(EnsembleDescriptor(n=8, nu=0.3, trials=1, seed=5))
        gc.disable()
        try:
            res = solve_contrast(config, 0.5)
            stack = weakref.ref(config._kernels)
            del config, res
            assert stack() is None
        finally:
            gc.enable()

    def test_solver_and_esums_share_one_kernel_array(self, monkeypatch):
        config = rsa_generate(EnsembleDescriptor(n=64, nu=0.45, trials=1, seed=3))
        kernel_matrix(config, 30)  # E_2..E_{2L+2} for the default L = 14
        views = []

        def recording(cfg, n):
            views.append(kernel_stack(cfg, n))
            return views[-1]

        kernel_stack = effcond.solver.kernel_stack
        monkeypatch.setattr(effcond.solver, "kernel_stack", recording)
        tracemalloc.start()
        try:
            solve_contrast(config, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        esum(config, (2, 5, 3))
        arrays = {k for k, v in vars(config).items() if isinstance(v, np.ndarray)}
        assert arrays == {"centers", "separations", "_kernels"}
        assert config._kernels.shape == (29, 64, 64)
        assert views and all(v.base is config._kernels for v in views)
        assert np.shares_memory(views[-1], kernel_matrix(config, 5))
        # the solve copies no kernels: its whole working set stays below them
        assert peak < config._kernels.nbytes

    def test_geometric_residual_decay_at_full_contrast(self):
        # enforced minimum gap of 0.2r via the inflated exclusion factor; the
        # Schwarz steps rho^p W^p(1) are the residual history of a solve with
        # an order, cut at the first one below 1e-13
        desc = EnsembleDescriptor(
            n=16, nu=0.25, trials=1, seed=77, exclusion_factor=1.1
        )
        config = rsa_generate(desc)
        for rho in (1.0, -1.0):
            res = solve_contrast(config, rho, order=300, degree=14)
            steps = res.residual_history
            first = next(p for p, step in enumerate(steps) if step <= 1e-13)
            hist = steps[: first + 1]
            assert len(hist) >= 21
            ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 21, len(hist) - 1)]
            assert max(ratios) < 0.95

    def test_truncation_stability_under_degree_refinement(self, square_cell):
        config = regular_array(square_cell, "square", 4, 0.2)
        lam = {}
        for degree in (14, 18):
            res = solve_contrast(config, 0.8, degree=degree, tolerance=1e-13)
            lam[degree] = res.lambda11
        assert abs(lam[14] - lam[18]) < 1e-8

    def test_hexagonal_cell_end_to_end(self, hex_cell):
        # non-square cells flow through kernels, sums and the solver; the
        # hexagonal array at moderate filling sits on the Pade resummation
        config = regular_array(hex_cell, "hexagonal", 1, 0.2)
        res = solve_contrast(config, 1.0, degree=16, tolerance=1e-13)
        assert abs(res.lambda12) < 1e-10
        assert res.lambda11 == pytest.approx(1.5, abs=5e-3)
        assert esum(config, (2,)) == pytest.approx(math.pi, abs=1e-11)

    def test_single_disk_full_contrast_refinement(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.1)
        results = [
            solve_contrast(config, 1.0, degree=d, tolerance=1e-12)
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
        res = solve_contrast(config, rho, degree=20, tolerance=1e-14)
        series = lambda_cluster(nu, cluster_coeffs(config, rho, 6))
        diff = abs(
            complex(res.lambda11, -res.lambda12)
            - complex(series.lambda11, -series.lambda12)
        )
        assert diff < 50 * nu ** 7

    def test_effective_wrapper(self, rsa6):
        res = solve_contrast(rsa6, 0.5)
        eff = res.effective()
        assert eff.method == "solver"
        assert eff.lambda11 == res.lambda11


class TestCoefficientTableAgainstOperator:
    def test_series_coefficients_match_grade_resolved_iterates(self):
        # Independent check of the recursion's coefficients A_1..A_10: the
        # grade-resolved operator iterates W^p(1) give the exact expansion
        # mean psi(a_k) = 1 + sum_n A_n nu^n with
        # A_n = sum_p rho^p mean(X[p,n][:,0]) / (N pi)^n, exact for
        # degree >= n - 2, through the matrix-free W.
        config = rsa_generate(EnsembleDescriptor(n=5, nu=0.18, trials=1, seed=97))
        grades = contrast_cluster_grades(config, p_max=10, grade_max=10, degree=9)
        nu = config.nu  # grade-n blocks carry r^(2n); nu^n = (N pi r^2)^n
        for rho in (0.7, -0.6):
            coeffs = cluster_coeffs(config, rho, 10)
            for n in range(1, 11):
                from_operator = sum(
                    rho ** p * np.mean(block[:, 0])
                    for (p, g), block in grades.items()
                    if g == n
                ) / nu ** n
                assert from_operator == pytest.approx(
                    coeffs.values[n - 1], rel=1e-10, abs=1e-12
                ), f"A_{n} at rho={rho}"

