import math

import numpy as np
import pytest

from effcond import (
    DomainError,
    EnsembleDescriptor,
    a13,
    cluster_coeffs,
    esum,
    esum_nn,
    lambda_cluster,
    lambda_contrast,
    lambda_dilute,
    lambda_pade,
    regular_array,
    rsa_generate,
    solve_contrast,
    zeta1,
)

from _oracles import COEFFICIENT_TABLE, cluster_coeffs_table, required_indices, series_terms


@pytest.fixture(scope="module")
def rsa8_table():
    config = rsa_generate(EnsembleDescriptor(n=8, nu=0.2, trials=1, seed=33))
    table = {idx: esum(config, idx) for idx in required_indices(6)}
    nn = {n: esum_nn(config, n) for n in range(2, 13)}
    return config, table, nn


class TestSeriesTerms:
    def test_degree_paths_match_printed_table(self):
        for n in range(1, 7):
            assert set(series_terms(n)) == set(COEFFICIENT_TABLE[n]), f"A_{n}"
            assert len(series_terms(n)) == len(COEFFICIENT_TABLE[n])

    def test_rho_powers_ascend_and_indices_are_distinct(self):
        for n in range(1, 13):
            powers = [p for _, p, _ in series_terms(n)]
            assert powers == sorted(powers)
        entries = required_indices(12)
        assert len(entries) == len(set(entries)) == 2 ** 11


class TestRecursionAgainstTable:
    """The degree-state recursion against one structural sum per degree path."""

    @pytest.mark.parametrize("omega2", [1j, np.exp(1j * np.pi / 3), 0.3j],
                             ids=["square", "hexagonal", "aspect-0.3"])
    def test_matches_closed_form_table(self, omega2):
        desc = EnsembleDescriptor(n=12, nu=0.3, trials=1, seed=41, cell_omega2=omega2)
        config = rsa_generate(desc)
        table = {idx: esum(config, idx) for idx in required_indices(10)}
        for order in range(1, 11):
            for rho in (1.0, 0.8, -0.6):
                got = cluster_coeffs(config, rho, order).values
                want = cluster_coeffs_table(table, rho, order).values
                assert len(got) == order
                for n, (a, b) in enumerate(zip(got, want), start=1):
                    assert a == pytest.approx(b, rel=1e-13), f"A_{n}, J={order}, rho={rho}"
            assert cluster_coeffs(config, 0.0, order).values == (0j,) * order


class TestClusterCoeffs:
    def test_single_disk_square_first_orders(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        coeffs = cluster_coeffs(config, rho=1.0, order=2)
        assert coeffs.values[0] == pytest.approx(1.0, abs=1e-12)
        assert coeffs.values[1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_contrast_zeroes_all(self, rsa8_table):
        config, _, _ = rsa8_table
        coeffs = cluster_coeffs(config, rho=0.0, order=6)
        assert all(v == 0.0 for v in coeffs.values)

    def test_missing_index_named(self):
        # the table oracle names the structural sum it lacks
        with pytest.raises(DomainError, match="e_2-2 required for A_2"):
            cluster_coeffs_table({(2,): 3.14}, rho=0.5, order=3)

    def test_order_range(self, rsa8_table):
        config, _, _ = rsa8_table
        for order in (0, 13):
            with pytest.raises(DomainError):
                cluster_coeffs(config, rho=0.5, order=order)
        with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
            cluster_coeffs(config, rho=1.5, order=2)

    def test_rho_parity_structure(self, rsa8_table):
        # terms with even powers of rho are even under rho negation, odd
        # powers odd; verified against the printed table split by parity
        config, table, _ = rsa8_table
        rho = 0.73
        plus = cluster_coeffs(config, rho, 6).values
        minus = cluster_coeffs(config, -rho, 6).values
        for n in range(1, 7):
            even = sum(
                pref * rho ** p * table[e]
                for pref, p, e in COEFFICIENT_TABLE[n]
                if p % 2 == 0
            ) / math.pi ** n
            odd = sum(
                pref * rho ** p * table[e]
                for pref, p, e in COEFFICIENT_TABLE[n]
                if p % 2 == 1
            ) / math.pi ** n
            assert plus[n - 1] == pytest.approx(even + odd, rel=1e-12, abs=1e-15)
            assert minus[n - 1] == pytest.approx(even - odd, rel=1e-12, abs=1e-15)


class TestLambdaCluster:
    def test_zero_contrast_gives_one(self, rsa8_table):
        config, _, _ = rsa8_table
        coeffs = cluster_coeffs(config, rho=0.0, order=6)
        result = lambda_cluster(0.3, coeffs)
        assert result.lambda11 == 1.0
        assert result.lambda12 == 0.0

    def test_order_one_by_hand(self, rsa8_table):
        config, table, _ = rsa8_table
        rho, nu = 0.6, 0.14
        coeffs = cluster_coeffs(config, rho, 1)
        result = lambda_cluster(nu, coeffs)
        a1 = rho * table[(2,)] / math.pi
        expected = 1 + 2 * rho * nu * (1 + a1 * nu)
        assert result.lambda11 == pytest.approx(expected.real, rel=1e-14)
        assert result.lambda12 == pytest.approx(-expected.imag, rel=1e-12, abs=1e-14)

    def test_order_zero_is_exactly_dilute(self):
        from effcond import ClusterCoefficients

        rho, nu = 0.7, 0.01
        coeffs = ClusterCoefficients(order=0, values=(), rho=rho)
        result = lambda_cluster(nu, coeffs)
        assert result.lambda11 == 1 + 2 * rho * nu
        assert result.lambda12 == 0.0

    def test_contrast_read_from_coefficients(self, rsa8_table):
        config, _, _ = rsa8_table
        nu = 0.2
        coeffs = cluster_coeffs(config, 0.8, 6)
        series = 1.0 + sum(a_n * nu ** n for n, a_n in enumerate(coeffs.values, 1))
        expected = 1.0 + 2.0 * coeffs.rho * nu * series
        result = lambda_cluster(nu, coeffs)
        assert result.lambda11 == pytest.approx(expected.real, rel=1e-14)
        assert result.lambda12 == pytest.approx(-expected.imag, rel=1e-12, abs=1e-15)

    def test_nu_domain(self, rsa8_table):
        config, _, _ = rsa8_table
        coeffs = cluster_coeffs(config, 0.5, 2)
        for nu in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                lambda_cluster(nu, coeffs)

    def test_lambda_at_least_one_for_positive_contrast(self, rsa8_table):
        config, _, _ = rsa8_table
        for rho in (0.0, 0.3, 0.7, 1.0):
            coeffs = cluster_coeffs(config, rho, 6)
            for nu in (0.05, 0.15, 0.3):
                assert lambda_cluster(nu, coeffs).lambda11 >= 1.0

    def test_order_consistency_exponent(self, rsa8_table):
        # |lambda(J) - lambda(J-1)| = 2|rho A_J| nu^(J+1) on a fixed
        # configuration, so the fitted exponent is J+1
        config, _, _ = rsa8_table
        rho = 0.8
        for J in (3, 4, 5, 6):
            nus = np.array([0.05, 0.1, 0.15, 0.2, 0.25])
            diffs = []
            for nu in nus:
                hi = lambda_cluster(nu, cluster_coeffs(config, rho, J))
                lo = lambda_cluster(nu, cluster_coeffs(config, rho, J - 1))
                diffs.append(
                    abs(complex(hi.lambda11, -hi.lambda12) - complex(lo.lambda11, -lo.lambda12))
                )
            slope = np.polyfit(np.log(nus), np.log(diffs), 1)[0]
            assert slope >= J + 0.5


    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_approaches_solver_as_order_grows(self, seed):
        # at nu = 0.1 every RSA configuration sits well inside the series'
        # radius of convergence: |lambda_J - lambda_solver| falls strictly
        # over J = 2, 4, ..., 12 at rho = +-1 (J = 12 at rho = 1: 1.9e-5 to
        # 1.35e-4 over these seeds)
        config = rsa_generate(EnsembleDescriptor(n=32, nu=0.1, trials=1, seed=seed))
        for rho in (1.0, -1.0):
            ref = solve_contrast(
                config, rho, degree=30, tolerance=1e-14, max_iterations=400
            ).lambda11
            errors = [
                abs(lambda_cluster(config.nu, cluster_coeffs(config, rho, J)).lambda11
                    - ref)
                for J in range(2, 13, 2)
            ]
            assert all(hi > lo for hi, lo in zip(errors, errors[1:])), errors
            if rho == 1.0:
                assert errors[-1] < 2e-4

class TestLambdaContrast:
    def test_zero_contrast(self, rsa8_table):
        config, _, nn = rsa8_table
        result = lambda_contrast(0.25, nn, 0.0, e2=esum(config, (2,)))
        assert result.lambda11 == 1.0
        assert result.lambda12 == 0.0

    def test_isotropic_rho2_coefficient(self, rsa8_table):
        # at the ensemble mean e2 = pi the rho^2 coefficient is exactly 2 nu^2
        _, _, nn = rsa8_table
        nu = 0.22
        rhos = np.linspace(-0.4, 0.4, 9)
        values = [
            complex(r.lambda11, -r.lambda12)
            for r in (lambda_contrast(nu, nn, rho, 8, e2=math.pi) for rho in rhos)
        ]
        coeffs = np.polynomial.polynomial.polyfit(rhos, values, 3)
        assert coeffs[2].real == pytest.approx(2 * nu ** 2, rel=1e-10)

    def test_truncation_diagnostic_reported(self, rsa8_table):
        _, _, nn = rsa8_table
        result = lambda_contrast(0.2, nn, 0.5, 6, e2=math.pi)
        assert "last_tail_term" in result.diagnostics
        assert result.diagnostics["last_tail_term"] >= 0.0

    def test_nmax_domain(self, rsa8_table):
        _, _, nn = rsa8_table
        with pytest.raises(DomainError):
            lambda_contrast(0.2, nn, 0.5, 1, e2=math.pi)

    def test_missing_order_named(self):
        with pytest.raises(DomainError, match="e_33 required"):
            lambda_contrast(0.2, {2: math.pi}, 0.5, 3, e2=math.pi)


class TestCrossExpansionConsistency:
    def test_common_taylor_coefficients(self, rsa8_table):
        # coefficients of rho, rho^2 and rho^3 extracted from the cluster
        # series by polynomial fitting match the contrast-series formulas
        config, table, nn = rsa8_table
        nu = 0.2
        order = 6
        rhos = np.linspace(-1.0, 1.0, 9)
        values = []
        for rho in rhos:
            res = lambda_cluster(nu, cluster_coeffs(config, rho, order))
            values.append(complex(res.lambda11, -res.lambda12))
        fit = np.polynomial.polynomial.polyfit(rhos, values, 7)

        assert fit[1] == pytest.approx(2 * nu, rel=1e-10)
        e2 = table[(2,)]
        assert fit[2] == pytest.approx(2 * nu ** 2 * e2 / math.pi, rel=1e-9)
        rho3 = 2 * sum(
            (-1) ** n * (n - 1) * nn[n] * nu ** (n + 1) / math.pi ** n
            for n in range(2, order + 1)
        )
        assert fit[3] == pytest.approx(rho3, rel=1e-8)


class TestZeta1:
    def test_bracket_minus_one_when_sums_vanish(self):
        table = {n: 0.0 for n in range(2, 9)}
        nu = 0.3
        assert zeta1(nu, table, 8) == pytest.approx(-nu ** 2 / (1 - nu), rel=1e-14)

    def test_leading_term_only(self):
        table = {2: 1.2 * math.pi ** 2}
        nu = 0.1
        expected = nu ** 2 / (1 - nu) * (1.2 - 1.0)
        assert zeta1(nu, table, 2) == pytest.approx(expected, rel=1e-12)

    def test_identity_with_a13(self, rsa8_table):
        _, _, nn = rsa8_table
        # symmetrize to an isotropic-like table
        table = {n: v.real for n, v in nn.items()}
        nu = 0.27
        z = zeta1(nu, table, 12)
        assert a13(nu, table, 12) == pytest.approx(z * nu * (1 - nu), abs=1e-14)

    def test_a13_zero_when_bracket_vanishes(self):
        table = {2: math.pi ** 2}
        assert a13(0.2, table, 2) == pytest.approx(0.0, abs=1e-16)

    def test_nu_domain(self):
        with pytest.raises(DomainError):
            zeta1(1.0, {2: 0.0}, 2)

    @pytest.mark.parametrize("n_max", [1, 0, -3])
    def test_nmax_domain(self, n_max):
        # the tail starts at e_22, so a cutoff below 2 has no terms to sum
        with pytest.raises(DomainError):
            zeta1(0.3, {}, n_max)


class TestDiluteAndPade:
    def test_perfect_contrast_half_filling(self):
        assert lambda_pade(0.5, 1.0).lambda11 == pytest.approx(3.0)
        assert lambda_dilute(0.5, 1.0).lambda11 == pytest.approx(2.0)

    def test_zero_contrast(self):
        assert lambda_dilute(0.3, 0.0).lambda11 == 1.0
        assert lambda_pade(0.3, 0.0).lambda11 == 1.0

    def test_both_near_cluster_series_at_low_nu(self, rsa8_table):
        config, _, _ = rsa8_table
        nu, rho = 0.05, 1.0
        ref = lambda_cluster(nu, cluster_coeffs(config, rho, 6)).lambda11
        dil = lambda_dilute(nu, rho).lambda11
        pad = lambda_pade(nu, rho).lambda11
        assert abs(dil - ref) < 3 * nu ** 2
        assert abs(pad - ref) < 3 * nu ** 2
        assert dil == pytest.approx(1.1)
        assert pad == pytest.approx(1.05 / 0.95)

    def test_method_tags(self):
        assert lambda_dilute(0.1, 0.5).method == "dilute"
        assert lambda_pade(0.1, 0.5).method == "pade"

    def test_result_dict(self):
        d = lambda_pade(0.1, 0.5).to_dict()
        assert d["method"] == "pade"
        assert d["lambda_e"] == d["lambda11"]
