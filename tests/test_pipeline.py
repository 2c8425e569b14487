import json
import math

import numpy as np
import pytest

from effcond import (
    DomainError,
    EnsembleDescriptor,
    GenerationError,
    esum,
    parse_quantity,
    run_ensemble,
    rsa_generate,
    save_configuration,
    trial_seed,
    write_run,
)
from effcond.esums import esum_nn
from effcond.serialize import dump_json, format_float
from effcond.pipeline import (
    QuantitySpec, compare_csv, compare_methods, evaluate, iter_trials,
)
from effcond.series import (
    ClusterCoefficients, cluster_coeffs, lambda_cluster, lambda_contrast, zeta1,
)
from effcond.solver import solve_contrast


class TestParseQuantity:
    def test_esum_compact(self):
        spec = parse_quantity("e22")
        assert spec.kind == "esum"
        assert spec.index == (2, 2)
        assert spec.columns() == ["e22_re", "e22_im"]

    def test_esum_hyphenated(self):
        assert parse_quantity("e3-3-2").index == (3, 3, 2)

    def test_lambda_solver(self):
        spec = parse_quantity("lambda-solver:0.8")
        assert spec.kind == "lambda_solver"
        assert spec.rho == 0.8

    def test_lambda_series_default_order(self):
        spec = parse_quantity("lambda-series:1.0")
        assert spec.order == 6
        assert spec.token == "lambda-series:1.0:6"

    def test_zeta1(self):
        spec = parse_quantity("zeta1:8")
        assert spec.kind == "zeta1"
        assert spec.n_max == 8

    @pytest.mark.parametrize("bad", ["x2", "lambda-solver", "e1", "zeta1:2:3",
                                     "zeta1:x", "lambda-solver:", "e2-",
                                     "lambda-series:0.8:abc"])
    def test_bad_tokens(self, bad):
        with pytest.raises(DomainError):
            parse_quantity(bad)

    def test_entry_above_kernel_orders_refused(self):
        # the highest kernel order is 122, so an esum token is refused at parse
        assert parse_quantity("e2-122").index == (2, 122)
        with pytest.raises(DomainError, match=r"in 2\.\.122, got \(2, 123\)"):
            parse_quantity("e2-123")

    @pytest.mark.parametrize("bad, part", [
        ("zeta1:x", "'x'"), ("lambda-solver:", "''"), ("e2-", "''"),
        ("lambda-series:0.8:abc", "'abc'"), ("e2x", "'x'"),
    ])
    def test_malformed_number_names_the_token(self, bad, part):
        with pytest.raises(DomainError) as err:
            parse_quantity(bad)
        assert str(err.value) == f"bad number {part} in quantity token {bad!r}"

    @pytest.mark.parametrize("token, canonical", [
        ("e2", "e2"), ("e3-3-2", "e332"), ("e22-2", "e22-2"), ("e2-22", "e2-22"),
        ("e222", "e222"), ("e10-2", "e10-2"), ("lambda-solver:1", "lambda-solver:1"),
        ("lambda-series:.5", "lambda-series:.5:6"), ("lambda-series:1:08", "lambda-series:1:8"),
        ("zeta1", "zeta1:12"), ("zeta1:012", "zeta1:12"),
    ])
    def test_canonical_token_reparses_to_itself(self, token, canonical):
        spec = parse_quantity(token)
        assert spec.token == canonical
        assert parse_quantity(canonical) == spec

    @pytest.mark.parametrize("kind, fields", [
        ("esum", {"index": (1,)}), ("esum", {"index": ()}),
        ("lambda_solver", {"rho": 1.5}), ("lambda_series", {"rho": -2.0}),
        ("lambda_series", {"order": 13}), ("lambda_contrast", {"rho": 1.1}),
        ("lambda_contrast", {"n_max": 1}), ("zeta1", {"n_max": 123}), ("bogus", {}),
    ])
    def test_spec_is_checked_when_made(self, kind, fields):
        with pytest.raises(DomainError):
            QuantitySpec("q", kind, **fields)

    # refused when made, not at the first kernel build after an RSA placement
    @pytest.mark.parametrize("kind, fields, message", [
        ("lambda_series", {"rho": 0.5, "order": 6.5}, "series order must be an integer"),
        ("lambda_series", {"rho": 0.5, "order": True}, "series order must be an integer"),
        ("lambda_contrast", {"rho": 0.5, "n_max": 9.0}, "cutoff n_max must be an integer"),
        ("zeta1", {"n_max": 12.5}, "cutoff n_max must be an integer"),
        ("zeta1", {"n_max": True}, "cutoff n_max must be an integer"),
    ])
    def test_non_integer_order_or_cutoff_refused(self, kind, fields, message):
        with pytest.raises(DomainError, match=message):
            QuantitySpec("q", kind, **fields)

    def test_numpy_integer_order_and_cutoff_accepted(self):
        assert QuantitySpec("q", "lambda_series", rho=0.5, order=np.int64(6)).order == 6
        assert QuantitySpec("q", "zeta1", n_max=np.int32(12)).n_max == 12


class TestRunEnsemble:
    def test_single_trial_passthrough(self):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=1, seed=13)
        stats = run_ensemble(desc, ["e2"])
        config = rsa_generate(desc, seed=trial_seed(13, 0))
        direct = esum(config, (2,))
        assert stats.stats["e2_re"]["mean"] == direct.real
        assert stats.stats["e2_re"]["stderr"] is None

    def test_deterministic_rerun(self):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=4, seed=2)
        a = run_ensemble(desc, ["e2", "e22"])
        b = run_ensemble(desc, ["e2", "e22"])
        assert a.per_trial == b.per_trial
        assert a.stats == b.stats

    def test_e2_mean_approaches_pi(self):
        desc = EnsembleDescriptor(n=16, nu=0.25, trials=120, seed=99)
        stats = run_ensemble(desc, ["e2"])
        mean = stats.stats["e2_re"]["mean"]
        stderr = stats.stats["e2_re"]["stderr"]
        assert abs(mean - math.pi) < max(5 * stderr, 0.05 * math.pi)
        assert abs(stats.stats["e2_im"]["mean"]) < 5 * stats.stats["e2_im"]["stderr"]

    def test_lambda_quantities_and_isotropy(self):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=24, seed=4)
        stats = run_ensemble(desc, ["lambda-series:0.8:4", "lambda-solver:0.8"])
        key = "lambda-series:0.8:4"
        assert f"{key}_lambda_e" in stats.extras
        assert stats.extras[f"{key}_isotropy_ok"]
        assert stats.extras["lambda-solver:0.8_isotropy_ok"]
        # the two routes agree at low volume fraction
        assert stats.extras[f"{key}_lambda_e"] == pytest.approx(
            stats.extras["lambda-solver:0.8_lambda_e"], abs=5e-3
        )

    def test_series_reduction_routes_reported(self):
        # the _from_mean_esums key is the mean of lambda: lambda is affine in
        # A_n, so lambda of the mean coefficients differs only by rounding
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=10, seed=5)
        stats = run_ensemble(desc, ["lambda-series:0.5:3"])
        key = "lambda-series:0.5:3"
        coeffs = [cluster_coeffs(config, 0.5, 3).values for _, _, config in iter_trials(desc)]
        mean = ClusterCoefficients(3, tuple(np.mean(coeffs, axis=0)), 0.5)
        from_mean = lambda_cluster(desc.nu, mean).lambda11
        assert stats.extras[f"{key}_from_mean_esums"] == stats.extras[f"{key}_lambda_e"]
        assert stats.extras[f"{key}_from_mean_esums"] == pytest.approx(from_mean, rel=1e-12)

    def test_series_quantities_share_one_table(self, monkeypatch):
        import effcond.pipeline as pipeline
        import effcond.series as series

        desc = EnsembleDescriptor(n=8, nu=0.2, trials=2, seed=5)
        tokens = ["lambda-series:0.8:6", "lambda-series:1.0:6"]
        alone = [run_ensemble(desc, [t]) for t in tokens]
        calls = []
        products = []

        def counting(config, index):
            calls.append(index)
            return esum(config, index)

        def counting_matvec(mat, vec):
            products.append(mat.shape)
            return series_matvec(mat, vec)

        series_matvec = series._matvec
        monkeypatch.setattr(pipeline, "esum", counting)
        monkeypatch.setattr(series, "_matvec", counting_matvec)
        both = run_ensemble(desc, ["zeta1:6"] + tokens)
        assert calls == []  # the series read the kernel stack, not structural sums
        assert len(products) == 2 * 2 * 30  # 30 products per order-6 recursion
        for one in alone:
            for key, value in one.stats.items():
                assert both.stats[key] == value
            for key, value in one.extras.items():
                assert both.extras[key] == value

    def test_one_kernel_pass_per_trial(self, kernel_passes):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=3, seed=5)
        run_ensemble(desc, ["lambda-series:0.8:6", "zeta1:12"])
        assert kernel_passes == [(2, 12)] * desc.trials
        kernel_passes.clear()
        run_ensemble(desc, ["lambda-series:0.8:8"])  # order J reads E_2..E_J
        assert kernel_passes == [(2, 8)] * desc.trials
        kernel_passes.clear()
        run_ensemble(desc, ["e2", "lambda-solver:1.0"])  # degree 14 reads E_2..E_30
        assert kernel_passes == [(2, 30)] * desc.trials

    def test_one_min_image_pass_per_trial(self, distance_shapes):
        # one cell list per ensemble, shared by RSA and construction; per
        # trial, RSA's first chunk of 64 draws all survive and place the 8
        # disks, construction takes the N centers once, and the kernel build
        # takes no distance
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=3, seed=5)
        run_ensemble(desc, ["e2"])
        assert distance_shapes == ["grid"] + [(64,), (8,)] * desc.trials

    def test_zeta1_quantity(self):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=12, seed=6)
        stats = run_ensemble(desc, ["zeta1:6"])
        rec = stats.stats["zeta1:6"]
        assert np.isfinite(rec["mean"])
        assert rec["stderr"] > 0

    def test_generation_failure_aborts_with_trial_index(self):
        desc = EnsembleDescriptor(
            n=64, nu=0.5, trials=3, seed=1, attempt_budget=100
        )
        with pytest.raises(GenerationError) as err:
            run_ensemble(desc, ["e2"])
        assert "trial 0" in str(err.value)

    def test_distinct_sums_get_distinct_columns(self):
        # e22-2, e2-22 and e222 are three sums; each keeps its own columns
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=3, seed=17)
        tokens = ["e22-2", "e2-22", "e222"]
        stats = run_ensemble(desc, tokens)
        assert stats.columns == [f"{t}_{part}" for t in tokens for part in ("re", "im")]
        configs = [config for _, _, config in iter_trials(desc)]
        for token, index in zip(tokens, [(22, 2), (2, 22), (2, 2, 2)]):
            values = np.array([esum(config, index) for config in configs])
            assert stats.stats[f"{token}_re"]["mean"] == float(values.real.mean())
            assert stats.stats[f"{token}_im"]["mean"] == float(values.imag.mean())

    def test_empty_quantities_rejected(self):
        desc = EnsembleDescriptor(n=4, nu=0.1, trials=1, seed=0)
        with pytest.raises(DomainError):
            run_ensemble(desc, [])


class TestEvaluate:
    def test_every_kind_matches_its_direct_call(self, kernel_passes):
        desc = EnsembleDescriptor(n=12, nu=0.35, trials=1, seed=23)
        config = rsa_generate(desc, seed=trial_seed(23, 0))
        nu = config.nu
        specs = [QuantitySpec("e", "esum", index=(3, 2)),
                 QuantitySpec("s", "lambda_solver", rho=0.7),
                 QuantitySpec("c", "lambda_series", rho=-0.6, order=5),
                 QuantitySpec("t", "lambda_contrast", rho=0.4, n_max=9),
                 QuantitySpec("z", "zeta1", n_max=7)]
        values = evaluate(config, specs, nu)
        assert kernel_passes == [(2, 30)]  # one pass, to the solver's E_30
        nn_table = {n: esum_nn(config, n) for n in range(2, 10)}
        assert values == [
            esum(config, (3, 2)),
            solve_contrast(config, 0.7).effective(),
            lambda_cluster(nu, cluster_coeffs(config, -0.6, 5)),
            lambda_contrast(nu, nn_table, 0.4, 9, e2=esum(config, (2,))),
            zeta1(nu, nn_table, 7),
        ]
        assert kernel_passes == [(2, 30)]


class TestWriteRun:
    def test_layout_and_determinism(self, tmp_path):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=3, seed=42)
        quantities = ["e2", "lambda-solver:0.5"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        paths_a = write_run(out_a, run_ensemble(desc, quantities), quantities)
        paths_b = write_run(out_b, run_ensemble(desc, quantities), quantities)
        for name in ("results", "trials"):
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()
        manifest = json.loads(paths_a["manifest"].read_text())
        assert manifest["descriptor"]["seed"] == 42
        assert len(manifest["trial_seeds"]) == 3
        assert "created_utc" in manifest

    def test_trials_csv_shape(self, tmp_path):
        desc = EnsembleDescriptor(n=4, nu=0.1, trials=2, seed=8)
        stats = run_ensemble(desc, ["e2"])
        paths = write_run(tmp_path / "run", stats, ["e2"])
        lines = paths["trials"].read_text().strip().split("\n")
        assert lines[0] == "trial,seed,e2_re,e2_im"
        assert len(lines) == 3

    def test_results_json_parses(self, tmp_path):
        desc = EnsembleDescriptor(n=4, nu=0.1, trials=2, seed=8)
        stats = run_ensemble(desc, ["e2"])
        paths = write_run(tmp_path / "run", stats, ["e2"])
        data = json.loads(paths["results"].read_text())
        assert data["trials"] == 2
        assert "e2_re" in data["stats"]

    def test_single_trial_stderr_serialized_as_null(self, tmp_path):
        desc = EnsembleDescriptor(n=4, nu=0.1, trials=1, seed=8)
        stats = run_ensemble(desc, ["e2"])
        paths = write_run(tmp_path / "run", stats, ["e2"])
        data = json.loads(paths["results"].read_text())
        assert data["stats"]["e2_re"]["stderr"] is None


class TestDumpJson:
    """Lists of plain floats take one join, tables of them one template per
    row; the text is that of encoding each entry on its own."""

    OBJ = {"pairs": [[0.1, -2.5], [np.float64(1 / 3), -0.0]],
           "ragged": [[1.0], [2.0, -0.0]], "flags": [[0.5, True], [1.5, 2.0]],
           "nulls": [[None, 2.0]],
           "mixed": [1, 2.5, True, None, "x"], "empty": [],
           "nested": {"floats": (1e-300, 12345678.9), "bools": [True, False], "none": {}}}
    TEXT = ('{\n  "pairs": [\n    [0.10000000000000001, -2.5],\n'
            '    [0.33333333333333331, 0]\n  ],\n  "ragged": [\n    [1],\n    [2, 0]\n  ],\n'
            '  "flags": [\n    [0.5, true],\n    [1.5, 2]\n  ],\n  "nulls": [\n    [null, 2]\n  ],\n'
            '  "mixed": [1, 2.5, true, null, "x"],\n'
            '  "empty": [],\n  "nested": {\n    "floats": [1e-300, 12345678.9],\n'
            '    "bools": [true, false],\n    "none": {}\n  }\n}\n')

    def test_text(self):
        assert dump_json(self.OBJ) == self.TEXT

    @pytest.mark.parametrize("bad", [[0.5, math.nan], [math.inf], [1.0, np.float64(-math.inf)],
                                     [[0.5, math.nan], [1.0, 2.0]]])
    def test_non_finite_float_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dump_json({"x": bad})

    def test_configuration_centers_match_format_float(self, tmp_path):
        config = rsa_generate(EnsembleDescriptor(n=256, nu=0.45, trials=1, seed=3))
        save_configuration(config, tmp_path / "c.json")
        rows = ",\n".join(f"    [{format_float(z.real)}, {format_float(z.imag)}]"
                          for z in config.centers)
        text = (tmp_path / "c.json").read_text()
        assert f'  "centers": [\n{rows}\n  ],\n  "meta": ' in text
        assert text.count("\n") == 256 + 16


class TestCompareMethods:
    def test_zero_contrast_all_methods_one(self):
        desc = EnsembleDescriptor(n=4, nu=0.1, trials=2, seed=3)
        rows = compare_methods(desc, rho=0.0, order=6, n_max=6)
        assert [r["method"] for r in rows] == [
            "solver", "cluster", "contrast", "dilute", "pade",
        ]
        for row in rows:
            assert row["lambda_e"] == pytest.approx(1.0, abs=1e-14)

    def test_pade_beats_dilute_at_low_nu_full_contrast(self):
        desc = EnsembleDescriptor(n=8, nu=0.05, trials=4, seed=12)
        rows = {r["method"]: r for r in compare_methods(desc, rho=1.0, order=6, n_max=8)}
        assert abs(rows["pade"]["diff_solver"]) < abs(rows["dilute"]["diff_solver"])

    def test_reads_per_trial_values_of_mc(self):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=10, seed=21)
        rho, order = -0.7, 5
        rows = compare_methods(desc, rho=rho, order=order)
        tokens = [f"lambda-solver:{rho}", f"lambda-series:{rho}:{order}"]
        stats = run_ensemble(desc, tokens).stats
        for j, (method, token) in enumerate(zip(["solver", "cluster"], tokens)):
            assert rows[j]["method"] == method
            assert rows[j]["lambda_e"] == stats[f"{token}_lambda11"]["mean"]

    def test_one_kernel_pass_per_trial(self, kernel_passes):
        # dilute and Pade are closed forms and build no kernels of their own
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=3, seed=5)
        compare_methods(desc, rho=1.0)
        assert kernel_passes == [(2, 30)] * desc.trials

    def test_csv_emission(self):
        desc = EnsembleDescriptor(n=4, nu=0.1, trials=2, seed=3)
        rows = compare_methods(desc, rho=0.3, order=4, n_max=6)
        text = compare_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("method,lambda_e")
        assert len(lines) == 6
