import json
import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

import effcond
from effcond import NearSingularityError, esum, load_configuration
from effcond.geometry import configuration_from_dict
from effcond.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def config_file(tmp_path, capsys):
    out = tmp_path / "configs"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "8", "--nu", "0.2", "--trials", "2",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    return out / "config_0000.json"


class TestGen:
    def test_writes_configs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, stdout, _ = run_cli(
            capsys, "gen", "--n", "4", "--nu", "0.15", "--trials", "3",
            "--seed", "9", "--out", str(out),
        )
        assert code == 0
        assert "3 configurations" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configs"] == [f"config_{i:04d}.json" for i in range(3)]
        config = load_configuration(out / "config_0001.json")
        assert config.n_disks == 4

    def test_custom_cell(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "2", "--nu", "0.1", "--trials", "1",
            "--seed", "1", "--cell", "1,0.5,1", "--out", str(out),
        )
        assert code == 0
        config = load_configuration(out / "config_0000.json")
        assert config.cell.omega2.real != 0.0


class TestEsum:
    def test_csv_matches_library(self, config_file, capsys):
        code, out, _ = run_cli(
            capsys, "esum", "--config", str(config_file),
            "--index", "2", "--index", "3-3-2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "config_id,index,re,im"
        assert len(lines) == 3
        config = load_configuration(config_file)
        want = esum(config, (3, 3, 2))
        fields = lines[2].split(",")
        assert fields[1] == "3-3-2"
        assert float(fields[2]) == pytest.approx(want.real, rel=1e-15)


class TestCoeffs:
    def test_six_rows(self, config_file, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--config", str(config_file),
            "--rho", "0.8", "--order", "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,re,im"
        assert len(lines) == 7

    def test_order_cap_is_twelve(self, config_file, capsys):
        args = ["coeffs", "--config", str(config_file), "--rho", "0.8", "--order"]
        code, out, _ = run_cli(capsys, *args, "12")
        assert code == 0
        assert len(out.strip().split("\n")) == 13
        code, _, err = run_cli(capsys, *args, "13")
        assert code == 2
        assert "1..12" in err


class TestLambda:
    @pytest.mark.parametrize("method", ["cluster", "contrast", "solver", "dilute", "pade"])
    def test_methods_emit_json(self, config_file, capsys, method):
        code, out, _ = run_cli(
            capsys, "lambda", "--config", str(config_file),
            "--rho", "0.8", "--method", method,
        )
        assert code == 0
        data = json.loads(out)
        assert data["method"] == method
        assert data["lambda11"] > 1.0
        assert data["lambda_e"] == data["lambda11"]

    def test_methods_mutually_consistent(self, config_file, capsys):
        values = {}
        for method in ("cluster", "solver", "pade"):
            _, out, _ = run_cli(
                capsys, "lambda", "--config", str(config_file),
                "--rho", "0.8", "--method", method,
            )
            values[method] = json.loads(out)["lambda11"]
        assert values["cluster"] == pytest.approx(values["solver"], abs=2e-2)
        assert values["pade"] == pytest.approx(values["solver"], abs=8e-2)

    @pytest.mark.parametrize("method", ["cluster", "contrast", "solver", "dilute", "pade"])
    def test_rho_outside_unit_interval_is_two(self, config_file, capsys, method):
        code, _, err = run_cli(
            capsys, "lambda", "--config", str(config_file),
            "--rho", "3", "--method", method,
        )
        assert code == 2
        assert "outside [-1, 1]" in err


class TestKernelPasses:
    """Each single-configuration command builds its kernels in at most one pass."""

    @pytest.mark.parametrize("argv, top", [
        (["coeffs", "--rho", "0.8", "--order", "6"], 6),
        (["lambda", "--rho", "0.8", "--method", "contrast"], 12),
        (["lambda", "--rho", "0.8", "--method", "cluster", "--order", "12"], 12),
        (["esum", "--index", "2", "--index", "3-3-2", "--index", "12-12"], 12),
        (["lambda", "--rho", "0.8", "--method", "solver"], 30),
        (["lambda", "--rho", "0.8", "--method", "dilute"], None),  # closed forms
        (["lambda", "--rho", "0.8", "--method", "pade"], None),
    ])
    def test_one_pass(self, config_file, capsys, kernel_passes, argv, top):
        code, _, _ = run_cli(capsys, *argv, "--config", str(config_file))
        assert code == 0
        assert kernel_passes == ([(2, top)] if top else [])


class TestNearSingularConfiguration:
    """Two centers 5e-10 apart lie within the kernels' 1e-9 singularity guard."""

    DATA = {
        "cell": {"omega1": 1.0, "omega2": [0.0, 1.0]},
        "radius": 1e-12,
        "centers": [[0.0, 0.0], [5e-10, 0.0]],
    }

    @pytest.fixture()
    def near_file(self, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(self.DATA))
        return path

    def test_esum_refused(self):
        config = configuration_from_dict(self.DATA)
        with pytest.raises(NearSingularityError):
            esum(config, (2,))

    def test_cli_esum_is_two(self, near_file, capsys):
        code, _, err = run_cli(capsys, "esum", "--config", str(near_file), "--index", "2")
        assert code == 2
        assert "lattice point" in err

    def test_cli_dilute_builds_no_kernels(self, near_file, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--config", str(near_file), "--rho", "1", "--method", "dilute",
        )
        assert code == 0
        assert json.loads(out)["method"] == "dilute"


class TestMc:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        args = [
            "mc", "--n", "8", "--nu", "0.2", "--trials", "3", "--seed", "7",
            "--quantities", "e2,e22,lambda-solver:1.0,zeta1:6",
        ]
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "r1"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "r2"))
        assert code == 0
        for name in ("results.json", "trials.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b
        data = json.loads((tmp_path / "r1" / "results.json").read_text())
        assert data["stats"]["e2_re"]["mean"] == pytest.approx(math.pi, abs=1.0)

    def test_series_to_order_twelve(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "mc", "--n", "4", "--nu", "0.1", "--trials", "2", "--seed", "7",
            "--quantities", "lambda-series:0.8:6,lambda-series:0.8:12,lambda-solver:0.8",
            "--out", str(tmp_path / "r"),
        )
        assert code == 0
        stats = json.loads((tmp_path / "r" / "results.json").read_text())["stats"]
        solver = stats["lambda-solver:0.8_lambda11"]["mean"]
        err6, err12 = (
            abs(stats[f"lambda-series:0.8:{j}_lambda11"]["mean"] - solver) for j in (6, 12)
        )
        assert err12 < 0.1 * err6  # measured 1.2e-6 against 3.4e-5


class TestCompare:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "4", "--nu", "0.1", "--trials", "2",
            "--seed", "3", "--rho", "0.5", "--order", "4", "--nmax", "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[1].startswith("solver,")


class TestExitCodes:
    def test_domain_error_is_two(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--n", "4", "--nu", "0.9", "--trials", "1",
            "--seed", "0", "--out", "/tmp/unused-effcond",
        )
        assert code == 2
        assert "error" in err

    def test_bad_quantity_is_two(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "mc", "--n", "4", "--nu", "0.1", "--trials", "1",
            "--seed", "0", "--quantities", "bogus", "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize("tokens, repeated", [
        ("e332,e3-3-2", "e332"),
        ("zeta1,zeta1:12", "zeta1:12"),
        ("lambda-series:0.8,lambda-series:0.8:6", "lambda-series:0.8:6"),
        # the same rho typed two ways
        ("lambda-solver:1,lambda-solver:1.0", "lambda-solver:1.0"),
        ("lambda-series:1:6,lambda-series:1.0:6", "lambda-series:1.0:6"),
    ])
    def test_repeated_quantity_is_two(self, tmp_path, capsys, tokens, repeated):
        # two tokens that name one quantity would write its columns twice
        code, _, err = run_cli(
            capsys, "mc", "--n", "4", "--nu", "0.1", "--trials", "1",
            "--quantities", tokens, "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert f"quantity {repeated} is requested twice" in err
        assert not (tmp_path / "x").exists()

    def test_kernel_order_beyond_series_is_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--n", "4", "--nu", "0.1", "--trials", "1",
            "--quantities", "zeta1:150", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "kernel order" in err

    @pytest.mark.parametrize("n_max", [1, 123])
    def test_cutoff_outside_kernel_orders_is_two(
        self, tmp_path, capsys, config_file, kernel_passes, n_max
    ):
        # refused before any kernel pass, by a message that names the cutoff
        message = f"e_nn cutoff n_max must be >= 2 and <= 122 (the highest kernel order), got {n_max}"
        for argv in (
            ["lambda", "--config", str(config_file), "--rho", "0.5",
             "--method", "contrast", "--nmax", str(n_max)],
            ["mc", "--n", "4", "--nu", "0.1", "--trials", "1",
             "--quantities", f"zeta1:{n_max}", "--out", str(tmp_path / "x")],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert message in err
        assert kernel_passes == []

    @pytest.mark.parametrize("token, message", [
        ("zeta1:1", "n_max must be >= 2"),
        ("zeta1:0", "n_max must be >= 2"),
        ("zeta1:-3", "n_max must be >= 2"),
        ("lambda-series:3:6", "outside [-1, 1]"),
    ])
    def test_quantity_outside_domain_is_two(self, tmp_path, capsys, token, message):
        code, _, err = run_cli(
            capsys, "mc", "--n", "4", "--nu", "0.1", "--trials", "1",
            "--quantities", token, "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["mc", "--quantities", "lambda-solver:2"],
        ["mc", "--quantities", "e2,lambda-series:1.5:6"],
        ["mc", "--quantities", "lambda-series:0.5:13"],
        ["mc", "--quantities", "e2,zeta1:123"],
        ["compare", "--rho", "1.5"],
        ["lambda", "--rho", "1.5", "--method", "solver"],
        ["lambda", "--rho", "1.5", "--method", "cluster"],
        ["lambda", "--rho", "1.5", "--method", "contrast"],
        ["lambda", "--rho", "0.5", "--method", "cluster", "--order", "13"],
        ["lambda", "--rho", "0.5", "--method", "solver", "--order", "13"],
        ["lambda", "--rho", "0.5", "--method", "solver", "--nmax", "200"],
        ["mc", "--quantities", "e2-123"],
    ], ids=" ".join)
    def test_out_of_range_refused_before_placement_and_kernels(
        self, tmp_path, capsys, config_file, kernel_passes, monkeypatch, argv
    ):
        import effcond.pipeline

        placements = []
        monkeypatch.setattr(effcond.pipeline, "rsa_generate",
                            lambda *args, **kwargs: placements.append(args))
        if argv[0] == "lambda":
            argv = argv + ["--config", str(config_file)]
        else:
            argv = argv + ["--n", "8", "--nu", "0.3", "--trials", "2"]
        if argv[0] == "mc":
            argv = argv + ["--out", str(tmp_path / "x")]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in err
        assert kernel_passes == []
        assert placements == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("rho", ["0", "0.5"])
    def test_compare_order_zero_is_two(self, capsys, rho):
        code, _, err = run_cli(
            capsys, "compare", "--n", "4", "--nu", "0.1", "--trials", "1",
            "--rho", rho, "--order", "0",
        )
        assert code == 2
        assert "series order" in err

    def test_missing_config_is_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "lambda", "--config", str(tmp_path / "missing.json"),
            "--rho", "0.5", "--method", "solver",
        )
        assert code == 2
        assert "error" in err


class TestMalformedConfiguration:
    """The loader's validation errors exit 2 like every other domain error."""

    @pytest.fixture(params=["no radius", "NaN center"])
    def bad_file(self, request, config_file, tmp_path):
        data = json.loads(config_file.read_text())
        if request.param == "no radius":
            del data["radius"]
        else:
            data["centers"][0][0] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("method", ["solver", "dilute"])
    def test_lambda_is_two(self, bad_file, capsys, method):
        code, out, err = run_cli(
            capsys, "lambda", "--config", str(bad_file), "--rho", "0.5",
            "--method", method,
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

def test_generation_failure_exit_code(tmp_path, capsys, monkeypatch):
    from effcond.errors import GenerationError
    import effcond.pipeline as pipeline

    def failing_generate(desc, seed=None):
        raise GenerationError("placed 3/64 disks within 50 candidate draws", placed=3)

    monkeypatch.setattr(pipeline, "rsa_generate", failing_generate)
    code, _, err = run_cli(
        capsys, "gen", "--n", "64", "--nu", "0.5", "--trials", "1",
        "--seed", "0", "--out", str(tmp_path / "g"),
    )
    assert code == 3
    assert "error" in err


def test_help_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


NO_SCIPY_SCRIPT = """
import sys
import effcond, effcond.cli
assert effcond.cli.main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_no_scipy_at_run_time(tmp_path):
    src = Path(effcond.__file__).resolve().parents[1]
    argv = ["mc", "--n", "4", "--nu", "0.1", "--trials", "1", "--out", str(tmp_path),
            "--quantities", "e2,lambda-solver:1.0,lambda-series:0.5:3,zeta1:6"]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"
