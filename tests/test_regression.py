"""Archived-baseline and ensemble-statistics regression tests."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from effcond import (
    EnsembleDescriptor,
    cluster_coeffs,
    esum,
    rsa_generate,
    run_ensemble,
    trial_seed,
)

BASELINE = Path(__file__).parent / "baselines" / "ensemble_nu0.3_n64.json"


class TestArchivedBaseline:
    def test_frozen_protocol_reproduces(self):
        data = json.loads(BASELINE.read_text())
        d = data["manifest"]["descriptor"]
        desc = EnsembleDescriptor(
            n=d["n"], nu=d["nu"], trials=d["trials"], seed=d["seed"]
        )
        stats = run_ensemble(desc, data["manifest"]["quantities"])
        for col, rec in data["stats"].items():
            got = stats.stats[col]["mean"]
            assert got == pytest.approx(rec["mean"], rel=1e-9, abs=1e-12), col

    def test_baseline_sanity(self):
        data = json.loads(BASELINE.read_text())
        stats = data["stats"]
        # pi within a few stderr even at the archived trial count
        e2 = stats["e2_re"]
        assert abs(e2["mean"] - math.pi) < 4 * e2["stderr"]
        # diagonal sums alternate in sign with the kernel order
        assert stats["e22_re"]["mean"] > 0
        assert stats["e33_re"]["mean"] < 0
        assert stats["e44_re"]["mean"] > 0
        assert np.isfinite(stats["zeta1:8"]["mean"])


class TestEnsembleIsotropy:
    def test_coefficient_imaginary_parts_vanish_on_average(self):
        # ensemble-averaged Im(A_n) compatible with zero at three stderr
        desc = EnsembleDescriptor(n=16, nu=0.2, trials=48, seed=1234)
        rho = 0.8
        order = 4
        per_trial = []
        for i in range(desc.trials):
            config = rsa_generate(desc, seed=trial_seed(desc.seed, i))
            coeffs = cluster_coeffs(config, rho, order)
            per_trial.append([a.imag for a in coeffs.values])
        data = np.asarray(per_trial)
        means = data.mean(axis=0)
        stderrs = data.std(axis=0, ddof=1) / math.sqrt(desc.trials)
        for n in range(order):
            assert abs(means[n]) < 3 * stderrs[n] + 1e-12, f"A_{n + 1}"


class TestScalingSpotCheck:
    def test_esum_cost_grows_quadratically_in_n(self):
        # spot measurement with generous margins: doubling N must not blow
        # past the documented O(N^2) kernel cost by more than ~4x headroom
        def cost(n_disks):
            desc = EnsembleDescriptor(n=n_disks, nu=0.2, trials=1, seed=6)
            config = rsa_generate(desc)
            t0 = time.perf_counter()
            esum(config, (3, 3, 2))
            return time.perf_counter() - t0

        cost(8)  # warm the polynomial caches
        t16 = max(cost(16), 1e-4)
        t64 = cost(64)
        assert t64 / t16 < 16 * 4
