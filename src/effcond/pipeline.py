"""Monte Carlo ensemble orchestration and reporting.

`evaluate` computes every requested quantity of one configuration after a
single kernel pass; the ensemble, the method comparison and the
single-configuration CLI commands all call it.

Trials are deterministic: trial i of a run with master seed s uses the
derived seed s XOR splitmix64(i), so identical descriptors reproduce
byte-identical results and per-trial tables.  Each statistic is numpy's
pairwise mean of its trial-ordered column, so its rounding is fixed by the
trial count; a failed placement aborts the whole run rather than silently
resampling.

Output layout of a run directory: manifest.json (descriptor, per-trial
seeds, versions, timestamps), results.json and trials.csv (both free of
timestamps and byte-reproducible).
"""

from __future__ import annotations

import datetime
import math
import platform
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, GenerationError
from .esums import check_index, check_series_order, esum, esum_nn, kernel_stack
from .geometry import EnsembleDescriptor, rsa_generate, trial_seed
from .serialize import dump_csv, dump_json
from .series import (
    EffectiveResult,
    check_cutoff,
    cluster_coeffs,
    lambda_cluster,
    lambda_contrast,
    lambda_dilute,
    lambda_pade,
    zeta1,
)
from .solver import DEFAULT_DEGREE, kernel_top, solve_contrast

DEFAULT_CONTRAST_NMAX = 12


@dataclass(frozen=True)
class QuantitySpec:
    """One requested per-configuration quantity (parse_quantity reads mc tokens)."""

    token: str
    kind: str  # esum | lambda_solver | lambda_series | lambda_contrast | zeta1
    index: tuple = ()
    rho: float = 0.0
    order: int = 6
    n_max: int = DEFAULT_CONTRAST_NMAX

    def columns(self) -> list:
        if self.kind == "esum":
            return [f"{self.token}_re", f"{self.token}_im"]
        if self.kind.startswith("lambda_"):
            return [f"{self.token}_lambda11", f"{self.token}_lambda12"]
        return [self.token]


def parse_quantity(token: str) -> QuantitySpec:
    """Parse tokens like e2, e332, e3-3-2, lambda-solver:0.8,
    lambda-series:0.8:6, zeta1:12."""
    token = token.strip()
    if token.startswith("e") and len(token) > 1 and token[1].isdigit():
        body = token[1:]
        entries = (
            tuple(int(p) for p in body.split("-"))
            if "-" in body
            else tuple(int(c) for c in body)
        )
        idx = check_index(entries)
        return QuantitySpec(token=f"e{''.join(map(str, idx))}", kind="esum", index=idx)
    parts = token.split(":")
    head = parts[0]
    if head == "lambda-solver":
        if len(parts) != 2:
            raise DomainError(f"expected lambda-solver:RHO, got {token!r}")
        return QuantitySpec(token=token, kind="lambda_solver", rho=float(parts[1]))
    if head == "lambda-series":
        if len(parts) not in (2, 3):
            raise DomainError(f"expected lambda-series:RHO[:ORDER], got {token!r}")
        order = int(parts[2]) if len(parts) == 3 else 6
        return QuantitySpec(
            token=f"lambda-series:{parts[1]}:{order}",
            kind="lambda_series",
            rho=float(parts[1]),
            order=order,
        )
    if head == "zeta1":
        if len(parts) > 2:
            raise DomainError(f"expected zeta1[:NMAX], got {token!r}")
        n_max = int(parts[1]) if len(parts) == 2 else DEFAULT_CONTRAST_NMAX
        return QuantitySpec(token=f"zeta1:{n_max}", kind="zeta1", n_max=n_max)
    raise DomainError(f"unknown quantity token {token!r}")


@dataclass
class EnsembleStats:
    """Means and standard errors of the requested quantities."""

    descriptor: EnsembleDescriptor
    columns: list
    stats: dict  # column -> {"mean": float, "stderr": float | None}
    extras: dict = dc_field(default_factory=dict)
    trial_seeds: list = dc_field(default_factory=list)
    per_trial: list = dc_field(default_factory=list)  # rows aligned to columns

    @property
    def trials(self) -> int:
        return self.descriptor.trials

    def results_dict(self) -> dict:
        return {
            "descriptor": _descriptor_dict(self.descriptor),
            "trials": self.trials,
            "stats": self.stats,
            "extras": self.extras,
        }


def _descriptor_dict(desc: EnsembleDescriptor) -> dict:
    return {
        "n": desc.n,
        "nu": desc.nu,
        "trials": desc.trials,
        "seed": desc.seed,
        "cell": {
            "omega1": desc.cell_omega1,
            "omega2": [complex(desc.cell_omega2).real, complex(desc.cell_omega2).imag],
        },
        "exclusion_factor": desc.exclusion_factor,
        "generator": "rsa",
    }


def _mean_stderr(values: np.ndarray):
    mean = float(values.mean())
    if len(values) < 2:
        return mean, None
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def iter_trials(desc: EnsembleDescriptor):
    """Yield (i, seed, config) for each trial, placing one configuration at a time.

    A failed placement raises GenerationError naming the trial.
    """
    for i in range(desc.trials):
        seed = trial_seed(desc.seed, i)
        try:
            config = rsa_generate(desc, seed=seed)
        except GenerationError as exc:
            raise GenerationError(f"trial {i} failed: {exc}", placed=exc.placed) from exc
        yield i, seed, config


def evaluate(config, specs, nu: float):
    """Values of the quantities in specs on one configuration.

    One kernel pass reaches the highest order any spec reads (series order
    J reads E_J, the solver E_{2L+2} at its default degree L).  zeta1 /
    lambda_contrast read one e_nn table, built to the largest cutoff asked for.  Returns a
    complex per esum, an EffectiveResult per lambda kind and a float per zeta1.
    """
    series_orders = [s.order for s in specs if s.kind == "lambda_series"]
    for order in series_orders:
        check_series_order(order)
    n_maxes = [s.n_max for s in specs if s.kind in ("zeta1", "lambda_contrast")]
    for n_max in n_maxes:
        check_cutoff(n_max)
    solver_tops = [kernel_top(DEFAULT_DEGREE) for s in specs if s.kind == "lambda_solver"]
    top = max([m for s in specs if s.kind == "esum" for m in s.index]
              + series_orders + n_maxes + solver_tops, default=1)
    if top >= 2:
        kernel_stack(config, top)
    nn_table = {n: esum_nn(config, n) for n in range(2, max(n_maxes, default=1) + 1)}
    values = []
    for spec in specs:
        if spec.kind == "esum":
            values.append(esum(config, spec.index))
        elif spec.kind == "lambda_solver":
            values.append(solve_contrast(config, spec.rho).effective())
        elif spec.kind == "lambda_series":
            coeffs = cluster_coeffs(config, spec.rho, spec.order)
            values.append(lambda_cluster(nu, coeffs))
        elif spec.kind == "lambda_contrast":
            values.append(lambda_contrast(nu, nn_table, spec.rho, spec.n_max,
                                          e2=esum(config, (2,))))
        else:
            values.append(zeta1(nu, nn_table, spec.n_max))
    return values


def _cells(value) -> list:
    if isinstance(value, EffectiveResult):
        return [value.lambda11, value.lambda12]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return [value]


def run_ensemble(desc: EnsembleDescriptor, quantities) -> EnsembleStats:
    """Generate the ensemble and average the requested quantities.

    `quantities` is a sequence of tokens or QuantitySpec instances; two that
    name one quantity (e332 and e3-3-2, lambda-solver:1 and lambda-solver:1.0)
    raise DomainError.  Any trial whose placement fails aborts the run (the
    error names the trial).
    """
    specs = [q if isinstance(q, QuantitySpec) else parse_quantity(q) for q in quantities]
    if not specs:
        raise DomainError("no quantities requested")
    columns: list[str] = []
    seen = set()
    for spec in specs:
        key = (spec.kind, spec.index, spec.rho, spec.order, spec.n_max)
        if key in seen:
            raise DomainError(f"quantity {spec.token} is requested twice")
        seen.add(key)
        columns.extend(spec.columns())

    seeds = []
    rows = []
    for _, seed, config in iter_trials(desc):
        seeds.append(seed)
        values = evaluate(config, specs, desc.nu)
        rows.append([cell for value in values for cell in _cells(value)])

    data = np.asarray(rows, dtype=float)
    stats = {}
    for j, col in enumerate(columns):
        mean, stderr = _mean_stderr(data[:, j])
        stats[col] = {"mean": mean, "stderr": stderr}

    extras = {}
    for spec in specs:
        if spec.kind.startswith("lambda_"):
            s11 = stats[f"{spec.token}_lambda11"]
            s12 = stats[f"{spec.token}_lambda12"]
            extras[f"{spec.token}_lambda_e"] = s11["mean"]
            if s12["stderr"] is not None:
                extras[f"{spec.token}_isotropy_ok"] = bool(
                    abs(s12["mean"]) < 3.0 * s12["stderr"] + 1e-15
                )
        if spec.kind == "lambda_series":
            # kept only because bench/reference.json compares extras keys:
            # lambda is affine in A_n and A_n linear in the e-sums, so lambda
            # of the mean e-sums is the mean of lambda apart from rounding
            extras[f"{spec.token}_from_mean_esums"] = s11["mean"]

    return EnsembleStats(
        descriptor=desc,
        columns=columns,
        stats=stats,
        extras=extras,
        trial_seeds=[int(s) for s in seeds],
        per_trial=rows,
    )


def write_run(outdir, stats: EnsembleStats, quantities=None) -> dict:
    """Write manifest.json, results.json and trials.csv into outdir.

    results.json and trials.csv carry no timestamps and are byte-identical
    across reruns of the same descriptor.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.json"
    trials_path = out / "trials.csv"
    manifest_path = out / "manifest.json"

    results_path.write_text(dump_json(stats.results_dict()))
    header = ["trial", "seed"] + list(stats.columns)
    rows = [
        [i, stats.trial_seeds[i]] + [float(v) for v in row]
        for i, row in enumerate(stats.per_trial)
    ]
    trials_path.write_text(dump_csv(header, rows))

    manifest = {
        "descriptor": _descriptor_dict(stats.descriptor),
        "quantities": list(quantities or []),
        "trial_seeds": stats.trial_seeds,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {
            "results": results_path.name,
            "trials": trials_path.name,
        },
    }
    manifest_path.write_text(dump_json(manifest))
    return {
        "manifest": manifest_path,
        "results": results_path,
        "trials": trials_path,
    }


def compare_methods(
    desc: EnsembleDescriptor,
    rho: float,
    order: int = 6,
    n_max: int = DEFAULT_CONTRAST_NMAX,
) -> list:
    """Ensemble-averaged effective conductivity by every implemented method.

    Returns one row per method with the difference from the solver value
    and the expected error scale of the method.
    """
    specs = [QuantitySpec("solver", "lambda_solver", rho=rho),
             QuantitySpec("cluster", "lambda_series", rho=rho, order=order),
             QuantitySpec("contrast", "lambda_contrast", rho=rho, n_max=n_max)]
    stats = run_ensemble(desc, specs).stats
    means = {s.token: stats[f"{s.token}_lambda11"]["mean"] for s in specs}
    dilute = lambda_dilute(desc.nu, rho)
    pade = lambda_pade(desc.nu, rho)
    solver_value = means["solver"]

    scales = {
        "solver": ("converged", 0.0),
        "cluster": (f"nu^{order + 1}", desc.nu ** (order + 1)),
        "contrast": ("rho^4", abs(rho) ** 4),
        "dilute": ("nu^2", desc.nu ** 2),
        "pade": ("nu^3", desc.nu ** 3),
    }
    rows = []
    for method, value in [
        *means.items(), ("dilute", dilute.lambda11), ("pade", pade.lambda11)
    ]:
        label, scale = scales[method]
        rows.append(
            {
                "method": method,
                "lambda_e": value,
                "diff_solver": value - solver_value,
                "expected_scale": label,
                "scale_value": scale,
            }
        )
    return rows


def compare_csv(rows) -> str:
    header = ["method", "lambda_e", "diff_solver", "expected_scale", "scale_value"]
    return dump_csv(header, [[r[h] for h in header] for r in rows])
