"""Monte Carlo ensemble orchestration and reporting.

KINDS holds one record per quantity kind: its columns, the checks of the
spec fields it reads (run as a QuantitySpec is made, before any placement
or kernel build), the kernel and e_nn orders it reads, its value on one
configuration and its extras.  A new kind is one record, plus one _TOKENS
entry if `mc` names it.  `evaluate` computes the values of one
configuration after a single kernel pass; the ensemble, the method
comparison and the single-configuration CLI commands all call it.

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
from typing import Callable

import numpy as np

from . import __version__
from .errors import DomainError, GenerationError
from .esums import check_index, check_series_order, esum, esum_nn, kernel_stack
from .geometry import EnsembleDescriptor, rsa_generate, trial_seed
from .serialize import dump_csv, dump_json
from .series import (
    EffectiveResult,
    check_contrast,
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
class _Kind:
    """How one quantity kind is checked, evaluated and reported."""

    suffixes: tuple  # of its columns; ("",) names its one column by the token
    checks: tuple  # (check, spec field) pairs, each check raising DomainError
    top: Callable  # spec -> highest kernel order read (below 2: none)
    value: Callable  # (config, spec, nu, nn_table) -> complex | EffectiveResult | float
    nn: Callable = lambda spec: 1  # spec -> highest e_nn order read (below 2: none)
    extras: Callable = lambda spec, stats: {}  # (spec, stats) -> results.json extras


def _esum(config, spec, nu, nn_table):
    return esum(config, spec.index)


def _solver(config, spec, nu, nn_table):
    return solve_contrast(config, spec.rho).effective()


def _series(config, spec, nu, nn_table):
    return lambda_cluster(nu, cluster_coeffs(config, spec.rho, spec.order))


def _contrast(config, spec, nu, nn_table):
    return lambda_contrast(nu, nn_table, spec.rho, spec.n_max, e2=esum(config, (2,)))


def _zeta1(config, spec, nu, nn_table):
    return zeta1(nu, nn_table, spec.n_max)


def _lambda_extras(spec, stats) -> dict:
    s12 = stats[f"{spec.token}_lambda12"]
    extras = {f"{spec.token}_lambda_e": stats[f"{spec.token}_lambda11"]["mean"]}
    if s12["stderr"] is not None:
        isotropic = abs(s12["mean"]) < 3.0 * s12["stderr"] + 1e-15
        extras[f"{spec.token}_isotropy_ok"] = bool(isotropic)
    return extras


def _series_extras(spec, stats) -> dict:
    # kept only because bench/reference.json compares extras keys: lambda is
    # affine in A_n and A_n linear in the e-sums, so lambda of the mean
    # e-sums is the mean of lambda apart from rounding
    extras = _lambda_extras(spec, stats)
    return {**extras, f"{spec.token}_from_mean_esums": extras[f"{spec.token}_lambda_e"]}


_LAMBDA = ("_lambda11", "_lambda12")
KINDS = {
    "esum": _Kind(("_re", "_im"), ((check_index, "index"),),
                  lambda spec: max(spec.index), _esum),
    "lambda_solver": _Kind(_LAMBDA, ((check_contrast, "rho"),),
                           lambda spec: kernel_top(DEFAULT_DEGREE), _solver,
                           extras=_lambda_extras),
    "lambda_series": _Kind(_LAMBDA, ((check_series_order, "order"), (check_contrast, "rho")),
                           lambda spec: spec.order, _series, extras=_series_extras),
    "lambda_contrast": _Kind(_LAMBDA, ((check_cutoff, "n_max"), (check_contrast, "rho")),
                             lambda spec: spec.n_max, _contrast,
                             nn=lambda spec: spec.n_max, extras=_lambda_extras),
    "zeta1": _Kind(("",), ((check_cutoff, "n_max"),), lambda spec: spec.n_max, _zeta1,
                   nn=lambda spec: spec.n_max),
}


@dataclass(frozen=True)
class QuantitySpec:
    """One requested per-configuration quantity (parse_quantity reads mc tokens).

    Making one runs its kind's checks, so an out-of-range field raises DomainError.
    """

    token: str
    kind: str  # a key of KINDS
    index: tuple = ()
    rho: float = 0.0
    order: int = 6
    n_max: int = DEFAULT_CONTRAST_NMAX

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown quantity kind {self.kind!r}")
        for check, name in KINDS[self.kind].checks:
            check(getattr(self, name))

    def columns(self) -> list:
        return [self.token + suffix for suffix in KINDS[self.kind].suffixes]


# mc token head -> (kind, spec field of each ':' part, default of an omitted last part)
_TOKENS = {
    "lambda-solver": ("lambda_solver", ("rho",), None),
    "lambda-series": ("lambda_series", ("rho", "order"), 6),
    "zeta1": ("zeta1", ("n_max",), DEFAULT_CONTRAST_NMAX),
}


def _number(cast, text: str, token: str):
    try:
        return cast(text)
    except ValueError:
        raise DomainError(f"bad number {text!r} in quantity token {token!r}") from None


def parse_quantity(token: str) -> QuantitySpec:
    """Parse tokens like e2, e332, e3-3-2, e10-2, lambda-solver:0.8,
    lambda-series:0.8:6, zeta1:12; an esum's canonical token joins its entries
    with '-' when one is 10 or more (e22-2, e2-22 and e222 are three sums)."""
    token = token.strip()
    if token.startswith("e") and len(token) > 1 and token[1].isdigit():
        body = token[1:]
        entries = body.split("-") if "-" in body else list(body)
        idx = check_index([_number(int, m, token) for m in entries])
        name = ("-" if max(idx) >= 10 else "").join(map(str, idx))
        return QuantitySpec(token=f"e{name}", kind="esum", index=idx)
    head, *parts = token.split(":")
    if head not in _TOKENS:
        raise DomainError(f"unknown quantity token {token!r}")
    kind, names, default = _TOKENS[head]
    if default is not None and len(parts) == len(names) - 1:
        parts.append(str(default))
    if len(parts) != len(names):
        raise DomainError(f"expected {':'.join((head,) + names)}, got {token!r}")
    values = {name: _number(float if name == "rho" else int, part, token)
              for name, part in zip(names, parts)}
    texts = [part if name == "rho" else str(values[name]) for name, part in zip(names, parts)]
    return QuantitySpec(token=":".join([head, *texts]), kind=kind, **values)


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
        return {"descriptor": _descriptor_dict(self.descriptor), "trials": self.trials,
                "stats": self.stats, "extras": self.extras}


def _descriptor_dict(desc: EnsembleDescriptor) -> dict:
    omega2 = complex(desc.cell_omega2)
    return {"n": desc.n, "nu": desc.nu, "trials": desc.trials, "seed": desc.seed,
            "cell": {"omega1": desc.cell_omega1, "omega2": [omega2.real, omega2.imag]},
            "exclusion_factor": desc.exclusion_factor, "generator": "rsa"}


def _mean_stderr(values: np.ndarray) -> dict:
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else None
    return {"mean": float(values.mean()), "stderr": stderr}


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
    J reads E_J, the solver E_{2L+2} at its default degree L), and one e_nn
    table the highest e_nn order.  Returns a complex per esum, an
    EffectiveResult per lambda kind and a float per zeta1.
    """
    kinds = [KINDS[spec.kind] for spec in specs]
    top = max((kind.top(spec) for kind, spec in zip(kinds, specs)), default=1)
    if top >= 2:
        kernel_stack(config, top)
    nn_top = max((kind.nn(spec) for kind, spec in zip(kinds, specs)), default=1)
    nn_table = {n: esum_nn(config, n) for n in range(2, nn_top + 1)}
    return [kind.value(config, spec, nu, nn_table) for kind, spec in zip(kinds, specs)]


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

    seeds, rows = [], []
    for _, seed, config in iter_trials(desc):
        seeds.append(seed)
        values = evaluate(config, specs, desc.nu)
        rows.append([cell for value in values for cell in _cells(value)])

    data = np.asarray(rows, dtype=float)
    stats = {col: _mean_stderr(data[:, j]) for j, col in enumerate(columns)}

    extras = {}
    for spec in specs:
        extras.update(KINDS[spec.kind].extras(spec, stats))

    return EnsembleStats(descriptor=desc, columns=columns, stats=stats, extras=extras,
                         trial_seeds=[int(s) for s in seeds], per_trial=rows)


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
    rows = [[i, stats.trial_seeds[i]] + [float(v) for v in row]
            for i, row in enumerate(stats.per_trial)]
    trials_path.write_text(dump_csv(header, rows))

    manifest = {
        "descriptor": _descriptor_dict(stats.descriptor),
        "quantities": list(quantities or []),
        "trial_seeds": stats.trial_seeds,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {"results": results_path.name, "trials": trials_path.name},
    }
    manifest_path.write_text(dump_json(manifest))
    return {"manifest": manifest_path, "results": results_path, "trials": trials_path}


def compare_methods(desc: EnsembleDescriptor, rho: float, order: int = 6,
                    n_max: int = DEFAULT_CONTRAST_NMAX) -> list:
    """Ensemble-averaged effective conductivity by every implemented method.

    Returns one row per method with the difference from the solver value
    and the expected error scale of the method.
    """
    specs = [QuantitySpec("solver", "lambda_solver", rho=rho),
             QuantitySpec("cluster", "lambda_series", rho=rho, order=order),
             QuantitySpec("contrast", "lambda_contrast", rho=rho, n_max=n_max)]
    stats = run_ensemble(desc, specs).stats
    means = {s.token: stats[f"{s.token}_lambda11"]["mean"] for s in specs}
    solver_value = means["solver"]

    scales = {
        "solver": ("converged", 0.0),
        "cluster": (f"nu^{order + 1}", desc.nu ** (order + 1)),
        "contrast": ("rho^4", abs(rho) ** 4),
        "dilute": ("nu^2", desc.nu ** 2),
        "pade": ("nu^3", desc.nu ** 3),
    }
    values = [*means.items(), ("dilute", lambda_dilute(desc.nu, rho).lambda11),
              ("pade", lambda_pade(desc.nu, rho).lambda11)]
    return [{"method": method, "lambda_e": value, "diff_solver": value - solver_value,
             "expected_scale": scales[method][0], "scale_value": scales[method][1]}
            for method, value in values]


def compare_csv(rows) -> str:
    header = ["method", "lambda_e", "diff_solver", "expected_scale", "scale_value"]
    return dump_csv(header, [[r[h] for h in header] for r in rows])
