"""The benchmark's tracer still fits the package.

bench/tracer.py wraps effcond functions by name and reads solver results
by attribute; a rename in src/ would otherwise surface only when the
benchmark runs.
"""

import importlib.util
from pathlib import Path

import effcond
from effcond import EnsembleDescriptor, run_ensemble, solve_contrast
from effcond.pipeline import iter_trials

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_layers_and_reads_solver_probe():
    tracer = load_tracer()
    desc = EnsembleDescriptor(n=8, nu=0.3, trials=1, seed=4)
    # entering resolves every LAYERS name in its defining module and wraps
    # each binding of it inside the package
    with tracer.Tracer() as trace:
        effcond.run_ensemble(desc, ["lambda-solver:0.5"])
    names = {span[0] for span in trace.spans}
    assert {"geometry.rsa_generate", "pipeline.run_ensemble"} <= names
    (info,) = [span[5] for span in trace.spans if span[0] == "solver.solve_contrast"]
    _, _, config = next(iter_trials(desc))
    res = solve_contrast(config, 0.5)
    assert info == [res.iterations, True, desc.n * (res.field.degree + 1)]
    # leaving restores the original bindings
    assert effcond.run_ensemble is run_ensemble
