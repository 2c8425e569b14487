"""Spans recorded around calls into effcond's public functions.

The benchmark never edits the package: it swaps each traced function for a
wrapper at every place the function is bound.  Modules bind each other's
functions with ``from ... import``, so ``effcond.pipeline.rsa_generate`` and
``effcond.geometry.rsa_generate`` are two names for one object; patching only
the defining module would silently miss the pipeline's calls.

A span is recorded as [name, start, end, parent, trial, info] and kept in
memory; ``info`` is a count the wrapper derives from the call's arguments or
result (points evaluated, bytes built, draws made).  The trial id advances on
every ``geometry.rsa_generate`` call, which opens each trial of an ensemble.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np


def _eisenstein_points(args, kwargs, result):
    z = args[2] if len(args) > 2 else kwargs["z"]
    return int(np.size(z))


def _rsa_draws(args, kwargs, result):
    return [result.meta["candidates_drawn"], result.n_disks]


def _nbytes(args, kwargs, result):
    return int(result.nbytes)


def _solve(args, kwargs, result):
    n_disks, lp1 = result.field.coeffs.shape
    return [result.iterations, bool(result.converged), n_disks * lp1]


#: Traced functions, by layer: module -> {function: info extractor}.  The
#: cli and serialize modules count under the pipeline layer.
LAYERS = {
    "geometry": ("effcond.geometry", {
        "rsa_generate": _rsa_draws, "save_configuration": None}),
    "lattice": ("effcond.lattice", {
        "eisenstein": _eisenstein_points, "lattice_sum": None}),
    "esums": ("effcond.esums", {
        "kernel_matrix": _nbytes, "esum": None, "esum_nn": None}),
    "series": ("effcond.series", {
        "cluster_coeffs": None, "lambda_cluster": None, "contrast_tail": None,
        "lambda_contrast": None, "lambda_dilute": None, "lambda_pade": None,
        "zeta1": None, "a13": None}),
    "solver": ("effcond.solver", {"solve_contrast": _solve}),
    "pipeline": ("effcond.pipeline", {"run_ensemble": None, "write_run": None}),
    "cli": ("effcond.cli", {"main": None}),
    "serialize": ("effcond.serialize", {"dump_json": None, "dump_csv": None}),
}

LAYER_OF = {"cli": "pipeline", "serialize": "pipeline"}

#: The two functions an untraced run wraps: trial starts and solver results.
PROBES = {"geometry": ("rsa_generate",), "solver": ("solve_contrast",)}


class Tracer:
    """In-memory span recorder that patches effcond functions while active.

    ``only`` maps a LAYERS key to the function names to wrap; None wraps all.
    Use as a context manager; leaving it restores every patched binding.
    """

    def __init__(self, only=None):
        self.only = only
        self.spans = []
        self.trial = -1
        self._stack = []
        self._patched = []

    def _wrap(self, span_name, fn, info):
        spans, stack = self.spans, self._stack
        opens_trial = span_name == "geometry.rsa_generate"

        def wrapper(*args, **kwargs):
            if opens_trial:
                self.trial += 1
            rec = [span_name, perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.trial, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        import effcond  # noqa: F401  (loads every submodule that binds names)
        import effcond.cli  # noqa: F401

        modules = [m for name, m in list(sys.modules.items())
                   if name == "effcond" or name.startswith("effcond.")]
        for key, (module_name, functions) in LAYERS.items():
            if self.only is not None and key not in self.only:
                continue
            layer = LAYER_OF.get(key, key)
            defining = sys.modules[module_name]
            for fname, info in functions.items():
                if self.only is not None and fname not in self.only[key]:
                    continue
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, info)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        self_t = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t
