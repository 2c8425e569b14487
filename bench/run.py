#!/usr/bin/env python3
"""effcond benchmark: Monte Carlo ensembles end to end, layers traced from outside.

Run from the repository root:

    python3 bench/run.py --workload mc_e2 --seed 1 --seconds 15 --trace 0

Each run is one process that drives the public pipeline the way a user runs
``effcond mc`` (``run_ensemble`` then ``write_run``) or ``effcond gen``
(``cli.main``).  It imports the package from ``src/`` of this checkout and
exits with an error, printing no result, when that is missing.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds machine and code facts and sample counts.

``--trace 0`` runs ensembles of the workload, each on its own master seed
derived from ``--seed``, until ``--seconds`` have passed and reports the
end-to-end metrics:

    trials_per_s   trials completed per wall second of the timed ensembles
    trial_p50_ms   per-trial latency, median (one timestamp per trial, taken
    trial_p90_ms   by a wrapper on rsa_generate, which opens every trial)
    setup_s        median over SETUP_SAMPLES fresh processes of the time to
                   import effcond and run one warm-up trial on a seed outside
                   the timed set
    peak_rss_mb    peak resident memory of this process
    ok_frac        trials that completed and passed the correctness gate,
                   over trials attempted (1 - failed fraction; never 0)

``--trace 1`` runs a fixed set of ensembles, sized from ``--seconds``, twice
each: once untraced and once with every function in tracer.LAYERS wrapped.
The traced pass gives the per-layer metrics (per trial unless a ratio):

    lattice.eisenstein_ms          time in lattice.eisenstein
    lattice.eisenstein_points      points evaluated                 [computed]
    lattice.eisenstein_ns_per_point
    lattice.lattice_sum_ms         time in lattice.lattice_sum
    esums.kernel_self_ms           kernel_matrix minus its lattice calls
    esums.kernel_builds            kernel_matrix calls that reached lattice
    esums.kernel_hit_ratio         kernel_matrix calls served from the cache
    esums.kernel_mb                bytes of the kernels built       [computed]
    esums.esum_ms, esum_calls      esum and esum_nn self time and calls
    series.ms                      self time of the series functions
    solver.self_ms                 solve_contrast minus its kernel_matrix calls
    solver.iterations              fixed-point iterations
    solver.operator_mb             (N(L+1))^2 * 16 B per solve      [computed]
    solver.matvec_gb               iterations * operator bytes      [computed]
    geometry.rsa_ms, rsa_draws, rsa_accept_ratio (disks placed / draws)
    geometry.save_ms               save_configuration minus its JSON encoding
    pipeline.self_ms               pipeline, cli and serialize self time
    pipeline.write_ms              write_run, and JSON encoding outside it
    pipeline.output_kb             bytes written to the run directories
    trace.overhead_frac            traced wall / untraced wall - 1, median
                                   over the ensembles run both ways

Counts marked [computed] derive from array sizes and iteration counts, not
from clocks, and repeat exactly across runs of one seed and --seconds, as do
rsa_draws, kernel_builds and iterations.

The correctness gate counts a trial as failed when its ensemble raised, when
one of its values is not finite or its solve did not converge, or when a
written configuration does not reload through load_configuration (which
rejects overlapping disks).  It also checks, counting the ensembles involved:
the ensemble on the default seed matches reference.json at rel 1e-9 (abs
1e-12); a repeat of the first ensemble writes byte-identical results.json and
trials.csv (gen: configuration files); and the mean of the off-diagonal
column, which vanishes by the reflection symmetry of the square cell, lies
within 3 sigma of 0, sigma being the per-trial standard deviation over all
timed trials.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import PROBES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 0
#: The warm-up trial is the same in every run, so setup_s does not vary with
#: the seed; no timed ensemble uses this master seed.
WARMUP_MASTER = 0
SETUP_SAMPLES = 5
REL_TOL, ABS_TOL = 1e-9, 1e-12


@dataclass(frozen=True)
class Workload:
    kind: str  # "mc": run_ensemble + write_run; "gen": effcond gen
    n: int
    nu: float
    trials: int  # trials per ensemble
    trial_s: float  # nominal seconds per trial; sizes the traced run only
    quantities: tuple = ()
    offdiag: str | None = None  # column whose ensemble mean is 0 by symmetry


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "mc_e2": Workload("mc", 64, 0.3, trials=50, trial_s=0.05,
                      quantities=("e2",), offdiag="e2_im"),
    "mc_series": Workload("mc", 64, 0.3, trials=5, trial_s=0.37,
                          quantities=("lambda-series:0.8:6", "zeta1:12"),
                          offdiag="lambda-series:0.8:6_lambda12"),
    "mc_solver": Workload("mc", 64, 0.45, trials=2, trial_s=1.25,
                          quantities=("lambda-solver:1.0",),
                          offdiag="lambda-solver:1.0_lambda12"),
    # nu=0.45 rather than the RSA guard 0.5: at 0.5 the waits for the last
    # disks give per-trial times a coefficient of variation of 45%, against
    # 19% here, too wide to compare runs of ~25 trials on different seeds.
    "gen_dense": Workload("gen", 256, 0.45, trials=10, trial_s=0.16),
}


def master_seed(seed: int, ensemble: int) -> int:
    """Master seed of ensemble `ensemble` of a run; never WARMUP_MASTER."""
    return seed * 10_000 + ensemble + 1


def run_one(wl: Workload, master: int, outdir: Path, trials: int | None = None):
    """One ensemble as the CLI runs it; returns EnsembleStats (mc) or None (gen).

    `trials` defaults to the workload's ensemble size.

    Package functions are looked up on their modules at call time, so an
    active Tracer sees these calls.
    """
    from effcond import cli, pipeline
    from effcond.geometry import EnsembleDescriptor

    trials = trials or wl.trials
    if wl.kind == "mc":
        desc = EnsembleDescriptor(n=wl.n, nu=wl.nu, trials=trials, seed=master)
        stats = pipeline.run_ensemble(desc, list(wl.quantities))
        pipeline.write_run(outdir, stats, list(wl.quantities))
        return stats
    argv = ["gen", "--n", str(wl.n), "--nu", repr(wl.nu), "--trials",
            str(trials), "--seed", str(master), "--out", str(outdir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"effcond gen exited with code {code}")
    return None


@dataclass
class Ensemble:
    master: int
    outdir: Path
    trials: int
    start: float = 0.0
    end: float = 0.0
    stats: object = None
    error: str | None = None
    trial_starts: list = field(default_factory=list)
    converged: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    def latencies(self) -> list:
        ends = self.trial_starts[1:] + [self.end]
        return [b - a for a, b in zip(self.trial_starts, ends)]


def run_traced(wl: Workload, master: int, outdir: Path, tracer: Tracer) -> Ensemble:
    """Run one ensemble under `tracer`; a raised error marks it failed.

    A user runs each ensemble in a process of its own.  Garbage left by the
    previous ensemble is collected first, outside the timed span, so that
    peak memory does not depend on how many ensembles a run fits in: a
    configuration and its solver workspace refer to each other, so only the
    cyclic collector frees them.
    """
    gc.collect()
    ens = Ensemble(master, outdir, wl.trials)
    first = len(tracer.spans)
    ens.start = perf_counter()
    try:
        ens.stats = run_one(wl, master, outdir)
    except Exception as exc:  # a failed ensemble is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        ens.error = f"{type(exc).__name__}: {exc}"
    ens.end = perf_counter()
    for name, start, _, _, _, info in tracer.spans[first:]:
        if name == "geometry.rsa_generate":
            ens.trial_starts.append(start)
        elif name == "solver.solve_contrast" and info is not None:
            ens.converged.append(info[1])
    return ens


def ensemble_summary(wl: Workload, ens: Ensemble):
    """What the reference check compares: statistics (mc) or configurations (gen)."""
    from effcond.geometry import load_configuration

    if wl.kind == "mc":
        return {"stats": ens.stats.stats, "extras": ens.stats.extras}
    configs = []
    for path in sorted(ens.outdir.glob("config_*.json")):
        config = load_configuration(path)
        configs.append({
            "candidates_drawn": config.meta["candidates_drawn"],
            "sum_re": float(config.centers.real.sum()),
            "sum_im": float(config.centers.imag.sum()),
            "sum_abs2": float((abs(config.centers) ** 2).sum()),
        })
    return {"configs": configs}


def close(got, want) -> bool:
    """Recursive equality with floats compared at REL_TOL / ABS_TOL."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and not isinstance(got, bool):
        return isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return got == want


def output_bytes(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def compared_files(wl: Workload, files: dict) -> dict:
    """Outputs that must repeat byte for byte (manifest.json of mc has timestamps)."""
    if wl.kind == "mc":
        return {k: files[k] for k in ("results.json", "trials.csv")}
    return files


class Gate:
    """Collects failed trials and the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, trials: int, reason: str):
        self.failed += trials
        self.reasons.append(reason)

    @property
    def failed_trials(self) -> int:
        """Failed trials, each counted once however many checks it failed."""
        return min(self.failed, self.attempted)

    def add(self, wl: Workload, ensembles: list):
        """Per-trial checks on ensembles that count toward attempted."""
        from effcond.errors import DomainError
        from effcond.geometry import load_configuration

        for ens in ensembles:
            self.attempted += ens.trials
            if not ens.ok:
                self.fail(ens.trials, f"ensemble {ens.master}: {ens.error}")
                continue
            if wl.kind == "mc":
                bad = sum(not all(math.isfinite(v) for v in row)
                          for row in ens.stats.per_trial)
                bad += ens.converged.count(False)
                if bad:
                    self.fail(bad, f"ensemble {ens.master}: {bad} non-finite "
                                   "or unconverged trials")
                continue
            for path in sorted(ens.outdir.glob("config_*.json")):
                try:
                    config = load_configuration(path)
                except DomainError as exc:
                    self.fail(1, f"{path.name} of ensemble {ens.master}: {exc}")
                    continue
                if config.n_disks != wl.n:
                    self.fail(1, f"{path.name}: {config.n_disks} disks, want {wl.n}")

    def check_reference(self, wl: Workload, name: str, ens: Ensemble):
        want = json.loads(REFERENCE.read_text())[name]
        if not ens.ok:
            return  # already counted by add()
        if ens.master != want["master_seed"] or not close(
                ensemble_summary(wl, ens), want["summary"]):
            self.fail(ens.trials, "default-seed ensemble differs from "
                                  "reference.json at rel 1e-9")

    def check_repeat(self, wl: Workload, a: Ensemble, b: Ensemble):
        if a.ok and b.ok and compared_files(wl, output_bytes(a.outdir)) != \
                compared_files(wl, output_bytes(b.outdir)):
            self.fail(b.trials, f"ensemble {a.master}: outputs differ on repeat")

    def check_symmetry(self, wl: Workload, ensembles: list):
        if wl.offdiag is None:
            return
        values = []
        for ens in ensembles:
            if ens.ok:
                column = ens.stats.columns.index(wl.offdiag)
                values += [row[column] for row in ens.stats.per_trial]
        if len(values) < 2:
            return
        mean = statistics.fmean(values)
        sigma = statistics.stdev(values)
        if abs(mean) > 3.0 * sigma:
            self.fail(len(values), f"mean {wl.offdiag} = {mean:.3g} beyond "
                                   f"3 sigma = {3 * sigma:.3g}")


def measure_setup(name: str, seed: int) -> list:
    """Wall seconds from process start to a finished warm-up trial, per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=150)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with code {code}")
        samples.append(ready - start)
    return samples


def quantile(values, q: int, n: int = 10) -> float:
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def check_trials_seen(seen: int, ran: int):
    """Every trial opens with rsa_generate; a wrapper that missed a binding
    of it would leave trials untimed."""
    if seen != ran:
        raise RuntimeError(f"tracer saw {seen} trials of {ran}")


def end_to_end(wl, ensembles, setup, gate) -> tuple:
    done = [e for e in ensembles if e.ok]
    check_trials_seen(sum(len(e.trial_starts) for e in done),
                      sum(e.trials for e in done))
    wall = sum(e.end - e.start for e in ensembles)
    lat_ms = [1e3 * t for e in done for t in e.latencies()]
    if len(lat_ms) < 2:
        raise RuntimeError("fewer than two timed trials completed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "trials_per_s": (sum(e.trials for e in done) / wall, "1/s"),
        "trial_p50_ms": (statistics.median(lat_ms), "ms"),
        "trial_p90_ms": (quantile(lat_ms, 9), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": ((gate.attempted - gate.failed_trials) / gate.attempted,
                    "ratio"),
    }
    samples = {
        "timed_trials": len(lat_ms),
        "trials_beyond_p90": sum(t > metrics["trial_p90_ms"][0] for t in lat_ms),
        "ensembles": len(ensembles),
        "setup_s_samples": setup,
    }
    return metrics, samples


def per_layer(tracer: Tracer, trials: int, out_bytes: int, overhead: float) -> tuple:
    spans = tracer.spans
    self_t = tracer.self_times()
    dur, own, calls, info = {}, {}, {}, {}
    for (name, start, end, _, _, extra), s in zip(spans, self_t):
        dur[name] = dur.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            info.setdefault(name, []).append(extra)
    layer_ms = {}
    for name, s in own.items():
        layer = name.split(".")[0]
        layer_ms[layer] = layer_ms.get(layer, 0.0) + 1e3 * s / trials

    built = {r[3] for r in spans
             if r[0].startswith("lattice.") and r[3] >= 0
             and spans[r[3]][0] == "esums.kernel_matrix"}
    kernel_calls = calls.get("esums.kernel_matrix", 0)
    kernel_bytes = sum(spans[i][5] for i in built)
    points = sum(info.get("lattice.eisenstein", []))
    solves = info.get("solver.solve_contrast", [])
    draws = info.get("geometry.rsa_generate", [])
    check_trials_seen(len(draws), trials)
    write = dur.get("pipeline.write_run", 0.0) + sum(
        end - start for name, start, end, parent, _, _ in spans
        if name in ("pipeline.dump_json", "pipeline.dump_csv")
        and (parent < 0 or spans[parent][0] != "pipeline.write_run"))

    def ms(x):
        return 1e3 * x / trials

    metrics = {
        "lattice.eisenstein_ms": (ms(dur.get("lattice.eisenstein", 0.0)), "ms"),
        "lattice.eisenstein_points": (points / trials, "count"),
        "lattice.eisenstein_ns_per_point": (
            1e9 * dur["lattice.eisenstein"] / points if points else 0.0, "ns"),
        "lattice.lattice_sum_ms": (ms(dur.get("lattice.lattice_sum", 0.0)), "ms"),
        "esums.kernel_self_ms": (ms(own.get("esums.kernel_matrix", 0.0)), "ms"),
        "esums.kernel_builds": (len(built) / trials, "count"),
        "esums.kernel_hit_ratio": (
            (kernel_calls - len(built)) / kernel_calls if kernel_calls else 0.0,
            "ratio"),
        "esums.kernel_mb": (kernel_bytes / 1e6 / trials, "MB"),
        "esums.esum_ms": (ms(own.get("esums.esum", 0.0)
                             + own.get("esums.esum_nn", 0.0)), "ms"),
        "esums.esum_calls": ((calls.get("esums.esum", 0)
                              + calls.get("esums.esum_nn", 0)) / trials, "count"),
        "series.ms": (layer_ms.get("series", 0.0), "ms"),
        "solver.self_ms": (ms(own.get("solver.solve_contrast", 0.0)), "ms"),
        "solver.iterations": (sum(s[0] for s in solves) / trials, "count"),
        "solver.operator_mb": (sum(s[2] ** 2 * 16 for s in solves) / 1e6 / trials,
                               "MB"),
        "solver.matvec_gb": (
            sum(s[0] * s[2] ** 2 * 16 for s in solves) / 1e9 / trials, "GB"),
        "geometry.rsa_ms": (ms(dur.get("geometry.rsa_generate", 0.0)), "ms"),
        "geometry.rsa_draws": (sum(d for d, _ in draws) / trials, "count"),
        "geometry.rsa_accept_ratio": (
            sum(n for _, n in draws) / sum(d for d, _ in draws), "ratio"),
        "geometry.save_ms": (ms(own.get("geometry.save_configuration", 0.0)), "ms"),
        "pipeline.self_ms": (layer_ms.get("pipeline", 0.0), "ms"),
        "pipeline.write_ms": (ms(write), "ms"),
        "pipeline.output_kb": (out_bytes / 1024 / trials, "KB"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return metrics, {"traced_trials": trials, "layer_self_ms": layer_ms,
                     "spans": len(spans)}


def write_spans(path: Path, tracer: Tracer):
    rows = [{"name": n, "start": s, "end": e, "parent": p, "trial": t}
            for n, s, e, p, t, _ in tracer.spans]
    path.write_text(json.dumps(rows))


def openblas_facts() -> dict:
    import ctypes
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def code_facts() -> dict:
    files = sorted((SRC / "effcond").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **openblas_facts()}


def import_package():
    """Import effcond from src/ of this checkout, never from elsewhere."""
    if not (SRC / "effcond" / "__init__.py").is_file():
        raise SystemExit(f"error: no effcond package under {SRC}")
    sys.path.insert(0, str(SRC))
    import effcond

    if Path(effcond.__file__).resolve().parent != (SRC / "effcond").resolve():
        raise SystemExit(f"error: effcond imported from {effcond.__file__}")


def measure(name: str, wl: Workload, seed: int, seconds: int, trace: bool,
            work: Path) -> dict:
    gate = Gate()
    run_one(wl, WARMUP_MASTER, work / "warm", trials=1)
    if not trace:
        setup = measure_setup(name, seed)
        ensembles = []
        stop = perf_counter() + seconds
        with Tracer(only=PROBES) as probes:
            while not ensembles or perf_counter() < stop:
                e = len(ensembles)
                ensembles.append(run_traced(
                    wl, master_seed(seed, e), work / f"e{e}", probes))
            repeat = run_traced(wl, ensembles[0].master, work / "repeat", probes)
        gate.add(wl, ensembles + [repeat])
        gate.check_repeat(wl, ensembles[0], repeat)
        gate.check_symmetry(wl, ensembles)
        checked = ensembles
    else:
        count = max(1, round(seconds / (2 * wl.trials * wl.trial_s)))
        plain, traced = [], []
        tracer = Tracer()
        for e in range(count):
            master = master_seed(seed, e)
            for side in ((0, 1) if e % 2 == 0 else (1, 0)):
                if side == 0:
                    with Tracer(only=PROBES) as probes:
                        plain.append(run_traced(wl, master, work / f"p{e}", probes))
                else:
                    with tracer:
                        traced.append(run_traced(wl, master, work / f"t{e}", tracer))
        gate.add(wl, plain + traced)
        for a, b in zip(plain, traced):
            gate.check_repeat(wl, a, b)
        gate.check_symmetry(wl, traced)
        checked = traced
    if seed == DEFAULT_SEED:
        reference = checked[0]
    else:
        reference = run_traced(wl, master_seed(DEFAULT_SEED, 0), work / "ref",
                               Tracer(only={}))
        gate.add(wl, [reference])
    gate.check_reference(wl, name, reference)

    if not trace:
        metrics, samples = end_to_end(wl, ensembles, setup, gate)
    else:
        trials = sum(e.trials for e in traced)
        overhead = statistics.median(
            (t.end - t.start) / (p.end - p.start) for p, t in zip(plain, traced))
        out_bytes = sum(len(b) for e in traced for b in output_bytes(e.outdir).values())
        metrics, samples = per_layer(tracer, trials, out_bytes, overhead - 1.0)
        write_spans(OUT / f"spans-{name}-seed{seed}.json", tracer)
    return {"metrics": metrics, "samples": samples, "gate": gate}


def write_reference():
    """Record the default-seed ensemble of every workload in reference.json."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"reference-{os.getpid()}"
    data = {}
    try:
        for name, wl in WORKLOADS.items():
            ens = run_traced(wl, master_seed(DEFAULT_SEED, 0), work / name,
                             Tracer(only={}))
            if not ens.ok:
                raise RuntimeError(f"{name}: {ens.error}")
            data[name] = {"master_seed": ens.master, "trials": wl.trials,
                          "summary": ensemble_summary(wl, ens)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    import_package()

    if args.write_reference:
        write_reference()
        return 0
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    try:
        if args.setup_probe:
            run_one(wl, WARMUP_MASTER, work, trials=1)
            print("ready", flush=True)
            return 0
        result = measure(args.workload, wl, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gate = result["gate"]
    for reason in gate.reasons:
        print(f"gate: {reason}", file=sys.stderr)
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             **result["samples"], **machine_facts(), **code_facts()}
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed_trials,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
