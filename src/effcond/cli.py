"""Command-line interface.

Subcommands: gen, esum, coeffs, lambda, mc, compare.  Exit codes: 0 on
success, 2 for domain/validation errors, 3 for generation or convergence
failures.  All floats are emitted with 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConvergenceError, DomainError, GenerationError
from .esums import MAX_SERIES_ORDER, check_index, esums_csv
from .geometry import EnsembleDescriptor, load_configuration, save_configuration
from .pipeline import (
    DEFAULT_CONTRAST_NMAX,
    QuantitySpec,
    _descriptor_dict,
    compare_csv,
    compare_methods,
    evaluate,
    iter_trials,
    run_ensemble,
    write_run,
)
from .serialize import dump_csv, dump_json
from .series import cluster_coeffs, lambda_dilute, lambda_pade


def _parse_cell(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"--cell expects w1,w2re,w2im, got {text!r}")
    w1, w2re, w2im = (float(p) for p in parts)
    return w1, complex(w2re, w2im)


def _parse_index(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split("-"))
    except ValueError as exc:
        raise DomainError(f"bad index {text!r}: {exc}") from exc


def _descriptor(args) -> EnsembleDescriptor:
    w1, w2 = _parse_cell(args.cell)
    return EnsembleDescriptor(
        n=args.n,
        nu=args.nu,
        trials=args.trials,
        seed=args.seed,
        cell_omega1=w1,
        cell_omega2=w2,
    )


def cmd_gen(args) -> int:
    desc = _descriptor(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    seeds = []
    for i, seed, config in iter_trials(desc):
        path = out / f"config_{i:04d}.json"
        save_configuration(config, path)
        paths.append(path.name)
        seeds.append(seed)
    manifest = {**_descriptor_dict(desc), "trial_seeds": seeds, "configs": paths}
    (out / "manifest.json").write_text(dump_json(manifest))
    print(f"wrote {len(paths)} configurations to {out}")
    return 0


def cmd_esum(args) -> int:
    config = load_configuration(args.config)
    indices = [check_index(_parse_index(t)) for t in args.index]
    values = evaluate(config, [QuantitySpec("", "esum", index=i) for i in indices],
                      config.nu)
    sys.stdout.write(esums_csv(Path(args.config).stem, dict(zip(indices, values))))
    return 0


def cmd_coeffs(args) -> int:
    config = load_configuration(args.config)
    coeffs = cluster_coeffs(config, args.rho, args.order)
    rows = [(n + 1, a.real, a.imag) for n, a in enumerate(coeffs.values)]
    sys.stdout.write(dump_csv(["n", "re", "im"], rows))
    return 0


def cmd_lambda(args) -> int:
    config = load_configuration(args.config)
    if args.method in ("dilute", "pade"):
        fn = lambda_dilute if args.method == "dilute" else lambda_pade
        result = fn(config.nu, args.rho)
    else:
        kind = {"cluster": "lambda_series", "contrast": "lambda_contrast",
                "solver": "lambda_solver"}[args.method]
        spec = QuantitySpec("", kind, rho=args.rho, order=args.order, n_max=args.nmax)
        (result,) = evaluate(config, [spec], config.nu)
    sys.stdout.write(dump_json(result.to_dict()))
    return 0


def cmd_mc(args) -> int:
    desc = _descriptor(args)
    quantities = [t for t in args.quantities.split(",") if t]
    stats = run_ensemble(desc, quantities)
    paths = write_run(args.out, stats, quantities)
    print(f"wrote {paths['results']}")
    return 0


def cmd_compare(args) -> int:
    desc = _descriptor(args)
    rows = compare_methods(desc, args.rho, args.order, args.nmax)
    sys.stdout.write(compare_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effcond",
        description="Effective conductivity of doubly periodic disk composites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order_help = f"cluster series order J <= {MAX_SERIES_ORDER}"

    def add_ensemble_args(p, trials_default):
        p.add_argument("--n", type=int, required=True, help="disks per cell")
        p.add_argument("--nu", type=float, required=True, help="area fraction")
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--cell", default="1,0,1", help="periods as w1,w2re,w2im (default square)"
        )

    p = sub.add_parser("gen", help="generate RSA configuration files")
    add_ensemble_args(p, 1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("esum", help="structural sums of one configuration (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--index", action="append", required=True,
        help="hyphen-joined entries, e.g. 3-3-2 (repeatable)",
    )
    p.set_defaults(func=cmd_esum)

    p = sub.add_parser("coeffs", help="concentration-series coefficients (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--order", type=int, default=6, help=order_help)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("lambda", help="effective conductivity of one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument(
        "--method",
        choices=["cluster", "contrast", "solver", "dilute", "pade"],
        required=True,
    )
    p.add_argument("--order", type=int, default=6, help=order_help)
    p.add_argument("--nmax", type=int, default=DEFAULT_CONTRAST_NMAX,
                   help="contrast tail cutoff")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("mc", help="Monte Carlo ensemble averages")
    add_ensemble_args(p, 1500)
    p.add_argument(
        "--quantities", required=True,
        help="comma list: e2,e22,lambda-solver:1.0,lambda-series:0.8:6,zeta1:12",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("compare", help="effective conductivity by all methods (CSV)")
    add_ensemble_args(p, 10)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--order", type=int, default=6, help=order_help)
    p.add_argument("--nmax", type=int, default=DEFAULT_CONTRAST_NMAX)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
