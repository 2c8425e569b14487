#!/usr/bin/env python3
"""Self-check of the benchmark: every workload, untraced and traced.

Run from the repository root:

    python3 bench/selfcheck.py [--seconds 1]

For each workload in BENCHMARK.json it runs bench/run.py with --trace 0 and
--trace 1 on the default seed, checks that the last line of output is the
result object with exactly the keys correct, attempted, failed and metrics,
that the run passed its correctness gate, and that every end-to-end
(trace 0) or per-layer (trace 1) metric of BENCHMARK.json is printed with
its unit and nothing else.  It prints one table row per metric and exits
with code 1 on any mismatch.  It takes about two minutes, so it is named
outside pytest's test_*.py pattern.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int, seconds: int) -> list:
    cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: gate failed: {proc.stderr[-400:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(want) | set(got)):
        entry = got.get(name)
        unit = want.get(name)
        value = entry["value"] if entry else None
        print(f"{workload:10s} {name:34s} {value!s:>24s} {entry and entry['unit']}")
        if entry is None or unit is None or entry["unit"] != unit \
                or not isinstance(value, (int, float)):
            problems.append(f"{label}: metric {name}: got {entry}, want unit {unit}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace, args.seconds)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
