"""The README's library quick start runs against the package as it is."""

import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

import effcond
from effcond import EnsembleDescriptor, rsa_generate, solve_contrast

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    src = Path(effcond.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", block],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    e2, solve = proc.stdout.splitlines()
    assert complex(e2) == pytest.approx(3.141592653589793, rel=1e-12)
    lam11, lam12, iterations = solve.split()
    desc = EnsembleDescriptor(n=64, nu=0.3, trials=1, seed=42)
    res = solve_contrast(rsa_generate(desc), rho=0.9)
    assert (float(lam11), float(lam12), int(iterations)) == (
        res.lambda11, res.lambda12, res.iterations
    )
