"""Smoke run of the benchmark's own checks on its tiny mesh.

perfbench/run.py --tiny runs real CLI jobs on icosphere(3) and checks
every field against expm_multiply, the artifact sha256 list between jobs
and, for coverage, the final coverage fraction 1.0.  coverage-small-t
takes the Lanczos route there and heat-batch the LU route.  Run records
go to the git-ignored .perfbench_runs/.
"""

import json
import os
import subprocess
import sys

import pytest

import lapbasis as lb
from lapbasis.basis import ChebyshevKernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload, t, route", [
    ("coverage-small-t", 0.001, "lanczos"),
    ("heat-batch", 0.04, "lu"),
])
def test_tiny_run_passes_its_checks(op3, workload, t, route):
    pf = lb.partial_fractions(lb.FilterSpec.exponential(t))
    assert ChebyshevKernel(op3, pf).route == route
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 2
