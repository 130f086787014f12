"""Smoke run of the benchmark's own checks on its tiny mesh, and the
library names the benchmark relies on.

perfbench/run.py --tiny runs real CLI jobs on icosphere(3) and checks
every field against expm_multiply, the artifact sha256 list between jobs
and, for coverage, the final coverage fraction 1.0.  coverage-small-t
takes the Lanczos route there and heat-batch the LU route.  Run records
go to the git-ignored .perfbench_runs/.  perfbench/spans.py times layers
by wrapping library functions from outside, so each of its targets must
exist and be the one the routes call, and every workload's command line
must stay valid.
"""

import contextlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import lapbasis as lb
from lapbasis import basis as basis_mod
from lapbasis.basis import ChebyshevKernel
from lapbasis.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench_module(name):
    """A perfbench module, loaded from its file without running anything."""
    path = os.path.join(ROOT, "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    # a target that no longer resolves is skipped, and its layer metrics
    # read zero without any error
    missing = []
    for module_name, attr, _ in perfbench_module("spans").TARGETS:
        owner = importlib.import_module(module_name)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}:{attr}")
    assert missing == []


def test_both_routes_pass_through_their_span_targets(op2, monkeypatch):
    calls = {"apply": 0, "truncated": 0}
    apply, truncated = ChebyshevKernel.apply, basis_mod.truncated_spectral

    def counting_apply(self, f):
        calls["apply"] += 1
        return apply(self, f)

    def counting_truncated(*args):
        calls["truncated"] += 1
        return truncated(*args)

    monkeypatch.setattr(ChebyshevKernel, "apply", counting_apply)
    monkeypatch.setattr(basis_mod, "truncated_spectral", counting_truncated)
    lb.spectral_set(op2, lb.FilterSpec.exponential(0.1), [0, 5, 9])
    assert calls == {"apply": 3, "truncated": 0}
    lb.spectral_set(op2, lb.FilterSpec.exponential(0.1), [0, 5],
                    method="truncated", k=op2.n)
    assert calls == {"apply": 3, "truncated": 2}


def test_workload_argv_runs(tmp_path):
    mesh = tmp_path / "sphere2.off"
    lb.save_off(lb.icosphere(2), mesh)
    for name, w in perfbench_module("workloads").WORKLOADS.items():
        argv = list(w.argv) + ["--mesh", str(mesh),
                               "--out", str(tmp_path / name)]
        # the truncated route with k < n warns; nothing else may
        with (pytest.warns(UserWarning, match="truncated route")
              if "truncated" in argv else contextlib.nullcontext()):
            assert main(argv) == 0, name


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
