"""The benchmark's lapbasis CLI workloads, their inputs and output checks.

Every workload runs one CLI job on a ``bumpy_sphere`` mesh that is made
from the workload seed and written to an OFF file, so the program sees
only that file and the command line.  Each of a job's fields is compared
with scipy's ``expm_multiply`` of ``-t B^{-1} L`` (Al-Mohy & Higham 2011),
a route that shares nothing with the rational or truncated evaluation but
the operator.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


@dataclass(frozen=True)
class Workload:
    name: str
    subdivisions: int  # bumpy_sphere level: 4, 5, 6 -> n = 2562, 10242, 40962
    argv: tuple  # CLI arguments before --mesh and --out
    t: float  # diffusion scale of the fields, for the reference
    tol: float  # sup-norm relative error above which a field is broken

    @property
    def family(self):
        """Output stem of a ``basis`` job, or None for ``coverage``."""
        return self.argv[1] if self.argv[0] == "basis" else None

    def option(self, flag):
        return self.argv[self.argv.index(flag) + 1]


# Why each workload was chosen is recorded in BENCHMARK.json.
# Every field of every job is checked.  Each must stay within the
# workload's tolerance, which guards against broken results with a wide
# margin over the largest errors these routes have on the seed code (about
# 4.5e-4, 1e-5, 1e-4 and 2.5e-3 on heat-batch, coverage-small-t,
# eigen-truncated and heat-large).
# The three workloads that BENCHMARK.json gates run on the level-4 mesh,
# so that a 40 s run holds 20 or more jobs.  heat-batch keeps n t near
# 100, as at n = 10242 with t = 0.01, because the r = 5 error grows with
# n t; there its largest error is about 4.4e-4 on every mesh seed.
# eigen-truncated keeps k = 36, the end of the sphere's l = 5 eigenvalue
# cluster: there the Lanczos solver does the same work on every mesh seed
# (282 solves on seeds 1-10; at k = 64, inside no cluster gap, 394-658),
# and the truncation error (about exp(-t lambda_37)) does not depend on
# how the bumps split a cluster.  t keeps that error well above round-off
# and well below the tolerance.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heat-batch", 4,
            ("basis", "diffusion", "--fps", "64", "--t", "0.04"),
            0.04, 1e-2,
        ),
        Workload(
            "coverage-small-t", 4,
            ("coverage", "--t", "0.001", "--k0", "20",
             "--metric", "graph_geodesic"),
            0.001, 1e-2,
        ),
        Workload(
            "eigen-truncated", 4,
            ("basis", "spectral", "--filter", "exp:t=0.25",
             "--method", "truncated", "--k", "36", "--fps", "16"),
            0.25, 1e-3,
        ),
        Workload(
            "heat-large", 6,
            ("basis", "diffusion", "--fps", "4", "--t", "0.01"),
            0.01, 5e-2,
        ),
    )
}


def make_mesh(lb, workload, seed, tiny):
    """The workload mesh: bumpy_sphere(level, seed), or icosphere(3)."""
    if tiny:
        return lb.icosphere(3)
    return lb.bumpy_sphere(workload.subdivisions, seed=seed)


def _matrix(M):
    """Plain scipy matrix of an operator part, wrapped or not."""
    return M if sp.issparse(M) else M.data


def expected_seeds(lb, workload, mesh, op):
    """The seeds the job picks, in its order, as far as known beforehand.

    ``basis`` jobs use Euclidean FPS from the curvature maximum; a coverage
    run starts from geodesic FPS with k0 seeds.
    """
    if workload.family is None:
        return list(lb.farthest_point_sampling(
            mesh, int(workload.option("--k0")), op=op,
            metric=workload.option("--metric")))
    return list(lb.farthest_point_sampling(
        mesh, int(workload.option("--fps")), op=op))


class Reference:
    """exp(-t B^{-1} L) e_s by expm_multiply, cached per seed."""

    def __init__(self, op, t):
        L = _matrix(op.L).tocsr()
        B = _matrix(op.B)
        self.A = (-t * sp.diags(1.0 / B.diagonal()) @ L).tocsr()
        self.n = L.shape[0]
        self._cols = {}

    def fields(self, seeds):
        todo = [s for s in dict.fromkeys(seeds) if s not in self._cols]
        if todo:
            E = np.zeros((self.n, len(todo)))
            E[todo, np.arange(len(todo))] = 1.0
            R = expm_multiply(self.A, E)
            for j, s in enumerate(todo):
                self._cols[s] = R[:, j]
        return [self._cols[s] for s in seeds]


def _read_field_csv(path, n):
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
    if len(values) != n:
        raise ValueError(f"{os.path.basename(path)}: {len(values)} rows, "
                         f"expected {n}")
    return values


def _rel_err(u, ref):
    return float(np.abs(u - ref).max() / np.abs(ref).max())


def check_job(workload, outdir, seeds, reference, coverage_result, baseline):
    """Check one job's outputs.

    Returns (problems, errors, outputs): a list of failed checks, the
    sup-norm relative error of each field (empty when none could be
    compared), and the manifest's (path, sha256) list.
    """
    problems = []
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    outputs = [(o["path"], o["sha256"]) for o in manifest["outputs"]]
    if baseline is not None and outputs != baseline:
        problems.append("artifact sha256 list differs from the run's first job")

    n = reference.n
    if workload.family is not None:
        stem = workload.family
        count = sum(1 for p, _ in outputs if p.startswith(stem + "_"))
        if count != len(seeds):
            problems.append(f"{count} {stem} fields, expected {len(seeds)}")
        fields = [
            _read_field_csv(os.path.join(outdir, f"{stem}_{i:04d}.csv"), n)
            for i in range(len(seeds))
        ]
        field_seeds = seeds
    else:
        with open(os.path.join(outdir, "coverage_seeds.txt")) as fh:
            chosen = [int(line) for line in fh if line.strip()]
        if len(set(chosen)) != len(chosen):
            problems.append("coverage seeds are not distinct")
        with open(os.path.join(outdir, "coverage_curve.csv")) as fh:
            last = fh.read().split()[-1].split(",")[1]
        if float(last) != 1.0:
            problems.append(f"final coverage fraction {last}, expected 1.0")
        if coverage_result is None:
            problems.append("no coverage result was returned")
            return problems, [], outputs
        if list(coverage_result.seeds) != chosen:
            problems.append("coverage_seeds.txt differs from the result")
        fields = [np.asarray(f, dtype=float) for f in coverage_result.basis]
        field_seeds = chosen

    errs = [_rel_err(u, r)
            for u, r in zip(fields, reference.fields(field_seeds))]
    worst = max(errs)
    if not worst <= workload.tol:
        problems.append(f"relative error {worst:.3e} above {workload.tol:g}")
    return problems, errs, outputs
