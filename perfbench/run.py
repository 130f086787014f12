"""Benchmark of lapbasis CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload heat-batch --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory, and the run stops with an error when that is missing.

One run builds the workload mesh from ``--seed``, writes it as OFF into a
temporary directory under ``.perfbench_runs/`` in the checkout, warms
set-up (``load_mesh`` + ``assemble``), computes the reference fields, and
then runs the workload's CLI job through ``lapbasis.cli.main`` one job
after another (closed loop, one client) for ``--seconds``.  Every job's
outputs are checked (see workloads.check_job).

``--trace 0`` reports the end-to-end metrics:

- job_s: median time of one job, from the call to ``cli.main`` until
  ``manifest.json`` is written, in reference seconds (see calibrate.py:
  each job runs pinned to the CPU that is fastest at its start, and its
  wall time is scaled by the speed of that CPU around the job);
- setup_s: median time of ``load_mesh(path)`` + ``assemble(mesh)`` in
  the warmed process, timed once after each job and scaled by the kernel
  time just before it (interpreter and import time excluded);
- peak_rss_mb: peak resident memory of the process (``ru_maxrss``) when
  its first job has ended, as for a CLI process that runs one job; later
  jobs in the same process add allocator growth, not the job's need;
- max_rel_err: the largest sup-norm (max over vertices) relative error of
  the job's fields against ``expm_multiply``.

``--trace 1`` alternates untraced and traced jobs for ``--seconds`` and
reports the per-layer metrics of spans.LAYER_METRICS, in wall seconds;
trace.overhead_s is the median traced job_s minus the median untraced
job_s, both scaled as above.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is the
environment record; the full record, with job times and (traced) spans,
is also written to ``.perfbench_runs/results/``.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# fixed so that runs are comparable; no higher than nproc on any machine.
# Set before numpy is first imported, which reads it once.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _k in BLAS_ENV:
    os.environ[_k] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from spans import Tracer, replace_everywhere, restore  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Reference, check_job, expected_seeds, make_mesh,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

MIN_JOBS = 2  # the sha256 check compares two jobs of one run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke check: icosphere(3) instead of the workload mesh")
    return p.parse_args(argv)


def environment(tmpdir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "tmpdir": os.path.relpath(tmpdir, ROOT),
    }


def time_setup(lb, path):
    """One load_mesh + assemble of the mesh file: (seconds, mesh, op)."""
    t0 = time.perf_counter()
    mesh = lb.mesh.load_mesh(path)
    op = lb.laplacian.assemble(mesh)
    return time.perf_counter() - t0, mesh, op


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Jobs:
    """Runs one workload's CLI job repeatedly and checks each one."""

    def __init__(self, lb, workload, mesh_path, tmpdir, seeds, reference,
                 calibration):
        self.lb = lb
        self.workload = workload
        self.mesh_path = mesh_path
        self.tmpdir = tmpdir
        self.seeds = seeds
        self.reference = reference
        self.calibration = calibration
        self.baseline = None
        self.records = []  # one dict per job, in order
        self.captured = None
        self._undo = []
        if workload.family is None:
            # coverage exports no fields: keep the result coverage_loop
            # returns, through a pass-through wrapper that does no timing
            def capture(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    self.captured = fn(*args, **kwargs)
                    return self.captured
                return wrapper

            self._undo = replace_everywhere("lapbasis.seeds", "coverage_loop",
                                            capture)

    def close(self):
        restore(self._undo)

    def argv(self, mesh_path, outdir):
        return list(self.workload.argv) + ["--mesh", mesh_path, "--out", outdir]

    def warm_up(self, tiny_mesh_path):
        """One unmeasured, unchecked job on a tiny mesh: first-call costs."""
        outdir = os.path.join(self.tmpdir, "warmup")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.lb.cli.main(self.argv(tiny_mesh_path, outdir))
        except Exception:
            print("perfbench: warm-up job raised:\n" + traceback.format_exc(),
                  file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)

    def one(self, tracer=None):
        """Run and check one job; with a tracer, the job runs traced.

        The job runs pinned to the CPU that is fastest at its start; its
        wall time is scaled by the kernel times before and after it.
        """
        outdir = os.path.join(self.tmpdir, f"job{len(self.records)}")
        self.captured = None
        problems = []
        before = self.calibration.pin_fastest()
        if tracer is not None:
            tracer.start_job()
            tracer.install()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.lb.cli.main(self.argv(self.mesh_path, outdir))
        except Exception:
            rc = None
            problems.append("raised: " + traceback.format_exc(limit=3))
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        after = self.calibration.kernel_s()
        errs = []
        if rc not in (0, None):
            problems.append(f"returned {rc}")
        if rc == 0:
            try:
                found, errs, outputs = check_job(
                    self.workload, outdir, self.seeds, self.reference,
                    self.captured, self.baseline)
                problems += found
                if self.baseline is None:
                    self.baseline = outputs
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"output check raised {exc!r}")
        shutil.rmtree(outdir, ignore_errors=True)
        self.records.append({
            "wall_s": wall_s, "scale": REFERENCE_S / ((before + after) / 2),
            "traced": tracer is not None,
            "problems": problems,
            "worst_rel_err": max(errs, default=None),
            "maxrss_mb": _maxrss_mb()})

    def median_job_s(self, traced):
        return statistics.median(
            r["wall_s"] * r["scale"] for r in self.records
            if r["traced"] == traced)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lapbasis", "__init__.py")):
        print(f"perfbench: no lapbasis sources at {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lapbasis as lb
    import lapbasis.cli  # noqa: F401  (the module the jobs run through)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    os.makedirs(RUNS, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS)
    try:
        return run(lb, workload, args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(lb, workload, args, tmpdir):
    env = environment(tmpdir)
    mesh_path = os.path.join(tmpdir, "mesh.off")
    lb.save_off(make_mesh(lb, workload, args.seed, args.tiny), mesh_path)
    tiny_path = os.path.join(tmpdir, "warmup.off")
    lb.save_off(lb.icosphere(2), tiny_path)

    # this set-up warms the process and is not counted; the counted ones
    # run between the untraced jobs, so that set-up is sampled over the
    # whole run rather than in one burst
    _, mesh, op = time_setup(lb, mesh_path)
    setup_times = []
    seeds = expected_seeds(lb, workload, mesh, op)
    reference = Reference(op, workload.t)
    reference.fields(seeds)
    del mesh, op

    calibration = Calibration()
    jobs = Jobs(lb, workload, mesh_path, tmpdir, seeds, reference,
                calibration)
    tracer = Tracer() if args.trace else None
    try:
        jobs.warm_up(tiny_path)
        # closed loop for --seconds and at least MIN_JOBS jobs.  Traced
        # runs alternate untraced and traced jobs, so that both medians of
        # trace.overhead_s see the same state of the machine.
        start = time.perf_counter()
        while (len(jobs.records) < MIN_JOBS
               or time.perf_counter() - start < args.seconds):
            if tracer is not None:
                jobs.one(tracer if len(jobs.records) % 2 else None)
            else:
                jobs.one()
                kernel_s = calibration.kernel_s()
                setup_times.append(
                    time_setup(lb, mesh_path)[0] * REFERENCE_S / kernel_s)
        if tracer is not None:
            metrics = tracer.metrics(
                jobs.median_job_s(True) - jobs.median_job_s(False))
        else:
            errs = [r["worst_rel_err"] for r in jobs.records
                    if r["worst_rel_err"] is not None]
            metrics = {
                "job_s": {"value": jobs.median_job_s(False), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times),
                            "unit": "s"},
                "peak_rss_mb": {"value": jobs.records[0]["maxrss_mb"],
                                "unit": "MiB"},
                # 1.0 (no agreement) when no job's fields could be compared
                "max_rel_err": {"value": max(errs, default=1.0),
                                "unit": "ratio"},
            }
    finally:
        jobs.close()

    attempted = len(jobs.records)
    failed = sum(1 for r in jobs.records if r["problems"])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    for r in jobs.records:
        for p in r["problems"]:
            print(f"perfbench: job failed: {p}", file=sys.stderr)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "failed_frac": failed / attempted, "jobs": jobs.records,
        "setup_s": setup_times,
        "result": result,
    }
    if tracer is not None:
        record["spans"] = tracer.span_records()
    results = os.path.join(RUNS, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"environment": env, "failed_frac": failed / attempted,
                      "job_samples": sum(1 for r in jobs.records
                                         if not r["traced"]),
                      "median_wall_job_s": statistics.median(
                          r["wall_s"] for r in jobs.records
                          if not r["traced"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
