"""Peak memory and time of the eigensolver on bumpy_sphere meshes.

Usage: python tools/eigen_memory.py [LEVEL ...]
Default: levels 4 5 6 (n = 2562, 10242, 40962), on bumpy_sphere(level,
seed=2).

Each level runs in a fresh interpreter (sys.executable) with one BLAS
thread, importing lapbasis from this checkout's src/, and prints one JSON
line: the level, n, k = 36, the shift LU's and the last certificate LU's
nnz (EigenSystem.stats), peak_mb, the rise of ru_maxrss during
smallest_eigenpairs above the process with the assembled operator, in
MB, eigensolve_s, the wall time of that call, and ordering_s, the median
of five nested_dissection calls on the shift matrix, timed after the
eigensolve so that they do not move the peak.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

K = 36
SEED = 2
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def measure(level):
    """The JSON record of one level, in this process."""
    import resource
    import time

    import numpy as np

    import lapbasis as lb
    from lapbasis import numerics

    op = lb.assemble(lb.bumpy_sphere(level, seed=SEED))
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    t = time.perf_counter()
    eig = numerics.smallest_eigenpairs(op.L, op.B, K)
    eigensolve_s = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lam = numerics.pencil_bound(op.L, op.B)
    shift = op.L - numerics.SIGMA * lam * op.B
    times = []
    for _ in range(5):
        t = time.perf_counter()
        numerics.nested_dissection(shift)
        times.append(time.perf_counter() - t)
    return {"level": level, "n": op.n, "k": K,
            "lu_nnz": eig.stats["lu_nnz"],
            "certificate_lu_nnz": eig.stats["certificate_lu_nnz"],
            "peak_mb": round((peak - base) * 1024 / 1e6, 2),
            "eigensolve_s": round(eigensolve_s, 4),
            "ordering_s": round(float(np.median(times)), 5)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("levels", type=int, nargs="*", default=[4, 5, 6])
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)  # measure here, one level
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.levels[0])))
        return 0
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    for level in args.levels:
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(level)], env=env,
            check=True, capture_output=True, text=True)
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
