"""Time of the coverage loop on bumpy_sphere meshes, and where it goes.

Usage: python tools/coverage_profile.py [LEVEL ...]
Default: levels 4 5 6 (n = 2562, 10242, 40962), on bumpy_sphere(level,
seed=1), with the arguments of perfbench's coverage-small-t workload:
the heat kernel at t = 0.001, k0 = 20 and graph_geodesic distances.

Each level runs in a fresh interpreter (sys.executable) with one BLAS
thread, importing lapbasis from this checkout's src/.  It builds the
kernel once, then runs coverage_loop REPEATS = 3 times and prints one
JSON line for the run with the median loop time: the level, n, the
iteration and seed counts, loop_s, the wall time of coverage_loop,
apply_s, the time spent in the generator (the kernel apply, wrapped
before it is passed in), and distance_s, the time spent in
vertex_distances (wrapped where lapbasis.seeds looks it up, so the
farthest-point seeds count too).  loop_s - apply_s - distance_s is the
loop's own bookkeeping: supports, components and representatives.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

SEED = 1
T = 0.001
K0 = 20
METRIC = "graph_geodesic"
REPEATS = 3
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def measure(level):
    """The JSON record of one level, in this process."""
    import time

    import lapbasis as lb
    from lapbasis import seeds
    from lapbasis.filters import FilterSpec

    mesh = lb.bumpy_sphere(level, seed=SEED)
    op = lb.assemble(mesh)
    heat = lb.filter_kernel(op, FilterSpec.exponential(T))
    spent = {"apply_s": 0.0, "distance_s": 0.0}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t
        return wrapper

    seeds.vertex_distances = timed("distance_s", seeds.vertex_distances)
    generator = timed("apply_s", heat.apply)
    runs = []
    for _ in range(REPEATS):
        spent.update(apply_s=0.0, distance_s=0.0)
        t = time.perf_counter()
        result = seeds.coverage_loop(mesh, op, generator, k0=K0,
                                     metric=METRIC)
        runs.append({"loop_s": time.perf_counter() - t, **spent})
    run = sorted(runs, key=lambda r: r["loop_s"])[len(runs) // 2]
    return {"level": level, "n": mesh.n_vertices,
            "iterations": result.iterations, "seeds": len(result.seeds),
            **{k: round(v, 4) for k, v in run.items()}}


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
