"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py --seed 1
    python3 perfbench/report.py --tiny        # smoke check, about a minute

Each run is a fresh interpreter running ``perfbench/run.py``.  The table
has one column per workload of workloads.py, heat-large included: the
end-to-end metrics, failed_frac (failed jobs over jobs attempted, from the
untraced run) and the per-layer metrics of the traced run.  Each run lasts
run_seconds of BENCHMARK.json.  The script exits 1 unless every metric
named in BENCHMARK.json is emitted with its unit and no job failed.  With
``--tiny`` every run uses icosphere(3) and one second of jobs: this is the
benchmark's smoke check.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, tiny):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = 1 if args.tiny else spec["run_seconds"]
    workloads = list(WORKLOADS)
    expected = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}

    columns = {}
    problems = []
    for w in workloads:
        col = {}
        for trace in (0, 1):
            res = run_once(w, args.seed, seconds, trace, args.tiny)
            if res["failed"] or not res["correct"]:
                problems.append(f"{w} trace={trace}: {res['failed']} of "
                                f"{res['attempted']} jobs failed")
            if trace == 0:
                col["failed_frac"] = (res["failed"] / res["attempted"], "1")
            for name, m in res["metrics"].items():
                col[name] = (m["value"], m["unit"])
        columns[w] = col
        for name, unit in expected.items():
            if name not in col:
                problems.append(f"{w}: metric {name} missing")
            elif col[name][1] != unit:
                problems.append(f"{w}: {name} in {col[name][1]}, not {unit}")

    names = ([m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
             + [m["name"] for m in spec["per_layer"]])
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{w:>17s}" for w in workloads))
    for name in names:
        unit = expected.get(name, "1")
        cells = []
        for w in workloads:
            value = columns[w].get(name, (None,))[0]
            cells.append(f"{'-' if value is None else format(value, '.6g'):>17s}")
        print(f"{name:32s} {unit:6s} " + " ".join(cells))
    for msg in problems:
        print("perfbench report:", msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
