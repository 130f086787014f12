"""The measurement harnesses under tools/ run end to end."""

import importlib.util
import json
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_eigen_memory_prints_one_record_per_level(capsys):
    # level 2 only: one fresh interpreter, n = 162, where eigsh still runs
    assert load("eigen_memory").main(["2"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert set(record) == {"level", "n", "k", "lu_nnz", "certificate_lu_nnz",
                           "peak_mb", "eigensolve_s", "ordering_s"}
    assert (record["level"], record["n"], record["k"]) == (2, 162, 36)
    # the certificate factors a matrix of the shift's pattern in its
    # ordering, with diagonal pivots: the same fill
    assert record["lu_nnz"] == record["certificate_lu_nnz"] > 162
    assert record["peak_mb"] >= 0.0
    assert record["eigensolve_s"] > 0.0 and record["ordering_s"] > 0.0
