"""End-to-end runs of the command line interface."""

import argparse
import ast
import contextlib
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import lapbasis as lb
from lapbasis import cli as cli_mod
from lapbasis.cli import build_parser, main
from lapbasis.filters import FilterSpec
from lapbasis.mesh import save_off


@pytest.fixture(scope="module")
def mesh_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "sphere2.off"
    save_off(lb.icosphere(2), path)
    return str(path)


@pytest.fixture(scope="module")
def isolated_path(tmp_path_factory):
    """icosphere(2) plus an isolated, massless vertex 162."""
    m = lb.icosphere(2)
    path = tmp_path_factory.mktemp("meshes") / "isolated.off"
    save_off(lb.TriangleMesh(np.vstack([m.vertices, [[3.0, 0.0, 0.0]]]),
                             m.triangles), path)
    return str(path)


def export_fields(mesh_path, out, argv):
    """Run basis with argv, exporting its fields to out; returns out."""
    assert main(["basis", *argv, "--mesh", mesh_path, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def fields_dir(mesh_path, tmp_path_factory):
    return export_fields(mesh_path, tmp_path_factory.mktemp("fields"),
                         ["diffusion", "--seeds", "0,40"])


@pytest.fixture(scope="module")
def eigen_dir(mesh_path, tmp_path_factory):
    return export_fields(mesh_path, tmp_path_factory.mktemp("eigen"),
                         ["eigen", "--k", "8"])


def read_manifest(out):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def sha256(path):
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def load_field(path):
    rows = path.read_text().strip().splitlines()[1:]
    return np.array([float(r.split(",")[1]) for r in rows])


def load_matrix(path):
    rows = path.read_text().strip().splitlines()
    return np.array([[float(x) for x in r.split(",")] for r in rows])


def on_truncated_route(argv):
    """pytest.warns for a run on the truncated route with k < n (--method
    truncated, or a poly filter, which has no rational form); a null
    context for any other run."""
    if "truncated" in argv or any(a.startswith("poly:") for a in argv):
        return pytest.warns(UserWarning, match="truncated route")
    return contextlib.nullcontext()


def write_field_csv(path, ids, values):
    rows = "".join(f"{i},{float(v)!r}\n" for i, v in zip(ids, values))
    path.write_text("vertex_id,value\n" + rows)
    return str(path)


def export_one(run, stem, f):
    """The path of the CSV that _export_fields writes for the one field f
    (an array or a ScalarField) in run, which exports csv."""
    mesh = argparse.Namespace(n_vertices=len(lb.fields.field_values(f)))
    cli_mod._export_fields(run, mesh, [f], stem)
    return run.path(f"{stem}_0000.csv")


def field_csvs(out):
    return sorted(p for p in out.iterdir() if p.suffix == ".csv")


def test_import_loads_no_scipy_signal():
    # scipy.signal alone raises a fresh process's peak RSS by about 40 MiB
    code = ("import sys, lapbasis.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['scipy', 'signal']))")
    src = str(pathlib.Path(lb.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ,
                                                       "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, written", [
    (["basis", "diffusion", "--seeds", "0,40", "--format", "csv,ply"],
     ["diffusion_0000.csv", "diffusion_0000.ply", "diffusion_0001.csv",
      "diffusion_0001.ply"]),
    (["basis", "eigen", "--k", "3", "--format", "ply"],
     ["spectrum.json", "eigen_0000.ply"]),
    (["metrics", "--metric", "area", "--fields-dir", None],
     ["metric_area.csv", "metric_area.pgm"]),
    (["metrics", "--metric", "kernel", "--fields-dir", None],
     ["metric_kernel.csv", "metric_kernel.pgm"]),
    (["seeds", "--fps", "5"], ["seeds.txt"]),
    (["coverage", "--t", "0.05", "--k0", "5"],
     ["coverage_seeds.txt", "coverage_curve.csv", "coverage_report.json"]),
    (["spectrum", "--k", "4"], ["spectrum.json"]),
    (["validate"], ["mesh_report.json"]),
], ids=["basis-csv-ply", "basis-eigen-ply", "metrics-area",
        "metrics-kernel", "seeds", "coverage", "spectrum", "validate"])
def test_manifest_sha256_is_the_file_on_disk(mesh_path, fields_dir, tmp_path,
                                            argv, written):
    # each output is hashed from the bytes its writer wrote; a fresh hash
    # of the file agrees, and every file but the manifest is listed
    out = tmp_path / "run"
    argv = [fields_dir if a is None else a for a in argv]
    assert main([*argv, "--mesh", mesh_path, "--out", str(out)]) == 0
    outputs = read_manifest(out)["outputs"]
    names = [o["path"] for o in outputs]
    assert sorted(names) == sorted(p.name for p in out.iterdir()
                                   if p.name != "manifest.json")
    assert set(written) <= set(names)
    for o in outputs:
        assert o["sha256"] == sha256(out / o["path"]), o["path"]


class TestBasisCommand:
    def test_diffusion_writes_csv_and_manifest(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "diffusion", "--mesh", mesh_path, "--seeds", "0",
            "--t", "0.1", "--out", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["command"] == "basis"
        names = [o["path"] for o in manifest["outputs"]]
        assert any(n.endswith(".csv") for n in names)
        for entry in manifest["outputs"]:
            assert sha256(out / entry["path"]) == entry["sha256"]
        field = load_field(out / names[0])
        assert len(field) == 162
        want = lb.field_values(lb.spectral_set(
            lb.assemble(lb.icosphere(2)), FilterSpec.exponential(0.1), [0])[0])
        # the mesh survives a 9-significant-digit OFF round trip
        assert np.abs(field - want).max() <= 1e-8 * want.max()

    def test_runs_are_byte_identical(self, mesh_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main([
                "basis", "diffusion", "--mesh", mesh_path, "--seeds", "3",
                "--t", "0.05", "--out", str(out),
            ])
            assert rc == 0
            csvs = sorted(p for p in out.iterdir() if p.suffix == ".csv")
            outs.append(b"".join(p.read_bytes() for p in csvs))
        assert outs[0] == outs[1]
        # the default route: K is fixed before the run, by the mesh and t
        manifest = read_manifest(out)
        assert re.fullmatch(r"chebyshev deg=\d+ cheb-exp", manifest["path"])
        assert "r" not in manifest["parameters"]

    def test_eigen_spectrum_json(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "eigen", "--mesh", mesh_path, "--k", "6",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out / "spectrum.json") as fh:
            spec = json.load(fh)
        vals = spec["eigenvalues"]
        assert len(vals) == 6
        assert vals[0] <= 1e-8
        assert vals == sorted(vals)

    def test_eigen_and_spectrum_write_the_same_file(self, mesh_path, tmp_path):
        texts = []
        for argv in (["basis", "eigen"], ["spectrum"]):
            out = tmp_path / argv[-1]
            rc = main(argv + ["--mesh", mesh_path, "--k", "6",
                              "--out", str(out)])
            assert rc == 0
            texts.append((out / "spectrum.json").read_bytes())
        assert texts[0] == texts[1]
        assert "max_rel_residual" in read_manifest(tmp_path / "eigen")["solver"]

    @pytest.mark.parametrize("argv", [
        ["basis", "eigen"],
        ["spectrum"],
        ["basis", "spectral", "--filter", "exp:t=0.1", "--method",
         "truncated", "--seeds", "0,40"],
    ], ids=["eigen", "spectrum", "truncated"])
    @pytest.mark.parametrize("mass, form", [("lumped", "standard"),
                                            ("consistent", "generalized")])
    def test_solver_statistics_in_manifest(self, mesh_path, tmp_path, argv,
                                           mass, form):
        solvers = []
        for run in ("a", "b"):
            out = tmp_path / run
            with (pytest.warns(UserWarning, match="truncated route")
                  if "truncated" in argv else contextlib.nullcontext()):
                assert main(argv + ["--k", "8", "--mass", mass, "--mesh",
                                    mesh_path, "--out", str(out)]) == 0
            solvers.append(read_manifest(out)["solver"])
        solver = solvers[0]
        assert solver == solvers[1]  # counts only, no timing
        assert solver["form"] == form
        assert solver["eigsh_calls"] >= 1 and solver["op_applies"] > 8
        # icosphere(2): 0, then 2 three times, then 6 five times, so k = 8
        # ends inside the 6-cluster and the count stops below it
        assert solver["inertia_count"] == 4
        assert solver["lu_nnz"] > 0 and solver["certificate_lu_nnz"] > 0
        assert ("max_rel_residual" in solver) == ("truncated" not in argv)

    def test_harmonic_with_seed_list(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "harmonic", "--mesh", mesh_path, "--seeds", "0,10,20",
            "--out", str(out),
        ])
        assert rc == 0
        csvs = sorted(p for p in out.iterdir() if p.suffix == ".csv")
        assert len(csvs) == 3
        f0 = load_field(csvs[0])
        assert f0[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(f0[10]) <= 1e-12 and abs(f0[20]) <= 1e-12

    @pytest.mark.parametrize("potential", [True, False],
                             ids=["potential", "unit-potential"])
    def test_hamiltonian_equals_library(self, mesh_path, tmp_path, potential):
        n = lb.icosphere(2).n_vertices
        V = np.ones(n)
        argv = ["basis", "hamiltonian", "--mesh", mesh_path, "--seeds",
                "0,17,40", "--mu", "2", "--out", str(tmp_path / "run")]
        if potential:
            V = np.random.default_rng(5).random(n) + 0.5
            argv += ["--potential",
                     write_field_csv(tmp_path / "V.csv", range(n), V)]
        assert main(argv) == 0
        op = lb.assemble(lb.load_mesh(mesh_path))
        want = lb.hamiltonian_basis(op, V, 2.0, [0, 17, 40])
        csvs = field_csvs(tmp_path / "run")
        assert len(csvs) == 3
        for path, f in zip(csvs, want):
            assert np.array_equal(load_field(path), lb.field_values(f))

    def test_seeds_file_equals_seed_list(self, mesh_path, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\n10\n20\n")
        for name, source in [("list", ["--seeds", "0,10,20"]),
                             ("file", ["--seeds-file", str(seeds)])]:
            assert main(["basis", "harmonic", "--mesh", mesh_path, *source,
                         "--out", str(tmp_path / name)]) == 0
        listed = field_csvs(tmp_path / "list")
        assert len(listed) == 3
        assert ([p.read_bytes() for p in listed]
                == [p.read_bytes() for p in field_csvs(tmp_path / "file")])

    def test_spectral_rational_records_exact_path(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "spectral", "--mesh", mesh_path, "--seeds", "0",
            "--filter", "rat:num=1;den=1,2,1", "--out", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert "exact-rational" in manifest["path"]

    def test_spectral_repeated_complex_pole(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "spectral", "--mesh", mesh_path, "--seeds", "1,2",
            "--filter", "rat:num=1;den=1,0,2,0,1", "--out", str(out),
        ])  # 1/(1+s^2)^2
        assert rc == 0
        assert len(field_csvs(out)) == 2

    def test_spectral_exponential_records_table_path(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "spectral", "--mesh", mesh_path, "--seeds", "0",
            "--filter", "exp:t=0.2", "--r", "5", "--mass", "consistent",
            "--out", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert "table r=5" in manifest["path"]

    def test_green_runs(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "green", "--mesh", mesh_path, "--seeds", "4",
            "--out", str(out),
        ])
        assert rc == 0

    def test_green_general_factorises_once(self, mesh_path, tmp_path,
                                           monkeypatch):
        calls = []
        factor = lb.numerics.shifted_factor

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        out = tmp_path / "run"
        rc = main([
            "basis", "spectral", "--mesh", mesh_path,
            "--filter", "rat:num=1;den=1,2,1", "--seeds=1,2,3,4",
            "--out", str(out),
        ])
        assert rc == 0
        assert len(read_manifest(out)["fields"]) == 4
        # 1/(1+s)^2: one double pole, one factorisation for every seed
        assert len(calls) == 1

    def test_ply_export_colors(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "basis", "diffusion", "--mesh", mesh_path, "--seeds", "0",
            "--t", "0.1", "--out", str(out), "--format", "ply",
        ])
        assert rc == 0
        plys = sorted(p for p in out.iterdir() if p.suffix == ".ply")
        assert plys
        text = plys[0].read_text()
        assert "property uchar red" in text


class TestMetricsCommand:
    def test_area_matrix_csv_and_pgm(self, mesh_path, tmp_path):
        gen = export_fields(mesh_path, tmp_path / "gen", [
            "diffusion", "--fps", "6", "--start", "0", "--t", "0.01"])
        out = tmp_path / "run"
        rc = main([
            "metrics", "--mesh", mesh_path, "--metric", "area",
            "--fields-dir", gen, "--out", str(out),
        ])
        assert rc == 0
        files = {p.name for p in out.iterdir()}
        assert "metric_area.csv" in files
        assert "metric_area.pgm" in files
        M = load_matrix(out / "metric_area.csv")
        assert M.shape == (6, 6)
        assert np.abs(M - M.T).max() <= 1e-9 * np.abs(M).max()

    def test_eigen_family_conformal_diagonal(self, mesh_path, eigen_dir,
                                             tmp_path):
        out = tmp_path / "run"
        rc = main([
            "metrics", "--mesh", mesh_path, "--metric", "conformal",
            "--fields-dir", eigen_dir, "--out", str(out),
        ])
        assert rc == 0
        M = load_matrix(out / "metric_conformal.csv")
        eig = lb.eigen_basis(lb.assemble(lb.icosphere(2)), 8)
        assert np.abs(np.diag(M) - eig.values).max() <= 1e-7 * eig.values.max()

    def test_kernel_matrix_equals_library(self, mesh_path, tmp_path):
        gen = export_fields(mesh_path, tmp_path / "gen", [
            "diffusion", "--fps", "6", "--t", "0.01"])
        out = tmp_path / "run"
        assert main(["metrics", "--mesh", mesh_path, "--metric", "kernel",
                     "--fields-dir", gen, "--out", str(out)]) == 0
        mesh = lb.load_mesh(mesh_path)
        op = lb.assemble(mesh)
        fields = lb.spectral_set(op, FilterSpec.exponential(0.01),
                                 lb.farthest_point_sampling(mesh, 6, op=op))
        kernel = lb.filter_kernel(op, FilterSpec.exponential(0.1))
        want = lb.comparison_matrix(op, fields, metric="kernel",
                                    kernel_apply=kernel.apply)
        assert np.array_equal(load_matrix(out / "metric_kernel.csv"),
                              want.values)

    def test_fields_dir_round_trip(self, mesh_path, tmp_path):
        gen = export_fields(mesh_path, tmp_path / "gen", [
            "diffusion", "--seeds", "0,40", "--t", "0.05"])
        out = tmp_path / "cmp"
        rc = main([
            "metrics", "--mesh", mesh_path, "--metric", "area",
            "--fields-dir", gen, "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "metric_area.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_fields_dir_rerun_into_itself(self, mesh_path, tmp_path):
        d = tmp_path / "fields"
        export_fields(mesh_path, d, ["diffusion", "--seeds", "0,40"])
        written = []
        for _ in range(2):
            assert main(["metrics", "--mesh", mesh_path, "--metric", "area",
                         "--fields-dir", str(d), "--out", str(d)]) == 0
            written.append((d / "metric_area.csv").read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 2

    def test_manifest_names_its_inputs(self, mesh_path, tmp_path):
        d = tmp_path / "fields"
        export_fields(mesh_path, d, ["diffusion", "--seeds", "0,40"])
        inputs = []
        for name in ("before", "after"):
            out = tmp_path / name
            assert main(["metrics", "--mesh", mesh_path, "--metric", "area",
                         "--fields-dir", str(d), "--out", str(out)]) == 0
            inputs.append(read_manifest(out)["inputs"])
            for entry in inputs[-1]:
                assert sha256(pathlib.Path(entry["path"])) == entry["sha256"]
            n = len(load_field(d / "diffusion_0001.csv"))
            write_field_csv(d / "diffusion_0001.csv", range(n), np.ones(n))
        paths = [str(d / "diffusion_0000.csv"), str(d / "diffusion_0001.csv")]
        assert [e["path"] for e in inputs[0]] == paths
        assert [e["path"] for e in inputs[1]] == paths
        assert inputs[0][0] == inputs[1][0]
        assert inputs[0][1]["sha256"] != inputs[1][1]["sha256"]

    def test_field_pattern_reads_exports_only(self, mesh_path, fields_dir):
        names = {p.name for p in field_csvs(pathlib.Path(fields_dir))}
        assert names == {cli_mod.FIELD_STEM.format("diffusion", i) + ".csv"
                         for i in range(2)}
        assert all(cli_mod.FIELD_CSV.fullmatch(f) for f in names)
        for other in ("metric_area.csv", "coverage_curve.csv", "V.csv",
                      "diffusion_01.csv"):
            assert not cli_mod.FIELD_CSV.fullmatch(other)

    def test_fields_dir_required(self, mesh_path, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["metrics", "--mesh", mesh_path, "--metric", "area",
                  "--out", str(tmp_path / "o")])
        assert "--fields-dir" in capsys.readouterr().err

    def test_fields_dir_without_exports(self, mesh_path, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        (d / "metric_area.csv").write_text("1\n")  # not a field export
        rc = main(["metrics", "--mesh", mesh_path, "--metric", "area",
                   "--fields-dir", str(d), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{d}: no field exports" in err
        assert "<stem>_NNNN.csv" in err

    def test_records_filter_paths(self, mesh_path, fields_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(["metrics", "--mesh", mesh_path, "--metric", "kernel",
                   "--fields-dir", fields_dir, "--r", "7",
                   "--mass", "consistent", "--out", str(out)])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["kernel_path"] == "chebyshev table r=7 lu"
        assert "path" not in manifest  # the fields were read, not evaluated

    def test_meanvalue_conformal_fails_cleanly(self, mesh_path, fields_dir,
                                               tmp_path, capsys):
        rc = main([
            "metrics", "--mesh", mesh_path, "--metric", "conformal",
            "--scheme", "meanvalue", "--fields-dir", fields_dir,
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSeedsCommand:
    def test_writes_distinct_indices(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "seeds", "--mesh", mesh_path, "--fps", "9", "--start", "0",
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "seeds.txt").read_text().split()
        idx = [int(x) for x in lines]
        assert len(idx) == 9
        assert len(set(idx)) == 9


class TestCoverageCommand:
    def test_one_kernel_for_the_whole_run(self, mesh_path, tmp_path,
                                          monkeypatch):
        calls = []
        factor = lb.numerics.shifted_factor

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        out = tmp_path / "run"
        rc = main([
            "coverage", "--mesh", mesh_path, "--t", "0.005", "--k0", "5",
            "--start", "0", "--r", "5", "--mass", "consistent",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out / "coverage_report.json") as fh:
            assert json.load(fh)["iterations"] > 1
        # r = 5: one real pole and two conjugate pairs, factorised once
        assert len(calls) == 3

    def test_path_records_lu_route(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["coverage", "--mesh", mesh_path, "--t", "0.005",
                   "--k0", "5", "--r", "5", "--mass", "consistent",
                   "--out", str(out)])
        assert rc == 0
        # consistent mass takes the table, whose poles take LU
        assert read_manifest(out)["path"] == "chebyshev table r=5 lu"

    def test_small_t_lanczos_reruns_byte_identical(self, tmp_path,
                                                   monkeypatch):
        calls = []
        factor = lb.numerics.shifted_factor

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        mesh = tmp_path / "sphere3.off"
        save_off(lb.icosphere(3), mesh)
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            calls.clear()
            rc = main(["coverage", "--mesh", str(mesh), "--t", "0.001",
                       "--k0", "10", "--r", "5", "--mass", "consistent",
                       "--out", str(out)])
            assert rc == 0
            manifests.append(read_manifest(out))
            # r = 5: one real pole and two conjugate pairs, factorised once
            assert len(calls) == 3
        assert manifests[0]["path"] == "chebyshev table r=5 lu"
        assert manifests[0]["outputs"] == manifests[1]["outputs"]
        assert len(manifests[0]["outputs"]) == 3

    def test_large_scale_single_iteration(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "coverage", "--mesh", mesh_path, "--t", "1.0", "--k0", "7",
            "--start", "0", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "coverage_report.json") as fh:
            report = json.load(fh)
        assert report["iterations"] == 1
        assert report["history"] == [1.0]
        curve = (out / "coverage_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "k,fraction"
        assert len(curve) == 8  # header + one row per seed
        seeds = (out / "coverage_seeds.txt").read_text().split()
        assert len(seeds) == 7


class TestValidateCommand:
    def test_report_contents(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["validate", "--mesh", mesh_path, "--out", str(out)])
        assert rc == 0
        with open(out / "mesh_report.json") as fh:
            rep = json.load(fh)
        assert rep["n_vertices"] == 162
        assert rep["n_boundary_edges"] == 0
        assert rep["n_components"] == 1
        assert rep["warnings"] == {}
        assert "mesh_warnings" not in read_manifest(out)

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["basis", "harmonic", "--seeds", "0,6"],
    ], ids=["validate", "basis-harmonic"])
    def test_quad_mesh_warnings_reported(self, tmp_path, argv):
        # a cube of six quads, each fan-triangulated on load
        corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6),
                 (0, 2, 6, 4), (1, 5, 7, 3)]
        path = tmp_path / "cube.off"
        path.write_text("OFF\n8 6 0\n"
                        + "".join("%d %d %d\n" % c for c in corners)
                        + "".join("4 %d %d %d %d\n" % q for q in quads))
        out = tmp_path / "run"
        assert main([*argv, "--mesh", str(path), "--out", str(out)]) == 0
        want = {"quad face fan-triangulated": 6}
        assert read_manifest(out)["mesh_warnings"] == want
        if argv == ["validate"]:
            with open(out / "mesh_report.json") as fh:
                assert json.load(fh)["warnings"] == want


class TestSpectrumCommand:
    def test_eigenvalues_written(self, mesh_path, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "spectrum", "--mesh", mesh_path, "--k", "5", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "spectrum.json") as fh:
            spec = json.load(fh)
        vals = spec["eigenvalues"]
        assert len(vals) == 5
        # sphere spectrum: 0, then 2 with multiplicity 3, then 6...
        assert vals[0] <= 1e-8
        assert vals[1] == pytest.approx(2.0, rel=0.02)

    def test_residual_is_backward_error(self, mesh_path, tmp_path):
        # a ratio to ||L x|| read 1.0 here: L annihilates the constant
        out = tmp_path / "run"
        rc = main([
            "spectrum", "--mesh", mesh_path, "--k", "10", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "spectrum.json") as fh:
            spec = json.load(fh)
        assert spec["max_rel_residual"] <= 1e-10


OPERATOR = ["--help", "--mass", "--mesh", "--out", "--scheme", "-h"]
OPTIONS = {
    "basis": sorted(OPERATOR + [
        "--filter", "--format", "--fps", "--k", "--method", "--mu",
        "--potential", "--r", "--seeds", "--seeds-file", "--start", "--t"]),
    "metrics": sorted(OPERATOR + [
        "--fields-dir", "--kernel-t", "--metric", "--normalize", "--r"]),
    "seeds": sorted(OPERATOR + ["--fps", "--metric", "--start"]),
    "coverage": sorted(OPERATOR + [
        "--k0", "--metric", "--r", "--start", "--t", "--tau"]),
    "validate": ["--help", "--mesh", "--out", "-h"],
    "spectrum": sorted(OPERATOR + ["--k"]),
}


class TestOptions:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_set_pinned(self, command):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(OPTIONS)
        got = sorted(s for a in sub.choices[command]._actions
                     for s in a.option_strings)
        assert got == OPTIONS[command]

    def test_format_only_on_basis(self, mesh_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["metrics", "--mesh", mesh_path, "--metric", "area",
                  "--fields-dir", str(tmp_path), "--format", "ply",
                  "--out", str(tmp_path / "o")])

    def test_cli_uses_public_basis_names_only(self):
        with open(cli_mod.__file__) as fh:
            tree = ast.parse(fh.read())
        private = [node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "basis_mod"
                   and node.attr.startswith("_")]
        assert private == []
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names]
        assert "partial_fractions" not in imported
        assert not any(name.startswith("_") for name in imported)

    @pytest.mark.parametrize("argv, params", [
        (["metrics", "--metric", "area", "--fields-dir", "FIELDS"],
         ["command", "fields_dir", "mass", "mesh", "metric", "normalize",
          "out", "scheme"]),
        (["basis", "harmonic", "--seeds", "0,17,40"],
         ["command", "family", "format", "mesh", "mass", "out", "scheme",
          "seeds"]),
    ], ids=["metrics-area", "basis-harmonic"])
    def test_manifest_records_read_options_only(self, mesh_path, fields_dir,
                                                tmp_path, argv, params):
        argv = [fields_dir if a == "FIELDS" else a for a in argv]
        out = tmp_path / "run"
        assert main(argv + ["--mesh", mesh_path, "--out", str(out)]) == 0
        assert sorted(read_manifest(out)["parameters"]) == sorted(params)

    @pytest.mark.parametrize("argv, key", [
        (["basis", "diffusion", "--seeds", "1,2", "--t", "0.05"], "path"),
        (["basis", "spectral", "--filter", "exp:t=0.05", "--seeds", "1"],
         "path"),
        (["coverage", "--t", "0.05", "--k0", "3"], "path"),
        (["metrics", "--metric", "kernel", "--fields-dir", "FIELDS"],
         "kernel_path"),
    ], ids=["basis-diffusion", "basis-spectral", "coverage", "metrics-kernel"])
    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    def test_error_bound_beside_path(self, mesh_path, fields_dir, tmp_path,
                                     argv, key, mass):
        argv = [fields_dir if a == "FIELDS" else a for a in argv]
        out = tmp_path / "run"
        assert main(argv + ["--mass", mass, "--mesh", mesh_path,
                            "--out", str(out)]) == 0
        manifest = read_manifest(out)
        if mass == "consistent":  # the table states no bound yet
            assert manifest[key] == "chebyshev table r=5 lu"
            assert "error_bound" not in manifest
            return
        assert re.fullmatch(r"chebyshev deg=\d+ cheb-exp", manifest[key])
        # the coefficient tail, at most eps sqrt(min B / max B)
        assert 0.0 < manifest["error_bound"] <= np.finfo(float).eps

    def test_one_parser_per_run(self, mesh_path, tmp_path, monkeypatch):
        built = []

        def counted():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli_mod, "build_parser", counted)
        assert main(["seeds", "--fps", "3", "--mesh", mesh_path,
                     "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("argv, stages", [
        (["validate"], ["compute_s", "load_s", "total_s"]),
        (["seeds", "--fps", "3"],
         ["assemble_s", "compute_s", "load_s", "total_s"]),
    ])
    def test_manifest_stage_times(self, mesh_path, tmp_path, argv, stages):
        out = tmp_path / "run"
        assert main(argv + ["--mesh", mesh_path, "--out", str(out)]) == 0
        timings = read_manifest(out)["timings"]
        assert sorted(timings) == stages
        assert all(v >= 0.0 for v in timings.values())


class TestErrors:
    def test_missing_mesh(self, tmp_path, capsys):
        rc = main([
            "validate", "--mesh", str(tmp_path / "nope.off"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("big.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
         "3 0 1 99999999999999999999\n"),  # an index past int64
        ("short.ply", "ply\nformat\nend_header\n"),
        ("penta.off", "OFF\n5 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 0 0\n"
         "5 0 1 2 3 4\n"),  # a 5-sided face
        ("binary.ply", "ply\nformat binary_little_endian 1.0\nend_header\n"),
    ], ids=["big.off", "short.ply", "penta.off", "binary.ply"])
    def test_malformed_mesh_named(self, tmp_path, capsys, name, text):
        mesh = tmp_path / name
        mesh.write_text(text)
        rc = main(["validate", "--mesh", str(mesh),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"lapbasis: error: {mesh}: " in capsys.readouterr().err

    def test_unknown_format_rejected(self, mesh_path, tmp_path, capsys):
        rc = main([
            "basis", "diffusion", "--mesh", mesh_path, "--seeds", "0",
            "--format", "json", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize("formats, message", [
        ("", "--format names no field export; give a comma list from csv,ply"),
        (" , ", "--format names no field export"),
        ("csv,csv", "--format names 'csv' twice"),
        ("ply, csv,ply", "--format names 'ply' twice"),
    ])
    def test_empty_or_repeated_format_rejected(self, mesh_path, tmp_path,
                                               capsys, formats, message):
        # an empty list computed every field and exported none, while the
        # manifest named their stems; now nothing is computed or written
        out = tmp_path / "o"
        rc = main(["basis", "diffusion", "--mesh", mesh_path, "--seeds", "0",
                   "--format", formats, "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_filter_expression(self, mesh_path, tmp_path, capsys):
        rc = main([
            "basis", "spectral", "--mesh", mesh_path, "--seeds", "0",
            "--filter", "bogus:t=1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_basis_needs_seed_argument(self, mesh_path, tmp_path, capsys):
        rc = main([
            "basis", "harmonic", "--mesh", mesh_path,
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_seed_out_of_range(self, mesh_path, tmp_path, capsys):
        rc = main([
            "basis", "diffusion", "--mesh", mesh_path, "--seeds", "9999",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("source, message", [
        (["--seeds", "1,x"], "--seeds entry 2: invalid literal for int() "
         "with base 10: 'x'"),
        (["--seeds-file", "{path}"], "{path}, line 2: invalid literal for "
         "int() with base 10: 'x'"),
    ], ids=["list", "file"])
    def test_bad_seed_entry_named(self, mesh_path, tmp_path, capsys, source,
                                  message):
        path = tmp_path / "seeds.txt"
        path.write_text("1\nx\n")
        rc = main(["basis", "diffusion", "--mesh", mesh_path,
                   *(a.format(path=path) for a in source),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert (f"lapbasis: error: {message.format(path=path)}\n"
                == capsys.readouterr().err)

    def test_negative_seed_rejected(self, mesh_path, tmp_path):
        rc = main([
            "basis", "spectral", "--mesh", mesh_path, "--seeds=3,-1",
            "--filter", "exp:t=0.1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("family",
                             ["harmonic", "diffusion", "spectral", "green"])
    def test_duplicate_seeds_rejected(self, mesh_path, tmp_path, capsys,
                                      family):
        rc = main([
            "basis", family, "--mesh", mesh_path, "--seeds=3,3",
            "--filter", "exp:t=0.1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    def test_massless_vertex_fails_cleanly(self, isolated_path, tmp_path,
                                           capsys, mass):
        rc = main([
            "basis", "diffusion", "--mesh", isolated_path, "--fps", "4",
            "--mass", mass, "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "vertex 162" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--k", "5"],  # eigensolver
        ["basis", "diffusion", "--seeds", "0"],  # shifted solves
        ["basis", "spectral", "--filter", "poly:k=2", "--seeds", "0"],
        ["basis", "green", "--seeds", "0"],
        ["basis", "harmonic", "--seeds", "0"],  # constrained solves
        ["basis", "hamiltonian", "--seeds", "0"],
    ], ids=["spectrum", "diffusion", "poly", "green", "harmonic",
            "hamiltonian"])
    def test_massless_vertex_named_on_every_route(self, isolated_path,
                                                  tmp_path, capsys, argv):
        # RuntimeWarnings are errors under the suite's warning filter
        with on_truncated_route(argv):
            rc = main(argv + ["--mesh", isolated_path,
                              "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "vertex 162" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, shown", [
        (["basis", "diffusion", "--t", "nan", "--seeds", "0"], "nan"),
        (["coverage", "--t", "inf", "--k0", "3"], "inf"),
        (["basis", "spectral", "--filter", "exp:t=nan", "--seeds", "0"],
         "nan"),
        (["metrics", "--metric", "kernel", "--fields-dir", "FIELDS",
          "--kernel-t", "nan"], "nan"),
        (["basis", "spectral", "--filter", "rat:num=nan;den=1,1",
          "--seeds", "0"], "nan"),
    ], ids=["diffusion-t", "coverage-t", "spectral-exp", "kernel-t",
            "spectral-rat"])
    def test_non_finite_filter_parameter_rejected(self, mesh_path, fields_dir,
                                                  tmp_path, capsys, argv,
                                                  shown):
        # a non-finite heat scale once sent the heat route's degree search
        # into an endless loop
        argv = [fields_dir if a == "FIELDS" else a for a in argv]
        rc = main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "finite" in err and shown in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["basis", "diffusion", "--seeds", "1,2", "--fps", "10"],
        ["basis", "harmonic", "--seeds-file", "seeds.txt", "--seeds", "1,2"],
        ["basis", "green", "--fps", "3", "--seeds-file", "seeds.txt"],
    ], ids=["basis-seeds-fps", "basis-file-seeds", "basis-fps-file"])
    def test_conflicting_seed_sources_rejected(self, mesh_path, tmp_path,
                                               argv):
        with pytest.raises(SystemExit):
            main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("argv, flag", [
        # --r and --kernel-t belong to the kernel metric
        (["metrics", "--metric", "area", "--fields-dir", "FIELDS",
          "--r", "7"], "--r"),
        (["metrics", "--metric", "area", "--fields-dir", "FIELDS",
          "--kernel-t", "0.2"], "--kernel-t"),
        (["basis", "diffusion", "--seeds", "1,2", "--start", "5"], "--start"),
        (["basis", "spectral", "--filter", "exp:t=0.1", "--t", "0.5",
          "--mu", "3", "--seeds", "1"], "--t, --mu"),
        (["basis", "eigen", "--k", "5", "--seeds", "1,2"], "--seeds"),
        (["basis", "spectral", "--filter", "exp:t=0.1", "--method",
          "truncated", "--r", "9", "--seeds", "1"], "--r"),
        (["basis", "diffusion", "--k", "50", "--seeds", "1"], "--k"),
        # exact partial fractions have no degree to choose
        (["basis", "spectral", "--filter", "rat:num=1;den=1,2,1", "--r", "7",
          "--seeds", "1"], "--r"),
    ], ids=["metrics-area-r", "metrics-area-kernel-t", "basis-seeds-start",
            "basis-spectral-t-mu",
            "basis-eigen-seeds", "basis-truncated-r", "basis-diffusion-k",
            "basis-exact-rational-r"])
    def test_unread_option_rejected(self, mesh_path, fields_dir, tmp_path,
                                    capsys, argv, flag):
        argv = [fields_dir if a == "FIELDS" else a for a in argv]
        out = tmp_path / "o"
        with on_truncated_route(argv):
            rc = main(argv + ["--mesh", mesh_path, "--out", str(out)])
        assert rc == 1
        assert f"{flag}: not read" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        # the truncated fallback of a filter without rational form reads --k
        ["basis", "spectral", "--filter", "poly:k=2", "--k", "50",
         "--seeds", "0"],
        ["basis", "spectral", "--filter", "exp:t=0.1", "--method",
         "truncated", "--k", "20", "--seeds", "0"],
        ["basis", "diffusion", "--fps", "3", "--start", "5", "--r", "7",
         "--mass", "consistent"],
        ["metrics", "--metric", "kernel", "--fields-dir", "EIGEN",
         "--kernel-t", "0.2", "--r", "7", "--mass", "consistent"],
    ], ids=["poly-k", "truncated-k", "fps-start-r", "kernel-eigen"])
    def test_read_options_accepted(self, mesh_path, eigen_dir, tmp_path, argv):
        argv = [eigen_dir if a == "EIGEN" else a for a in argv]
        with on_truncated_route(argv):
            rc = main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["basis", "diffusion", "--seeds", "1,2"],
        ["basis", "spectral", "--filter", "exp:t=0.1", "--seeds", "1"],
        ["coverage", "--t", "0.05", "--k0", "3", "--start", "0"],
        ["metrics", "--metric", "kernel", "--fields-dir", "FIELDS"],
    ], ids=["basis-diffusion", "basis-spectral-exp", "coverage",
            "metrics-kernel"])
    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    def test_r_read_by_the_table_only(self, mesh_path, fields_dir, tmp_path,
                                      capsys, argv, mass):
        # lumped mass takes cheb-exp, which has no table degree to read
        argv = [fields_dir if a == "FIELDS" else a for a in argv]
        out = tmp_path / "o"
        rc = main(argv + ["--r", "5", "--mass", mass, "--mesh", mesh_path,
                          "--out", str(out)])
        if mass == "lumped":
            assert rc == 1
            assert "--r: not read" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()
        else:
            assert rc == 0
            manifest = read_manifest(out)
            path = manifest.get("path", manifest.get("kernel_path"))
            assert path == "chebyshev table r=5 lu"
            assert manifest["parameters"]["r"] == 5

    @pytest.mark.parametrize("ids", ["shuffled", "repeated"])
    @pytest.mark.parametrize("option", ["--potential", "--fields-dir"])
    def test_field_ids_out_of_order_rejected(self, mesh_path, tmp_path,
                                             capsys, ids, option):
        n = lb.icosphere(2).n_vertices
        order = (np.random.default_rng(3).permutation(n) if ids == "shuffled"
                 else [0, 1, 1, *range(3, n)])
        d = tmp_path / "fields"
        d.mkdir()
        path = write_field_csv(d / "spectral_0000.csv", order, np.ones(n))
        if option == "--potential":
            argv = ["basis", "hamiltonian", "--seeds", "0,17,40",
                    "--potential", path]
        else:
            argv = ["metrics", "--metric", "area", "--fields-dir", str(d)]
        rc = main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        row = 2 if ids == "shuffled" else 4  # the header is row 1
        assert f"{path}, row {row}: vertex id" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["short", "long", "bad-value"])
    @pytest.mark.parametrize("option", ["--potential", "--fields-dir"])
    def test_field_csv_checked_against_mesh(self, mesh_path, tmp_path,
                                            capsys, fault, option):
        n = lb.icosphere(2).n_vertices
        rows = {"short": 100, "long": n + 1}.get(fault, n)
        d = tmp_path / "fields"
        d.mkdir()
        path = write_field_csv(d / "x_0000.csv", range(rows), np.ones(rows))
        if fault == "bad-value":  # vertex 5 is row 7: the header is row 1
            csv = pathlib.Path(path)
            csv.write_text(csv.read_text().replace("\n5,1.0\n", "\n5,abc\n"))
        if option == "--potential":
            argv = ["basis", "hamiltonian", "--seeds", "0,17,40",
                    "--potential", path]
        else:
            argv = ["metrics", "--metric", "area", "--fields-dir", str(d)]
        rc = main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        if fault == "bad-value":
            assert f"{path}, row 7: could not convert" in err
        else:
            assert f"{path}: {rows} rows, expected one per vertex of the " \
                f"{n}-vertex mesh" in err

    @pytest.mark.parametrize("option", ["--potential", "--fields-dir"])
    def test_field_csv_not_utf8_named(self, mesh_path, tmp_path, capsys,
                                      option):
        n = lb.icosphere(2).n_vertices
        d = tmp_path / "fields"
        d.mkdir()
        path = write_field_csv(d / "x_0000.csv", range(n), np.ones(n))
        csv = pathlib.Path(path)
        csv.write_bytes(csv.read_bytes().replace(b"\n3,1.0\n",
                                                 b"\n3,\xb11.0\n"))
        if option == "--potential":
            argv = ["basis", "hamiltonian", "--seeds", "0,17,40",
                    "--potential", path]
        else:
            argv = ["metrics", "--metric", "area", "--fields-dir", str(d)]
        rc = main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        at = csv.read_bytes().index(b"\xb1")
        assert (f"lapbasis: error: {path}: not UTF-8 text: invalid start byte "
                f"at byte {at}") in capsys.readouterr().err

    def test_binary_ply_mesh_named(self, tmp_path, capsys):
        mesh = tmp_path / "binary.ply"
        mesh.write_bytes(b"ply\nformat binary_little_endian 1.0\n"
                         b"element vertex 3\nproperty float x\n"
                         b"property float y\nproperty float z\nend_header\n"
                         + bytes([0x96, 0xff, 0, 0x80]) * 9)
        rc = main(["validate", "--mesh", str(mesh),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert (f"lapbasis: error: {mesh}: only ascii PLY is supported"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("option", ["--potential", "--fields-dir"])
    def test_field_csv_last_row_not_a_number(self, mesh_path, tmp_path,
                                             capsys, option):
        n = lb.icosphere(2).n_vertices
        d = tmp_path / "fields"
        d.mkdir()
        path = write_field_csv(d / "x_0000.csv", range(n), np.ones(n))
        csv = pathlib.Path(path)
        csv.write_text(csv.read_text().replace(f"\n{n - 1},1.0\n",
                                               f"\n{n - 1},one\n"))
        if option == "--potential":
            argv = ["basis", "hamiltonian", "--seeds", "0,17,40",
                    "--potential", path]
        else:
            argv = ["metrics", "--metric", "area", "--fields-dir", str(d)]
        rc = main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        # the header is row 1, so vertex n - 1 is row n + 1
        assert (f"{path}, row {n + 1}: could not convert string to float: "
                "'one\\n'") in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["blank-lines", "crlf", "spaces",
                                        "no-final-newline"])
    def test_field_csv_layouts_read_alike(self, tmp_path, layout):
        values = np.random.default_rng(5).standard_normal(20)
        plain = pathlib.Path(write_field_csv(tmp_path / "a.csv", range(20),
                                             values))
        text = plain.read_text()
        text = {"blank-lines": text.replace("\n3,", "\n\n \n3,"),
                "crlf": text.replace("\n", "\r\n"),
                "spaces": text.replace(",", " , "),
                "no-final-newline": text.rstrip("\n")}[layout]
        other = tmp_path / "b.csv"
        other.write_bytes(text.encode())
        a = cli_mod._read_field_csv(str(plain), 20)[0]
        b = cli_mod._read_field_csv(str(other), 20)[0]
        assert np.array_equal(a.values, values)
        assert np.array_equal(b.values, values)

    def test_field_csv_bytes_pinned(self, tmp_path):
        # shortest round-trip decimals, the signed zero and inf included;
        # every value reads back with its bits
        values = np.array([0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3,
                           123456789.0, np.inf])
        run = cli_mod.Run(argparse.Namespace(out=str(tmp_path), format="csv"))
        path = pathlib.Path(export_one(run, "x", lb.ScalarField(values)))
        assert path.read_bytes() == (
            b"vertex_id,value\n0,0.0\n1,-0.0\n2,5e-324\n3,1e-300\n4,0.1\n"
            b"5,0.3333333333333333\n6,123456789.0\n7,inf\n")
        back = cli_mod._read_field_csv(str(path), len(values))[0].values
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("n", [1, 2562])
    def test_field_csv_template_bytes(self, tmp_path, n):
        # a field's CSV holds the bytes of the f"{i},{v!r}" rows for every
        # kind of float repr: specials, subnormals, integral values and
        # both sides of repr's switches to exponent form
        special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan,
                   1.0, -3.0, 2.0 ** 53, 1e-5, 9.999999999999999e-05, 1e-4,
                   1.0000000000000002e-4, 1e15, 9999999999999998.0, 1e16,
                   1e16 + 2, 1e17, 1.2345678901234568e17]
        rng = np.random.default_rng(25)
        k = n // 5 + 1
        values = np.concatenate([
            special, rng.standard_normal(k),
            rng.standard_normal(k) * 10.0 ** rng.integers(-320, 300, k),
            np.round(rng.standard_normal(k) * 1e6),
            rng.uniform(5e-6, 2e-4, k), rng.uniform(5e14, 2e17, k)])
        values = rng.permutation(values[:n]) if n > 1 else np.array([1e16])
        want = "vertex_id,value\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(values.tolist()))
        run = cli_mod.Run(argparse.Namespace(out=str(tmp_path), format="csv"))
        path = export_one(run, "a", values)
        assert pathlib.Path(path).read_bytes() == want.encode()
        assert run.digests[path] == hashlib.sha256(want.encode()).hexdigest()

    def test_export_wider_than_a_chunk(self, tmp_path):
        # 9 fields at n = 2562 take three chunks (4, 4, 1): each field's
        # CSV has the bytes and sha256 of an export of that field alone,
        # and the files are listed csv, then ply, field by field
        mesh = lb.icosphere(4)
        n = mesh.n_vertices
        assert cli_mod.REPR_CHUNK // n == 4
        rng = np.random.default_rng(9)
        fields = [lb.ScalarField(rng.standard_normal(n)
                                 * 10.0 ** rng.integers(-30, 30, n))
                  for _ in range(9)]
        fields[3].values[:7] = [0.0, -0.0, 1.0, 5e-324, 1e16, 1e-5, 2.5]
        chunked = cli_mod.Run(argparse.Namespace(
            out=str(tmp_path / "a"), format="csv,ply"))
        cli_mod._export_fields(chunked, mesh, fields, "x")
        alone = cli_mod.Run(argparse.Namespace(out=str(tmp_path / "b"),
                                               format="csv"))
        names = [os.path.relpath(p, chunked.outdir) for p in chunked.outputs]
        assert names == [f"x_{i:04d}.{ext}" for i in range(9)
                         for ext in ("csv", "ply")]
        for i, f in enumerate(fields):
            path = pathlib.Path(chunked.path(f"x_{i:04d}.csv"))
            want = pathlib.Path(export_one(alone, f"x{i}", f))
            assert path.read_bytes() == want.read_bytes()
            assert chunked.digests[str(path)] == alone.digests[str(want)]

    def test_exports_take_their_own_mesh_size(self, tmp_path):
        # two meshes in one process: each export has its mesh's rows
        for level in (2, 3, 2):
            mesh = tmp_path / f"sphere{level}.off"
            save_off(lb.icosphere(level), mesh)
            out = tmp_path / f"run{level}"
            export_fields(str(mesh), out, ["diffusion", "--seeds", "0,5"])
            n = lb.icosphere(level).n_vertices
            for csv in field_csvs(out):
                rows = csv.read_text().splitlines()
                assert rows[0] == "vertex_id,value"
                assert rows[1:] == [f"{i},{float(v)!r}" for i, v in
                                    enumerate(load_field(csv))]
                assert len(rows) == n + 1

    def test_field_csv_header_required(self, tmp_path):
        path = pathlib.Path(write_field_csv(tmp_path / "a.csv", range(20),
                                            np.ones(20)))
        path.write_text(path.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected a vertex_id,value header")):
            cli_mod._read_field_csv(str(path), 20)

    def test_filter_with_unread_text_rejected(self, mesh_path, tmp_path,
                                              capsys):
        out = tmp_path / "o"
        rc = main(["basis", "spectral", "--filter", "commute:k=3", "--seeds",
                   "0", "--mesh", mesh_path, "--out", str(out)])
        assert rc == 1
        assert ("bad filter expression 'commute:k=3': commute takes no "
                "parameters") in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_spectral_needs_filter(self, mesh_path, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["basis", "spectral", "--seeds", "0", "--mesh", mesh_path,
                   "--out", str(out)])
        assert rc == 1
        assert "basis spectral needs --filter" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_field_csv_first_bad_row_named(self, tmp_path):
        # row 3 (vertex 1) is out of order and row 6 is not a number:
        # the error names row 3
        ids = [0, 2, 1, 3, 4] + list(range(5, 20))
        path = pathlib.Path(write_field_csv(tmp_path / "a.csv", ids,
                                            np.ones(20)))
        path.write_text(path.read_text().replace("\n4,1.0\n", "\n4,x\n"))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, row 3: vertex id 2, expected 1")):
            cli_mod._read_field_csv(str(path), 20)[0]

    @pytest.mark.parametrize("argv", [
        ["basis", "harmonic"],
        ["seeds"],
    ], ids=["basis", "seeds"])
    def test_fps_zero_reports_range(self, mesh_path, tmp_path, capsys, argv):
        rc = main(argv + ["--fps", "0", "--mesh", mesh_path,
                          "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "k=0 out of range for n=162" in capsys.readouterr().err

    def test_truncated_k_zero_reports_range_without_warning(
            self, mesh_path, tmp_path, capsys):
        rc = main(["basis", "spectral", "--filter", "poly:k=2", "--k", "0",
                   "--method", "truncated", "--seeds", "0",
                   "--mesh", mesh_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "k=0 out of range for n=162" in err
        assert "truncated route" not in err

    def test_green_role_option_removed(self, mesh_path, tmp_path):
        # basis green is the harmonic Green kernel; filters go to spectral
        with pytest.raises(SystemExit):
            main(["basis", "green", "--role", "general", "--seeds", "0",
                  "--mesh", mesh_path, "--out", str(tmp_path / "o")])

    def test_meanvalue_consistent_mass_rejected(self, mesh_path, tmp_path,
                                                capsys):
        out = tmp_path / "o"
        rc = main([
            "basis", "harmonic", "--mesh", mesh_path, "--seeds", "0,40",
            "--scheme", "meanvalue", "--mass", "consistent", "--out", str(out),
        ])
        assert rc == 1
        assert "mean_value is defined with lumped mass only" in \
            capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_meanvalue_green_fails_cleanly(self, mesh_path, tmp_path, capsys):
        rc = main([
            "basis", "green", "--mesh", mesh_path, "--seeds", "4",
            "--scheme", "meanvalue", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "not symmetric" in capsys.readouterr().err
