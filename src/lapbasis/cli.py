"""Batch command line: compute bases, metrics, seeds, and spectra; export
CSV/PLY/JSON/PGM artifacts with a manifest for external plotting.

Every run writes a ``manifest.json`` listing each output file with its
sha256.  Numeric CSV output uses shortest round-trip decimals and fixed
orderings, so identical inputs give byte-identical files.
"""

import argparse
import io
import json
import os
import re
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

from . import basis as basis_mod
from . import metrics as metrics_mod
from . import seeds as seeds_mod
from .errors import LapBasisError
from .fields import BasisSet, ScalarField, field_values
from .filters import FilterSpec, parse_filter
from .ioutil import atomic_write_text, fmt, sha256_file
from .laplacian import assemble
from .mesh import load_mesh, save_ply, validate

SCHEME_FLAG = {"fem": "linear_fem", "cot": "voronoi_cotangent",
               "meanvalue": "mean_value"}
FORMATS = ("csv", "ply")  # field exports; reports are always written
FIELD_STEM = "{}_{:04d}"  # <family>_NNNN, the name of each exported field
FIELD_CSV = re.compile(r"[a-z]+_\d{4,}\.csv")  # FIELD_STEM CSVs, read back
R_HELP = ("degree of the exp rational table, 3..14; without it exp comes "
          "straight from a Lanczos tridiagonal (the r = 5 table with "
          "consistent mass or --scheme meanvalue)")


def _common(parser, operator=True):
    parser.add_argument("--mesh", required=True, help="OFF/OBJ/PLY mesh file")
    if operator:
        parser.add_argument("--scheme", choices=sorted(SCHEME_FLAG),
                            default="fem")
        parser.add_argument("--mass", choices=["lumped", "consistent"],
                            default="lumped")
    parser.add_argument("--out", default=".", help="output directory")


def build_parser():
    p = argparse.ArgumentParser(
        prog="lapbasis",
        description="Laplacian spectral basis functions on triangle meshes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="compute a basis family")
    _common(b)
    b.add_argument("--format", default="csv",
                   help="field exports, a comma list from csv,ply")
    b.add_argument("family", choices=["harmonic", "hamiltonian", "eigen",
                                      "diffusion", "spectral", "green"])
    src = b.add_mutually_exclusive_group()
    src.add_argument("--seeds", help="comma-separated vertex indices")
    src.add_argument("--seeds-file", help="text file, one index per line")
    src.add_argument("--fps", type=int, help="sample this many FPS seeds")
    b.add_argument("--start", type=int, help="FPS start vertex")
    b.add_argument("--t", type=float, default=0.1, help="diffusion scale")
    b.add_argument("--k", type=int, default=100, help="eigenpair count")
    b.add_argument("--r", type=int, help=R_HELP)
    b.add_argument("--mu", type=float, default=1.0,
                   help="Hamiltonian potential weight")
    b.add_argument("--potential", help="CSV (vertex_id,value) potential")
    b.add_argument("--filter", dest="filter_text",
                   help="filter expression, e.g. exp:t=0.1 or rat:num=1;den=1,0,1")
    b.add_argument("--method", choices=["chebyshev", "truncated"],
                   default="chebyshev")

    m = sub.add_parser("metrics", help="pairwise comparison matrix")
    _common(m)
    m.add_argument("--metric", choices=["area", "conformal", "kernel"],
                   required=True)
    m.add_argument("--fields-dir", required=True,
                   help="the field CSVs of a prior basis run")
    m.add_argument("--r", type=int,
                   help="the kernel metric's " + R_HELP)
    m.add_argument("--kernel-t", type=float, default=0.1,
                   help="diffusion scale of the kernel metric")
    m.add_argument("--normalize", action="store_true",
                   help="rescale fields to [0,1] before comparing")

    s = sub.add_parser("seeds", help="farthest point sampling")
    _common(s)
    s.add_argument("--fps", type=int, default=10)
    s.add_argument("--start", type=int)
    s.add_argument("--metric", choices=list(seeds_mod.METRIC_CHOICES),
                   default="euclidean")

    c = sub.add_parser("coverage", help="grow a basis until supports cover")
    _common(c)
    c.add_argument("--t", type=float, default=1.0)
    c.add_argument("--k0", type=int, default=10)
    c.add_argument("--start", type=int, help="FPS start vertex")
    c.add_argument("--tau", type=float, default=seeds_mod.DEFAULT_TAU)
    c.add_argument("--r", type=int, help=R_HELP)
    c.add_argument("--metric", choices=list(seeds_mod.METRIC_CHOICES),
                   default="euclidean")

    v = sub.add_parser("validate", help="mesh sanity report")
    _common(v, operator=False)

    e = sub.add_parser("spectrum", help="smallest eigenvalues")
    _common(e)
    e.add_argument("--k", type=int, default=10)

    return p


class Options(argparse.Namespace):
    """Parsed options that record, in read, which of them the run reads."""

    __slots__ = ("read",)  # a slot, so that vars() lists options only

    def __init__(self):
        self.read = set()

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dict__"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def _given(parser, argv):
    """{dest: flag} of the options argv names: argv parsed again by parser
    with its defaults removed, so that only given options reach the
    namespace.  The parser keeps no defaults afterwards."""
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    flags = {}
    for action in (a for q in sub.choices.values() for a in q._actions):
        action.default = argparse.SUPPRESS
        flags[action.dest] = (action.option_strings or [action.dest])[0]
    return {d: flags.get(d, d) for d in vars(parser.parse_args(argv))}


# ---------------------------------------------------------------------------
# output helpers


class Run:
    """Collects output files and stage times; writes the manifest at the end."""

    def __init__(self, args):
        self.args = args
        self.outdir = args.out
        os.makedirs(self.outdir, exist_ok=True)
        self.outputs = []
        self.info = {}
        self.timings = {}
        self.t0 = time.perf_counter()
        # only basis exports fields, so only basis has --format
        self.formats = [f.strip() for f in getattr(args, "format", "").split(",")
                        if f.strip()]
        for f in self.formats:
            if f not in FORMATS:
                raise ValueError(f"unknown format {f!r}")

    def path(self, name):
        return os.path.join(self.outdir, name)

    def add(self, path):
        self.outputs.append(path)
        return path

    def write_text(self, name, text):
        p = self.path(name)
        atomic_write_text(p, text)
        return self.add(p)

    def finish(self):
        read = self.args.read
        params = {k: v for k, v in vars(self.args).items()
                  if k in read and v is not None}
        manifest = {
            "command": self.args.command,
            "parameters": params,
            "timings": {"total_s": time.perf_counter() - self.t0,
                        **self.timings},
            **self.info,
            "outputs": [
                {"path": os.path.relpath(p, self.outdir),
                 "sha256": sha256_file(p)}
                for p in self.outputs
            ],
        }
        atomic_write_text(self.path("manifest.json"),
                          json.dumps(manifest, indent=2, default=str) + "\n")
        return self.path("manifest.json")


def _field_csv(run, name, f):
    fv = field_values(f)
    lines = ["vertex_id,value"]
    lines += [f"{i},{fmt(v)}" for i, v in enumerate(fv)]
    return run.write_text(name, "\n".join(lines) + "\n")


def _load_field_csv(path, n):
    """A field as _field_csv writes it on an n-vertex mesh: one row per
    vertex, ids 0, 1, 2, ... in order."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("vertex_id"):
            raise ValueError(f"{path}: expected a vertex_id,value header")
        body = fh.read()
    tag = os.path.basename(path)
    # n rows of one "id,value" each convert in one call per column
    cells = [line.split(",") for line in body.rstrip("\n").split("\n")]
    if len(cells) == n and set(map(len, cells)) == {2}:
        ids, values = zip(*cells)
        try:
            ids = np.array(ids, dtype=np.int64)
            values = np.array(values, dtype=float)
        except (ValueError, OverflowError):
            pass
        else:
            if (ids == np.arange(n)).all():
                return ScalarField(values, tag=tag)
    # any other file is read row by row, which names its first bad row
    values = []
    for row, line in enumerate(io.StringIO(body), start=2):
        if line.strip():
            try:
                vid, v = line.split(",", 1)
                vid, v = int(vid), float(v)
            except ValueError as exc:
                raise ValueError(f"{path}, row {row}: {exc}") from None
            if vid != len(values):
                raise ValueError(
                    f"{path}, row {row}: vertex id {vid}, expected "
                    f"{len(values)}: ids must be 0, 1, 2, ... in order")
            values.append(v)
    if len(values) != n:
        raise ValueError(f"{path}: {len(values)} rows, expected one per "
                         f"vertex of the {n}-vertex mesh")
    return ScalarField(np.array(values), tag=tag)


def _ramp_colors(values):
    """Affine blue-to-red ramp over [min, max] as 8-bit RGB."""
    v = np.asarray(values, dtype=float)
    lo, hi = v.min(), v.max()
    u = (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)
    r = np.rint(255 * u).astype(int)
    b = np.rint(255 * (1 - u)).astype(int)
    return np.column_stack([r, np.zeros_like(r), b])


def _field_ply(run, name, mesh, f):
    p = run.path(name)
    save_ply(mesh, p, colors=_ramp_colors(field_values(f)))
    return run.add(p)


def _export_fields(run, mesh, fields, stem):
    for i, f in enumerate(fields):
        tag = getattr(f, "tag", "")
        base = FIELD_STEM.format(stem, i)
        if "csv" in run.formats:
            _field_csv(run, base + ".csv", f)
        if "ply" in run.formats:
            _field_ply(run, base + ".ply", mesh, f)
        run.info.setdefault("fields", []).append(
            {"index": i, "tag": tag, "stem": base}
        )


def _parse_seed_args(args, mesh, op):
    if args.seeds is not None:
        return [int(x) for x in args.seeds.split(",")]
    if args.seeds_file is not None:
        return list(seeds_mod.load_seeds(args.seeds_file))
    if args.fps is not None:
        return list(seeds_mod.farthest_point_sampling(
            mesh, args.fps, start=args.start, op=op))
    raise ValueError("no seeds given: use --seeds, --seeds-file or --fps")


def _write_spectrum(run, op, eig):
    """Write spectrum.json; returns the largest normwise backward error of
    the eigenpairs, ||Lx - lam Bx|| / ((||L||_1 + |lam| ||B||_1) ||x||)."""
    X, lam = eig.vectors, eig.values
    R = eig.L @ X - eig.B @ X * lam
    scale = spla.norm(eig.L, 1) + np.abs(lam) * spla.norm(eig.B, 1)
    resid = float((np.linalg.norm(R, axis=0)
                   / (scale * np.linalg.norm(X, axis=0))).max())
    spec = {
        "k": eig.k,
        "scheme": op.scheme,
        "mass": op.mass_mode,
        "eigenvalues": [float(v) for v in lam],
        "max_rel_residual": resid,
    }
    run.write_text("spectrum.json", json.dumps(spec, indent=2) + "\n")
    return resid


# ---------------------------------------------------------------------------
# subcommands: each body computes and writes; main sets up, times and
# finishes the run


def cmd_basis(args, run, mesh, op):
    fam = args.family
    if fam == "eigen":
        eig = basis_mod.eigen_basis(op, args.k)
        run.info["solver"] = {"max_rel_residual": _write_spectrum(run, op, eig)}
        _export_fields(run, mesh, basis_mod.eigen_fields(eig), "eigen")
    elif fam in ("harmonic", "hamiltonian", "green"):
        seed_list = _parse_seed_args(args, mesh, op)
        if fam == "harmonic":
            bs = basis_mod.harmonic_basis(op, seed_list)
        elif fam == "green":
            bs = basis_mod.green_basis(op, seed_list)
        else:
            if args.potential:
                V = _load_field_csv(args.potential, mesh.n_vertices)
            else:
                V = ScalarField(np.ones(mesh.n_vertices), tag="V=1")
            bs = basis_mod.hamiltonian_basis(op, V, args.mu, seed_list)
        _export_fields(run, mesh, bs, fam)
    elif fam in ("diffusion", "spectral"):
        if fam == "diffusion":
            filt = FilterSpec.exponential(args.t)
        elif args.filter_text:
            filt = parse_filter(args.filter_text)
        else:
            raise ValueError("basis spectral needs --filter")
        bs = basis_mod.spectral_set(op, filt, _parse_seed_args(args, mesh, op),
                                    method=args.method, r=args.r, k=args.k)
        path = run.info["path"] = bs.params["path"]
        # of --r and --k, the kernel read the one its path names
        args.read -= {"r", "k"} - {w.partition("=")[0] for w in path.split()}
        _export_fields(run, mesh, bs, fam)


def cmd_metrics(args, run, mesh, op):
    names = sorted(f for f in os.listdir(args.fields_dir)
                   if FIELD_CSV.fullmatch(f))
    if not names:
        raise ValueError(f"{args.fields_dir}: no field exports; metrics reads"
                         " the <stem>_NNNN.csv files of a basis run")
    paths = [os.path.join(args.fields_dir, f) for f in names]
    fields = BasisSet([_load_field_csv(p, mesh.n_vertices) for p in paths],
                      "file")
    run.info["inputs"] = [{"path": p, "sha256": sha256_file(p)}
                          for p in paths]
    kernel_apply = None
    if args.metric == "kernel":
        kernel = basis_mod.filter_kernel(
            op, FilterSpec.exponential(args.kernel_t), r=args.r)
        kernel_apply = kernel.apply
        run.info["kernel_path"] = kernel.path
    cm = metrics_mod.comparison_matrix(
        op, fields, metric=args.metric, kernel_apply=kernel_apply,
        normalize=args.normalize,
    )
    base = f"metric_{args.metric}"
    p_csv = run.path(base + ".csv")
    metrics_mod.save_comparison_csv(cm, p_csv)
    run.add(p_csv)
    p_pgm = run.path(base + ".pgm")
    metrics_mod.save_comparison_pgm(cm, p_pgm)
    run.add(p_pgm)
    run.info["matrix"] = {"m": cm.m, "normalized": cm.normalized}


def cmd_seeds(args, run, mesh, op):
    ss = seeds_mod.farthest_point_sampling(
        mesh, args.fps, start=args.start, metric=args.metric, op=op
    )
    p = run.path("seeds.txt")
    seeds_mod.save_seeds(ss, p)
    run.add(p)
    run.info["seeds"] = {"method": ss.method, "start": ss.start,
                         "metric": ss.metric, "count": len(ss)}


def cmd_coverage(args, run, mesh, op):
    heat = basis_mod.filter_kernel(op, FilterSpec.exponential(args.t),
                                   r=args.r)
    run.info["path"] = heat.path
    result = seeds_mod.coverage_loop(
        mesh, op, lambda s: heat.apply(np.eye(1, op.n, s)[0]), k0=args.k0,
        tau=args.tau, metric=args.metric, start=args.start,
    )
    p = run.path("coverage_seeds.txt")
    seeds_mod.save_seeds(result.seeds, p)
    run.add(p)
    curve = seeds_mod.coverage_curve(result.basis, tau=args.tau)
    lines = ["k,fraction"]
    lines += [f"{i + 1},{fmt(v)}" for i, v in enumerate(curve)]
    run.write_text("coverage_curve.csv", "\n".join(lines) + "\n")
    report = {
        "iterations": result.iterations,
        "history": [float(h) for h in result.history],
        "tau": result.tau,
        "seed_count": len(result.seeds),
        "t": args.t,
    }
    run.write_text("coverage_report.json", json.dumps(report, indent=2) + "\n")


def cmd_validate(args, run, mesh, op):
    run.write_text("mesh_report.json",
                   json.dumps(validate(mesh).as_dict(), indent=2) + "\n")


def cmd_spectrum(args, run, mesh, op):
    _write_spectrum(run, op, basis_mod.eigen_basis(op, args.k))


COMMANDS = {
    "basis": cmd_basis,
    "metrics": cmd_metrics,
    "seeds": cmd_seeds,
    "coverage": cmd_coverage,
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv, Options())
    args.read.clear()  # argparse itself looks some options up
    try:
        run = Run(args)
        t0 = time.perf_counter()
        mesh = load_mesh(args.mesh)
        run.timings["load_s"] = time.perf_counter() - t0
        op = None
        if "scheme" in args:  # every command but validate reads an operator
            t0 = time.perf_counter()
            op = assemble(mesh, scheme=SCHEME_FLAG[args.scheme],
                          mass_mode=args.mass)
            run.timings["assemble_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        COMMANDS[args.command](args, run, mesh, op)
        run.timings["compute_s"] = time.perf_counter() - t0
        unread = [f for d, f in _given(parser, argv).items()
                  if d not in args.read]
        if unread:
            raise ValueError(f"{', '.join(unread)}: not read by this "
                             f"{args.command} run; leave it out")
        print(run.finish())
        return 0
    except (LapBasisError, OSError, ValueError, IndexError) as exc:
        print(f"lapbasis: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
