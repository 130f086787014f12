"""Batch command line: compute bases, metrics, seeds, and spectra; export
CSV/PLY/JSON/PGM artifacts with a manifest for external plotting.

Every run writes a ``manifest.json`` listing each output file with the
sha256 of the bytes written to it (hashed as they are written, never read
back), and the mesh's load warnings (mesh_warnings) if it has any.
Numeric CSV output uses shortest round-trip decimals and fixed orderings,
so identical inputs give byte-identical files.  Field CSVs are formatted
by ioutil.repr_csv, a block of fields at a time: each value has the
bytes of its repr, as an f-string row f"{i},{v!r}" would write it.
"""

import argparse
import hashlib
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
from .ioutil import (REPR_CHUNK, atomic_write_text, decode_utf8, fmt,
                     id_words, repr_csv)
from .laplacian import assemble
from .mesh import load_mesh, save_ply, validate

SCHEME_FLAG = {"fem": "linear_fem", "meanvalue": "mean_value"}
FORMATS = ("csv", "ply")  # field exports; reports are always written
FIELD_STEM = "{}_{:04d}"  # <family>_NNNN, the name of each exported field
FIELD_CSV = re.compile(r"[a-z]+_\d{4,}\.csv")  # FIELD_STEM CSVs, read back
FIELD_HEADER = b"vertex_id,value\n"  # the first row of a field CSV
R_HELP = ("degree of the exp rational table, 3..14 (default 5), read only "
          "with consistent mass or --scheme meanvalue; otherwise exp is a "
          "Chebyshev expansion whose degree its error bound fixes")


def _record_kernel(run, key, path, error_bound):
    """Put a filtered run's kernel path into the manifest under key, and
    its error bound (B-norm, per unit |f|_B) as error_bound if it has one."""
    run.info[key] = path
    if error_bound is not None:
        run.info["error_bound"] = error_bound


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
        self.formats = []
        if "format" in args:  # only basis exports fields
            self.formats = [f.strip() for f in args.format.split(",")
                            if f.strip()]
            hint = "; give a comma list from " + ",".join(FORMATS)
            if not self.formats:
                raise ValueError("--format names no field export" + hint)
            for i, f in enumerate(self.formats):
                if f not in FORMATS:
                    raise ValueError(f"unknown format {f!r}" + hint)
                if f in self.formats[:i]:
                    raise ValueError(f"--format names {f!r} twice" + hint)
        self.outdir = args.out
        os.makedirs(self.outdir, exist_ok=True)
        self.outputs = []  # paths, in the order they were written
        self.digests = {}  # path -> sha256 of the bytes written there
        self.info = {}
        self.timings = {}
        self.t0 = time.perf_counter()

    def path(self, name):
        return os.path.join(self.outdir, name)

    def add(self, path, digest):
        """Record an output file and the sha256 its writer returned."""
        self.outputs.append(path)
        self.digests[path] = digest
        return path

    def write_text(self, name, text):
        p = self.path(name)
        return self.add(p, atomic_write_text(p, text))

    def save(self, name, writer, obj, **kwargs):
        """writer(obj, path, **kwargs) to the output name; writer returns
        the sha256 of what it wrote."""
        p = self.path(name)
        return self.add(p, writer(obj, p, **kwargs))

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
                 "sha256": self.digests[p]}
                for p in self.outputs
            ],
        }
        atomic_write_text(self.path("manifest.json"),
                          json.dumps(manifest, indent=2, default=str) + "\n")
        return self.path("manifest.json")


def _read_field_csv(path, n):
    """(field, sha256 of the file's bytes) of a field CSV as _export_fields
    writes it on an n-vertex mesh: one row per vertex, ids 0, 1, 2, ...
    in order.  The file is read once, for both."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = decode_utf8(data, path)
    lines = io.StringIO(text, newline=None)  # universal newlines
    if not lines.readline().startswith("vertex_id"):
        raise ValueError(f"{path}: expected a vertex_id,value header")
    values = []
    for row, line in enumerate(lines, start=2):
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
    field = ScalarField(np.array(values), tag=os.path.basename(path))
    return field, hashlib.sha256(data).hexdigest()


def _ramp_colors(values):
    """Affine blue-to-red ramp over [min, max] as 8-bit RGB."""
    v = np.asarray(values, dtype=float)
    lo, hi = v.min(), v.max()
    u = (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)
    r = np.rint(255 * u).astype(int)
    b = np.rint(255 * (1 - u)).astype(int)
    return np.column_stack([r, np.zeros_like(r), b])


def _export_fields(run, mesh, fields, stem):
    """Write each field's CSV and PLY, in that order, field by field.  The
    CSVs are formatted REPR_CHUNK values at a time, as many whole fields
    as fit (at least one), and each is written as soon as its bytes
    exist."""
    fields = list(fields)
    step = max(1, REPR_CHUNK // mesh.n_vertices)
    ids = id_words(mesh.n_vertices) if "csv" in run.formats else None
    for i0 in range(0, len(fields), step):
        chunk = fields[i0:i0 + step]
        if "csv" in run.formats:
            bodies = repr_csv(np.stack([field_values(f) for f in chunk])
                              [:, :, None], ids=ids)
        for i, f in enumerate(chunk, start=i0):
            base = FIELD_STEM.format(stem, i)
            if "csv" in run.formats:
                run.write_text(base + ".csv", FIELD_HEADER + bodies[i - i0])
            if "ply" in run.formats:
                run.save(base + ".ply", save_ply, mesh,
                         colors=_ramp_colors(field_values(f)))
            run.info.setdefault("fields", []).append(
                {"index": i, "tag": getattr(f, "tag", ""), "stem": base}
            )


def _parse_seed_args(args, mesh, op):
    if args.seeds is not None:
        seeds = []
        for i, x in enumerate(args.seeds.split(","), 1):
            try:
                seeds.append(int(x))
            except ValueError as exc:
                raise ValueError(f"--seeds entry {i}: {exc}") from None
        return seeds
    if args.seeds_file is not None:
        return list(seeds_mod.load_seeds(args.seeds_file))
    if args.fps is not None:
        return list(seeds_mod.farthest_point_sampling(
            mesh, args.fps, start=args.start, op=op))
    raise ValueError("no seeds given: use --seeds, --seeds-file or --fps")


def _write_spectrum(run, op, eig):
    """Write spectrum.json, and put the eigensolver's statistics
    (EigenSystem.stats) into the manifest's solver entry with the
    largest normwise backward error of the eigenpairs,
    ||Lx - lam Bx|| / ((||L||_1 + |lam| ||B||_1) ||x||), as
    max_rel_residual."""
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
    run.info["solver"] = {**eig.stats, "max_rel_residual": resid}


# ---------------------------------------------------------------------------
# subcommands: each body computes and writes; main sets up, times and
# finishes the run


def cmd_basis(args, run, mesh, op):
    fam = args.family
    if fam == "eigen":
        eig = basis_mod.eigen_basis(op, args.k)
        _write_spectrum(run, op, eig)
        _export_fields(run, mesh, basis_mod.eigen_fields(eig), "eigen")
    elif fam in ("harmonic", "hamiltonian", "green"):
        seed_list = _parse_seed_args(args, mesh, op)
        if fam == "harmonic":
            bs = basis_mod.harmonic_basis(op, seed_list)
        elif fam == "green":
            bs = basis_mod.green_basis(op, seed_list)
        else:
            if args.potential:
                V = _read_field_csv(args.potential, mesh.n_vertices)[0]
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
        _record_kernel(run, "path", bs.params["path"],
                       bs.params["error_bound"])
        if bs.params["solver"] is not None:  # the truncated route's
            run.info["solver"] = bs.params["solver"]
        _export_fields(run, mesh, bs, fam)


def cmd_metrics(args, run, mesh, op):
    names = sorted(f for f in os.listdir(args.fields_dir)
                   if FIELD_CSV.fullmatch(f))
    if not names:
        raise ValueError(f"{args.fields_dir}: no field exports; metrics reads"
                         " the <stem>_NNNN.csv files of a basis run")
    paths = [os.path.join(args.fields_dir, f) for f in names]
    read = [_read_field_csv(p, mesh.n_vertices) for p in paths]
    fields = BasisSet([f for f, _ in read], "file")
    run.info["inputs"] = [{"path": p, "sha256": digest}
                          for p, (_, digest) in zip(paths, read)]
    kernel_apply = None
    if args.metric == "kernel":
        kernel = basis_mod.filter_kernel(
            op, FilterSpec.exponential(args.kernel_t), r=args.r)
        kernel_apply = kernel.apply
        _record_kernel(run, "kernel_path", kernel.path, kernel.error_bound)
    cm = metrics_mod.comparison_matrix(
        op, fields, metric=args.metric, kernel_apply=kernel_apply,
        normalize=args.normalize,
    )
    base = f"metric_{args.metric}"
    run.save(base + ".csv", metrics_mod.save_comparison_csv, cm)
    run.save(base + ".pgm", metrics_mod.save_comparison_pgm, cm)
    run.info["matrix"] = {"m": cm.m, "normalized": cm.normalized}


def cmd_seeds(args, run, mesh, op):
    ss = seeds_mod.farthest_point_sampling(
        mesh, args.fps, start=args.start, metric=args.metric, op=op
    )
    run.save("seeds.txt", seeds_mod.save_seeds, ss)
    run.info["seeds"] = {"method": ss.method, "start": ss.start,
                         "metric": ss.metric, "count": len(ss)}


def cmd_coverage(args, run, mesh, op):
    heat = basis_mod.filter_kernel(op, FilterSpec.exponential(args.t),
                                   r=args.r)
    _record_kernel(run, "path", heat.path, heat.error_bound)
    result = seeds_mod.coverage_loop(
        mesh, op, heat.apply, k0=args.k0, tau=args.tau, metric=args.metric,
        start=args.start,
    )
    run.save("coverage_seeds.txt", seeds_mod.save_seeds, result.seeds)
    lines = ["k,fraction"]
    lines += [f"{i + 1},{fmt(v)}" for i, v in enumerate(result.curve)]
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
        if mesh.warnings:  # triangle-only inputs keep their manifests
            run.info["mesh_warnings"] = mesh.warning_counts
        op = None
        if "scheme" in args:  # every command but validate reads an operator
            t0 = time.perf_counter()
            op = assemble(mesh, scheme=SCHEME_FLAG[args.scheme],
                          mass_mode=args.mass)
            run.timings["assemble_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        COMMANDS[args.command](args, run, mesh, op)
        run.timings["compute_s"] = time.perf_counter() - t0
        path = run.info.get("path", run.info.get("kernel_path"))
        if path:  # of --r and --k, the kernel read the one its path names
            args.read -= {"r", "k"} - {w.partition("=")[0] for w in path.split()}
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
