"""Command-line front end: jobs in, meshes / CSV / reports out.

Jobs are single JSON documents (UTF-8) holding expression strings; see the
README for the schema and one example per mode.  Outputs per run directory:

    surface.obj       projected mesh (stereographic image of the grid)
    diagnostics.csv   one row per node, fixed column order, %.12g floats
    grid.npz          raw grid (surface, validity, frames if any) for `diagnose`
    report.json       worst residuals and run summary

One helper (_emit) writes a grid's mesh, CSV and grid.npz and returns its
report section, for every mode.  The writers work on whole arrays: one
stacked stereographic projection per mesh, each grid coordinate and vertex
index formatted once and one %-template per row, giving the bytes a
per-node loop with f"{float(x):.12g}" gives.  Closed-form grids come from
one call of their entries on the arrays of all nodes, with the bits of the
per-node formulas.  The argument parser is built once per process; every
`main` call parses afresh.

Exit codes: 0 ok, 2 validation failure (conformality / orientability, or a
solved seam that misses the data), 3 numerical failure, 4 I/O or schema
error (a malformed command line too).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .bjorling import (BjorlingData, MatrixExpr, WeierstrassData,
                       check_conformality, check_orientability,
                       weierstrass_from_bjorling)
from .catenoids import (DEFAULT_PARAMS, FAMILIES, CatenoidSpec,
                        catenoid_bjorling_data, catenoid_entries,
                        classification_weierstrass, lightlike_circle,
                        nonrotational_entries, nonrotational_extension,
                        nonrotational_weierstrass_wchart)
# Closed-form grids are built from the entries; these two names stay here
# because the benchmark tracer (perfbench/spans.py) patches them in cli.
from .catenoids import catenoid_closed_form, nonrotational_closed_form  # noqa: F401
from .diagnostics import chartfree_grid_diagnostics, grid_diagnostics
from .errors import (DataInconsistencyError, DomainError, IntegrationError,
                     LightconeError, ParseError, ValidationError)
from .frame import GridSpec, SurfaceGrid, solve_bjorling
from .lorentz import F3, mat2, stereographic_project

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

GAUGE_TEST_TWIST = mat2(np.exp(0.7j), 0.3, 0.0, np.exp(-0.7j))

DEFAULT_GRIDS = {
    "elliptic": ((0.0, 2.0 * math.pi), (-1.0, 1.0), 41, 21),
    "hyperbolic": ((-1.0, 1.0), (-1.0, 1.0), 41, 21),
    "parabolic": ((0.5, 2.0), (-1.0, 1.0), 41, 21),
}

CSV_COLUMNS = ("u", "v", "valid", "phi2", "H", "K", "conformality_defect",
               "lightlike_residual", "gauss_residual", "second_form_imag",
               "det_drift")
# one row; u and v arrive as text, each formatted once per grid line
_CSV_ROW = ",".join(["%s"] * 2 + ["%d"] + ["%.12g"] * (len(CSV_COLUMNS) - 3))

# Largest node count of one grid (n_u * n_v, or n_utilde * n_v for the
# extension chart), and of any count.  A grid holds its frames and surface
# as 2x2 complex matrices (64 B per node each) plus nine float slots, and
# the frame route integrates every node, so 10^6 nodes already mean 200 MB
# and minutes of work; a larger count is a typo, rejected before any work.
MAX_NODES = 10 ** 6

# grid.npz layout written by save_grid; load_grid also reads format 1
GRID_FORMAT = 2

# the seam gate of solve: criterion 4's bounds on |X(u,0) - gamma(u)| and
# |X_v(u,0) - L(u)|, relative to 1 + max|gamma| and 1 + max|L| on the seam
SEAM_CURVE_TOL = 1e-8
SEAM_TANGENT_TOL = 1e-6


class SchemaError(LightconeError):
    """Malformed job document."""


# ---------------------------------------------------------------------------
# job loading

def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def load_job(path: str, mode: str | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read job file {path}: {exc}") from exc
    _require(isinstance(job, dict), "job document must be a JSON object")
    if mode is not None and "mode" in job:
        _require(job["mode"] == mode,
                 f"job document is for mode {job['mode']!r}, invoked as {mode!r}")
    return job


def _matrix_from_block(block, name) -> MatrixExpr:
    _require(isinstance(block, dict), f"{name} block must be an object")
    entries = []
    for key in ("m11", "m12", "m21", "m22"):
        _require(key in block, f"{name} block is missing entry {key!r}")
        _require(isinstance(block[key], str), f"{name}.{key} must be an expression string")
        try:
            entries.append(ex.parse(block[key]))
        except ParseError as exc:
            raise SchemaError(f"{name}.{key}: {exc}") from exc
    return MatrixExpr(*entries)


def bjorling_from_job(job: dict) -> BjorlingData:
    if "bjorling" in job:
        blk = job["bjorling"]
        _require(isinstance(blk, dict), "bjorling block must be an object")
        _require("gamma" in blk and "tangent" in blk and "interval" in blk,
                 "bjorling block needs gamma, tangent and interval")
        interval = _increasing_pair(blk["interval"], "bjorling.interval")
        samples = _integer(blk.get("samples", 33), "bjorling.samples", 9)
        gamma = _matrix_from_block(blk["gamma"], "gamma")
        tangent = _matrix_from_block(blk["tangent"], "tangent")
        try:
            return BjorlingData(gamma, tangent, interval, samples)
        except ValidationError as exc:
            raise SchemaError(str(exc)) from exc
    if "catenoid" in job:
        spec, flip = catenoid_from_job(job)
        return catenoid_bjorling_data(spec, flip_tangent_sign=flip)
    raise SchemaError("job needs a 'bjorling' or 'catenoid' block")


def catenoid_from_job(job: dict):
    blk = job.get("catenoid")
    _require(isinstance(blk, dict), "catenoid block must be an object")
    _require("family" in blk, "catenoid block needs a family")
    family = str(blk["family"])
    param = blk.get("param", DEFAULT_PARAMS.get(family))
    _require(param is not None, "catenoid block needs a param")
    try:
        spec = CatenoidSpec(family, _number(param, "catenoid.param"))
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
    return spec, _flag(blk.get("flip_tangent_sign", False), "catenoid.flip_tangent_sign")


def grid_from_job(job: dict, fallback=None) -> GridSpec:
    blk = job.get("grid")
    if blk is None:
        _require(fallback is not None, "job needs a 'grid' block")
        (u0, u1), (v0, v1), n_u, n_v = fallback
        return GridSpec((u0, u1), (v0, v1), n_u, n_v)
    _require(isinstance(blk, dict), "grid block must be an object")
    for key in ("u_range", "v_range", "n_u", "n_v"):
        _require(key in blk, f"grid block is missing {key!r}")
    u_range = _increasing_pair(blk["u_range"], "grid.u_range")
    v_range = _increasing_pair(blk["v_range"], "grid.v_range")
    n_u = _integer(blk["n_u"], "grid.n_u", 2)
    n_v = _integer(blk["n_v"], "grid.n_v", 2)
    _node_cap(n_u * n_v, "grid")
    return GridSpec(u_range, v_range, n_u, n_v)


def _number(value, name, positive=False) -> float:
    """A finite float from a JSON number; NaN, inf, bools, strings and lists
    are schema errors (NaN would make every `residual > tol` comparison
    false, and a NaN parameter would yield a NaN surface)."""
    try:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value) and (value > 0 or not positive)
    except OverflowError:  # an integer beyond float range
        ok = False
    _require(ok, f"{name} must be a finite{' positive' if positive else ''} number, "
                 f"got {value!r}")
    return float(value)


def _integer(value, name, lo) -> int:
    """A JSON integer in [lo, MAX_NODES]; bools (which Python counts as
    ints), floats, strings and null are schema errors."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             and lo <= value <= MAX_NODES,
             f"{name} must be an integer in [{lo}, {MAX_NODES}], got {value!r}")
    return value


def _node_cap(nodes, name):
    _require(nodes <= MAX_NODES, f"{name} has {nodes} nodes; at most {MAX_NODES} are allowed")


def _flag(value, name) -> bool:
    """A JSON boolean; strings such as "no" would be true under bool()."""
    _require(isinstance(value, bool), f"{name} must be true or false, got {value!r}")
    return value


def _increasing_pair(value, name) -> tuple[float, float]:
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"{name} must be a pair [lo, hi]")
    lo, hi = (_number(x, f"{name}[{k}]") for k, x in enumerate(value))
    _require(hi > lo, f"{name} must be an increasing pair")
    return lo, hi


def tolerances_from_job(job: dict, tol_override=None):
    blk = job.get("tolerances", {})
    _require(isinstance(blk, dict), "tolerances block must be an object")
    kw = {key: _number(blk[key], f"tolerances.{key}", positive=True)
          for key in ("conformality", "orientability") if blk.get(key) is not None}
    if tol_override is not None:
        kw["conformality"] = _number(tol_override, "--tol", positive=True)
    return kw


# ---------------------------------------------------------------------------
# emission

def write_obj(path: Path, x_grid: np.ndarray, valid: np.ndarray) -> dict:
    """Triangulated stereographic mesh; invalid nodes are dropped and faces
    touching them skipped.  Quads are split counter-clockwise in (u, v)."""
    valid = np.asarray(valid, dtype=bool)
    # invalid nodes may hold anything; project F3 there, so that an error
    # names a valid grid node (iv, iu)
    a, b, c = stereographic_project(np.where(valid[..., None, None], x_grid, F3))
    lines = ["v %.12g %.12g %.12g" % p
             for p in zip(a[valid].tolist(), b[valid].tolist(), c[valid].tolist())]
    n_vertices = len(lines)
    # each vertex's 1-based index, as text, at its grid node
    names = np.full(valid.shape, "", dtype=object)
    names[valid] = [str(k) for k in range(1, n_vertices + 1)]
    quad = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    corners = (names[:-1, :-1][quad], names[:-1, 1:][quad],
               names[1:, 1:][quad], names[1:, :-1][quad])
    lines += [f"f {v00} {v10} {v11}\nf {v00} {v11} {v01}"
              for v00, v10, v11, v01 in zip(*(k.tolist() for k in corners))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"vertices": n_vertices, "faces": 2 * (len(lines) - n_vertices)}


def write_polyline_obj(path: Path, x_points: np.ndarray) -> None:
    """Polyline through the stereographic images of a (n, 2, 2) stack."""
    a, b, c = stereographic_project(x_points)
    lines = ["v %.12g %.12g %.12g" % p for p in zip(a.tolist(), b.tolist(), c.tolist())]
    lines.append("l " + " ".join(str(i + 1) for i in range(len(lines))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path: Path, grid: SurfaceGrid) -> None:
    """One row per node in row-major (v, u) order, each coordinate formatted
    once.  '%.12g' % x prints what f"{float(x):.12g}" prints, for NaN, inf
    and -0.0 too."""
    u_text = ["%.12g" % x for x in np.asarray(grid.u, dtype=float).tolist()]
    v_text = ["%.12g" % x for x in np.asarray(grid.v, dtype=float).tolist()]
    columns = [u_text * len(v_text), [vt for vt in v_text for _ in u_text],
               np.asarray(grid.valid, dtype=bool).ravel().tolist()]
    columns += [np.asarray(getattr(grid, name), dtype=float).ravel().tolist()
                for name in CSV_COLUMNS[3:]]
    rows = [",".join(CSV_COLUMNS)]
    rows += map(_CSV_ROW.__mod__, zip(*columns))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def save_grid(path: Path, grid: SurfaceGrid, kind: str, meta: dict,
              weierstrass: dict | None = None) -> None:
    """grid.npz, format 2: u, v, X and valid, and meta_json, the JSON object
    of meta with "format": 2, the kind and, for a grid with Weierstrass data,
    its "G" and "omega" strings (weierstrass).  F and det_drift are written
    only for a grid that carries a frame, that is, where det_drift is finite
    anywhere."""
    header = dict(meta, format=GRID_FORMAT, kind=kind, **(weierstrass or {}))
    payload = {"u": grid.u, "v": grid.v, "X": grid.X, "valid": grid.valid,
               "meta_json": np.array(json.dumps(header, sort_keys=True))}
    if np.isfinite(grid.det_drift).any():
        payload["F"], payload["det_drift"] = grid.F, grid.det_drift
    np.savez(path, **payload)


def load_grid(path: Path):
    """(grid, kind, meta) from a grid.npz of format 2 or format 1.

    Format 2 keeps the kind and the G/omega strings in meta_json and F and
    det_drift only for frame grids; format 1 (meta_json without "format")
    has kind, F and det_drift members and optional G_str/omega_str.  Every
    array must have the shape and kind of dtype save_grid writes, meta_json
    must hold a JSON object, and the extend kinds must carry a finite param;
    anything else is a SchemaError.  meta comes back without the format's
    own keys, and a grid without a frame gets NaN F and det_drift."""
    try:
        npz = np.load(path, allow_pickle=False)
        _require(isinstance(npz, np.lib.npyio.NpzFile), f"grid file {path} is not an .npz archive")
        with npz:
            raw = dict(npz.items())
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"cannot read grid file {path}: {exc}") from exc
    _require("meta_json" in raw, "grid file is missing array 'meta_json'")
    try:
        meta = json.loads(str(raw["meta_json"]))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"grid file: meta_json is not JSON: {exc}") from exc
    _require(isinstance(meta, dict), "grid file: meta_json must be a JSON object")
    if "format" in meta:
        _require(meta.pop("format") == GRID_FORMAT,
                 f"grid file: unsupported format in meta_json (this reads {GRID_FORMAT} and 1)")
        kind, g_str, om_str = (meta.pop(key, None) for key in ("kind", "G", "omega"))
        _require(isinstance(kind, str), "grid file: meta_json needs a kind string")
        _require((g_str is None) == (om_str is None), "grid file: meta_json needs G and omega")
        _require(g_str is None or (isinstance(g_str, str) and isinstance(om_str, str)),
                 "grid file: meta_json G and omega must be strings")
        _require(("F" in raw) == ("det_drift" in raw),
                 "grid file: F and det_drift must be stored together")
        members = ("u", "v", "X", "valid")
    else:
        members = ("kind", "u", "v", "F", "X", "valid", "det_drift")
        kind = str(raw.get("kind"))
        g_str = str(raw["G_str"]) if "G_str" in raw and "omega_str" in raw else None
        om_str = str(raw["omega_str"]) if g_str is not None else None
    for key in members:
        _require(key in raw, f"grid file is missing array {key!r}")
    u, v = raw["u"], raw["v"]
    _require(u.ndim == 1 and v.ndim == 1, "grid file: u and v must be 1-d arrays")
    nodes = (len(v), len(u))
    for key, shape, dtype in (("u", u.shape, float), ("v", v.shape, float),
                              ("F", nodes + (2, 2), complex), ("X", nodes + (2, 2), complex),
                              ("valid", nodes, bool), ("det_drift", nodes, float)):
        if key not in raw:
            continue  # F and det_drift of a frame-free format-2 grid
        arr = raw[key]
        _require(arr.shape == shape and np.can_cast(arr.dtype, dtype, "same_kind"),
                 f"grid file: {key} is {arr.dtype} of shape {arr.shape}, "
                 f"expected {np.dtype(dtype)} of shape {shape}")
    if kind.startswith("extend-"):
        _number(meta.get("param"), "grid file: meta param")
    grid = SurfaceGrid(u=u, v=v, X=raw["X"], valid=raw["valid"],
                       F=raw["F"] if "F" in raw else np.full(nodes + (2, 2), np.nan, complex),
                       det_drift=raw["det_drift"] if "det_drift" in raw else np.full(nodes, np.nan))
    if g_str is not None:
        grid.wd = WeierstrassData.from_strings(g_str, om_str)
    return grid, kind, meta


def _grid_summary(grid: SurfaceGrid) -> dict:
    def safe_max(arr):
        vals = arr[np.isfinite(arr)]
        return float(np.max(np.abs(vals))) if vals.size else None
    out = {
        "valid_nodes": int(np.sum(grid.valid)),
        "total_nodes": int(grid.valid.size),
        "max_abs_H": safe_max(grid.H),
        "max_det_drift": safe_max(grid.det_drift),
        "max_lightlike_residual": safe_max(grid.lightlike_residual),
        "max_gauss_residual": safe_max(grid.gauss_residual),
    }
    if grid.boundary_curve_residual is not None:
        out["max_boundary_curve_residual"] = safe_max(grid.boundary_curve_residual)
        out["max_boundary_tangent_residual"] = safe_max(grid.boundary_tangent_residual)
    return out


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _emit(out: Path, grid: SurfaceGrid, files, kind: str | None = None,
          meta: dict | None = None, weierstrass: bool = False) -> dict:
    """Write a grid's mesh, CSV and .npz into out, creating it, and return
    its report section.  files names the three; None skips a file
    (diagnose rewrites only the CSV).  The section holds the mesh counts
    where a mesh is written, the summary and, if weierstrass is set, the
    grid's G and omega strings; they are made once, for the section and the
    .npz alike."""
    obj_name, csv_name, npz_name = files
    out.mkdir(parents=True, exist_ok=True)
    strings = None
    if grid.wd is not None and (weierstrass or npz_name):
        strings = {"G": str(grid.wd.G), "omega": str(grid.wd.omega)}
    section = {"weierstrass": strings} if weierstrass else {}
    if obj_name:
        section["mesh"] = write_obj(out / obj_name, grid.X, grid.valid)
    write_csv(out / csv_name, grid)
    if npz_name:
        save_grid(out / npz_name, grid, kind, meta, strings)
    section["summary"] = _grid_summary(grid)
    return section


# ---------------------------------------------------------------------------
# modes

def _run_checks(data: BjorlingData, tols: dict, quiet=False):
    conf = check_conformality(data, **({"tol": tols["conformality"]}
                                       if "conformality" in tols else {}))
    if not quiet:
        status = "PASS" if conf.passed else "FAIL"
        print(f"conformality: {status} (worst residual {conf.worst_residual():.3e})")
        for msg in conf.failures[:8]:
            print(f"  - {msg}")
    if not conf.passed:
        return conf, None
    orient = check_orientability(data, **({"tol": tols["orientability"]}
                                          if "orientability" in tols else {}))
    if not quiet:
        status = "PASS" if orient.passed else "FAIL"
        print(f"orientability: {status} (min |D1| = {np.min(np.abs(orient.d1)):.3e}, "
              f"signed areas {sorted(set(orient.area_signs.tolist()))})")
        for msg in orient.failures[:8]:
            print(f"  - {msg}")
    return conf, orient


def run_check(job: dict, tol_override=None) -> int:
    data = bjorling_from_job(job)
    tols = tolerances_from_job(job, tol_override)
    conf, orient = _run_checks(data, tols)
    if not conf.passed or orient is None or not orient.passed:
        print("validation: FAIL")
        return EXIT_VALIDATION
    print("validation: PASS")
    return EXIT_OK


def _out_dir(job: dict, out_flag) -> Path:
    """The output directory, not yet created: _emit, the first writer of
    every mode, makes it, so a rejected job leaves none."""
    out = out_flag or job.get("out")
    if not out:
        raise SchemaError("no output directory (use --out or the 'out' field)")
    _require(isinstance(out, str), f"out must be a directory name, got {out!r}")
    return Path(out)


def run_solve(job: dict, out_flag=None, gauge_test=False, renormalize_det=False,
              tol_override=None) -> int:
    out = _out_dir(job, out_flag)
    data = bjorling_from_job(job)
    tols = tolerances_from_job(job, tol_override)
    renorm = _flag(job.get("renormalize_det", False), "renormalize_det") or renormalize_det
    gauge_test = _flag(job.get("gauge_test", False), "gauge_test") or gauge_test
    conf, orient = _run_checks(data, tols)
    if not conf.passed or orient is None or not orient.passed:
        return EXIT_VALIDATION
    wd = weierstrass_from_bjorling(data)
    # the catenoid block names the default grid, even beside a bjorling block
    fallback = DEFAULT_GRIDS[catenoid_from_job(job)[0].family] if "catenoid" in job else None
    grid_spec = grid_from_job(job, fallback=fallback)
    grid = solve_bjorling(data, grid_spec, wd=wd, renormalize_det=renorm)
    if not np.any(grid.valid):
        print("integration failed on the whole grid")
        return EXIT_NUMERICAL
    _gate_seam(data, grid)
    grid_diagnostics(grid)
    report = {"mode": "solve", "version": __version__}
    if gauge_test:
        twisted = solve_bjorling(data, grid_spec, wd=wd, initial_twist=GAUGE_TEST_TWIST,
                                 renormalize_det=renorm)
        both = grid.valid & twisted.valid
        dev = float(np.max(np.abs(grid.X[both] - twisted.X[both]))) if np.any(both) else None
        report["gauge_test_max_deviation"] = dev
        if dev is not None:
            print(f"gauge test: max |X - X_twisted| = {dev:.3e}")
    report.update(_emit(out, grid, ("surface.obj", "diagnostics.csv", "grid.npz"), "bjorling",
                        {"samples": data.samples, "interval": list(data.interval)},
                        weierstrass=True))
    write_report(out / "report.json", report)
    mesh = report["mesh"]
    print(f"solve: wrote {mesh['vertices']} vertices, {mesh['faces']} faces to {out}")
    return EXIT_OK


def _gate_seam(data: BjorlingData, grid: SurfaceGrid) -> None:
    """Raise DataInconsistencyError (exit 2) where the solved seam misses the
    data: the curve residual above SEAM_CURVE_TOL (1 + max|gamma|) or the
    tangent residual above SEAM_TANGENT_TOL (1 + max|L|), over the seam
    nodes where each residual is finite."""
    for name, residual, matrix, symbol, tol in (
            ("curve", grid.boundary_curve_residual, data.gamma, "gamma", SEAM_CURVE_TOL),
            ("tangent", grid.boundary_tangent_residual, data.tangent, "L", SEAM_TANGENT_TOL)):
        seam = np.flatnonzero(np.isfinite(residual))
        if not seam.size or np.max(residual[seam]) <= tol:
            continue  # within the bound whatever the scale
        bound = tol * (1.0 + float(np.max(np.abs(matrix.eval(grid.u[seam])))))
        worst = seam[np.argmax(residual[seam])]
        if residual[worst] > bound:
            raise DataInconsistencyError(
                f"boundary {name} residual exceeds {tol:g} * (1 + max|{symbol}|) = "
                f"{bound:.3e} on the seam", float(grid.u[worst]), float(residual[worst]))


def run_catenoid(job: dict, out_flag=None) -> int:
    out = _out_dir(job, out_flag)
    spec, flip = catenoid_from_job(job)
    if flip:
        raise SchemaError("catenoid mode builds the admissible branch; "
                          "use check/solve for the flipped field")
    grid_spec = grid_from_job(job, fallback=DEFAULT_GRIDS[spec.family])
    wd = classification_weierstrass(spec)
    grid = _closed_form_grid(lambda u, v: catenoid_entries(spec, u, v), grid_spec, wd)
    grid_diagnostics(grid)
    section = _emit(out, grid, ("surface.obj", "diagnostics.csv", "grid.npz"), "catenoid",
                    {"family": spec.family, "param": spec.param}, weierstrass=True)
    write_report(out / "report.json", {"mode": "catenoid", "version": __version__,
                                       "family": spec.family, "param": spec.param, **section})
    mesh = section["mesh"]
    print(f"catenoid ({spec.family}, param {spec.param:g}): wrote {mesh['vertices']} "
          f"vertices, {mesh['faces']} faces to {out}")
    return EXIT_OK


def _closed_form_grid(entries, grid_spec: GridSpec, wd) -> SurfaceGrid:
    """Closed-form surface on the grid.  entries(u, v) gives (m11, m12, m22)
    and is called once, on the (n_v, n_u) mesh of the nodes; X holds the
    bits herm(m11, m12, m22) gives node by node."""
    u_nodes, v_nodes = grid_spec.u_nodes(), grid_spec.v_nodes()
    shape = (grid_spec.n_v, grid_spec.n_u)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        m11, m12, m22 = entries(*np.meshgrid(u_nodes, v_nodes))
    x_grid = np.empty(shape + (2, 2), dtype=complex)
    x_grid[..., 0, 0], x_grid[..., 0, 1], x_grid[..., 1, 1] = m11, m12, m22
    x_grid[..., 1, 0] = np.conj(m12)
    finite = np.isfinite(x_grid).all(axis=(-2, -1))
    if not finite.all():
        iv, iu = np.argwhere(~finite)[0].tolist()
        raise DomainError(f"closed form is not finite at node ({iv}, {iu}), "
                          f"(u, v) = ({u_nodes[iu]:.6g}, {v_nodes[iv]:.6g})")
    return SurfaceGrid(u=u_nodes, v=v_nodes,
                       F=np.full(shape + (2, 2), np.nan, dtype=complex), X=x_grid,
                       valid=np.ones(shape, dtype=bool),
                       det_drift=np.full(shape, np.nan), wd=wd)


def run_diagnose(input_path: str, out_flag=None) -> int:
    grid, kind, meta = load_grid(Path(input_path))
    out = Path(out_flag) if out_flag else Path(input_path).parent
    if kind == "extend-extension":
        c = meta["param"]
        grid = chartfree_grid_diagnostics(lambda ut, v: nonrotational_extension(c, ut, v),
                                          grid.u, grid.v)
    elif kind in ("catenoid", "extend-base", "bjorling"):
        if grid.wd is None:
            raise SchemaError("stored grid carries no Weierstrass data")
        grid_diagnostics(grid)
    else:
        raise SchemaError(f"unknown grid kind {kind!r}")
    section = _emit(out, grid, (None, "diagnostics.csv", None))
    write_report(out / "report.json", {"mode": "diagnose", "version": __version__,
                                       "kind": kind, **section})
    print(f"diagnose: rewrote diagnostics for {kind} grid in {out}")
    return EXIT_OK


def run_extend(job: dict, out_flag=None) -> int:
    out = _out_dir(job, out_flag)
    blk = job.get("extend", {})
    _require(isinstance(blk, dict), "extend block must be an object")
    c = _number(blk.get("param", 0.5), "extend.param")
    if c == 0:
        raise SchemaError("extend parameter must be nonzero")
    base_grid_spec = grid_from_job(
        job, fallback=((math.log(0.5), math.log(2.0)), (0.0, 2.0 * math.pi), 33, 33))
    ut_range = _increasing_pair(blk.get("utilde_range", [-1.5, 1.5]), "extend.utilde_range")
    n_ut = _integer(blk.get("n_utilde", 31), "extend.n_utilde", 2)
    _node_cap(n_ut * base_grid_spec.n_v, "extension grid")

    wd = nonrotational_weierstrass_wchart(c)
    base = _closed_form_grid(lambda u, v: nonrotational_entries(c, u, v),
                             base_grid_spec, wd)
    grid_diagnostics(base)
    ut_nodes = np.linspace(ut_range[0], ut_range[1], n_ut)
    ext = chartfree_grid_diagnostics(lambda ut, v: nonrotational_extension(c, ut, v),
                                     ut_nodes, base_grid_spec.v_nodes())

    base_section = _emit(out, base, ("base_chart.obj", "base_chart.csv", "base_chart_grid.npz"),
                         "extend-base", {"param": c})
    ext_section = _emit(out, ext, ("extension_chart.obj", "extension_chart.csv",
                                   "extension_chart_grid.npz"), "extend-extension", {"param": c})

    circle = np.array([lightlike_circle(c, v) for v in base_grid_spec.v_nodes().tolist()])
    write_polyline_obj(out / "lightlike_circle.obj", circle)

    write_report(out / "report.json", {
        "mode": "extend", "version": __version__, "param": c,
        "base_chart": base_section, "extension_chart": ext_section,
    })
    print(f"extend (c = {c:g}): wrote both charts and the lightlike circle to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises SchemaError, so `main` exits 4 with one line
    instead of argparse printing the usage and exiting 2, the code for a
    validation failure.  The subparsers are of this class too."""

    def error(self, message):
        raise SchemaError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lightcone",
        description="Zero mean curvature surfaces in the 3-dimensional light cone.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="mode", required=True)

    def common(p, needs_out=True, tol=False):
        p.add_argument("--input", help="job JSON document")
        if needs_out:
            p.add_argument("--out", help="output directory")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="override the conformality tolerance")

    p = subs.add_parser("check", help="validate Bjorling data")
    common(p, needs_out=False, tol=True)

    p = subs.add_parser("solve", help="run the full boundary-data pipeline")
    common(p, tol=True)
    p.add_argument("--grid", help="u0,u1,v0,v1,nu,nv")
    p.add_argument("--gauge-test", action="store_true",
                   help="re-solve with a twisted initial frame and report the deviation")
    p.add_argument("--renormalize-det", action="store_true",
                   help="project frames back to det = 1 after each segment")

    p = subs.add_parser("catenoid", help="closed-form rotational surface")
    common(p)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--param", type=float)
    p.add_argument("--grid", help="u0,u1,v0,v1,nu,nv")

    p = subs.add_parser("diagnose", help="re-run diagnostics on a stored grid")
    p.add_argument("--input", required=True, help="grid.npz from a previous run")
    p.add_argument("--out", help="output directory (defaults next to the input)")

    p = subs.add_parser("extend", help="both charts of the non-rotational example")
    common(p)
    p.add_argument("--param", type=float, help="the parameter c")
    p.add_argument("--grid", help="u0,u1,v0,v1,nu,nv for the base chart")
    return parser


def _parse_grid_flag(text: str) -> dict:
    parts = text.split(",")
    _require(len(parts) == 6, "--grid expects u0,u1,v0,v1,nu,nv")
    try:
        u0, u1, v0, v1 = (float(p) for p in parts[:4])
        n_u, n_v = int(parts[4]), int(parts[5])
    except ValueError as exc:
        raise SchemaError(f"bad --grid value: {exc}") from exc
    return {"u_range": [u0, u1], "v_range": [v0, v1], "n_u": n_u, "n_v": n_v}


def _job_for(args) -> dict:
    job = load_job(args.input, mode=args.mode) if args.input else {}
    if getattr(args, "grid", None):
        job["grid"] = _parse_grid_flag(args.grid)
    if args.mode == "catenoid" and args.family is not None:
        blk = job.setdefault("catenoid", {})
        _require(isinstance(blk, dict), "catenoid block must be an object")
        blk["family"] = args.family
        if args.param is not None:
            blk["param"] = args.param
    if args.mode == "extend" and args.param is not None:
        blk = job.setdefault("extend", {})
        _require(isinstance(blk, dict), "extend block must be an object")
        blk["param"] = args.param
    return job


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.mode == "check":
            _require(args.input, "check mode needs --input")
            return run_check(load_job(args.input, mode="check"), tol_override=args.tol)
        if args.mode == "solve":
            _require(args.input, "solve mode needs --input")
            return run_solve(_job_for(args), out_flag=args.out,
                             gauge_test=args.gauge_test,
                             renormalize_det=args.renormalize_det,
                             tol_override=args.tol)
        if args.mode == "catenoid":
            return run_catenoid(_job_for(args), out_flag=args.out)
        if args.mode == "diagnose":
            return run_diagnose(args.input, out_flag=args.out)
        if args.mode == "extend":
            return run_extend(_job_for(args), out_flag=args.out)
        raise SchemaError(f"unknown mode {args.mode!r}")
    except (SchemaError, ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataInconsistencyError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrationError, LightconeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
