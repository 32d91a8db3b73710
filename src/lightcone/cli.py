"""Command-line front end: jobs in, meshes / CSV / reports out.

Jobs are single JSON documents (UTF-8) holding expression strings; see the
README for the schema and one example per mode.  Outputs per run directory:

    surface.obj       projected mesh (stereographic image of the grid)
    diagnostics.csv   one row per node, fixed column order, %.12g floats
    grid.npz          raw grid (frames, surface, validity) for `diagnose`
    report.json       worst residuals and run summary

The writers work on whole arrays: one stacked stereographic projection per
mesh and one %-template per row, giving the bytes a per-node loop with
f"{float(x):.12g}" gives.  Closed-form grids are filled from the scalar
entries of their formulas (math/cmath, as the public closed forms use) in
one array pass.  The argument parser is built once per process; every
`main` call parses afresh.

Exit codes: 0 ok, 2 validation failure (conformality / orientability),
3 numerical failure, 4 I/O or schema error (a malformed command line too).
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
from .errors import (DataInconsistencyError, IntegrationError, LightconeError,
                     ParseError, ValidationError)
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
_CSV_ROW = ",".join(["%.12g"] * 2 + ["%d"] + ["%.12g"] * (len(CSV_COLUMNS) - 3))

# Largest node count of one grid (n_u * n_v, or n_utilde * n_v for the
# extension chart), and of any count.  A grid holds its frames and surface
# as 2x2 complex matrices (64 B per node each) plus nine float slots, and
# the frame route integrates every node, so 10^6 nodes already mean 200 MB
# and minutes of work; a larger count is a typo, rejected before any work.
MAX_NODES = 10 ** 6


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
    index = np.zeros(valid.shape, dtype=np.int64)
    index[valid] = np.arange(1, n_vertices + 1)
    quad = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    corners = (index[:-1, :-1][quad], index[:-1, 1:][quad],
               index[1:, 1:][quad], index[1:, :-1][quad])
    lines += ["f %d %d %d\nf %d %d %d" % (v00, v10, v11, v00, v11, v01)
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
    """One row per node in row-major (v, u) order.  '%.12g' % x prints what
    f"{float(x):.12g}" prints, for NaN, inf and -0.0 too."""
    u, v = np.meshgrid(np.asarray(grid.u, dtype=float), np.asarray(grid.v, dtype=float))
    columns = [u, v, np.asarray(grid.valid, dtype=bool)]
    columns += [np.asarray(getattr(grid, name), dtype=float) for name in CSV_COLUMNS[3:]]
    rows = [",".join(CSV_COLUMNS)]
    rows += [_CSV_ROW % row for row in zip(*(col.ravel().tolist() for col in columns))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def save_grid(path: Path, grid: SurfaceGrid, kind: str, meta: dict) -> None:
    payload = {
        "kind": np.array(kind),
        "u": grid.u, "v": grid.v, "F": grid.F, "X": grid.X,
        "valid": grid.valid, "det_drift": grid.det_drift,
        "meta_json": np.array(json.dumps(meta, sort_keys=True)),
    }
    if grid.wd is not None:
        payload["G_str"] = np.array(str(grid.wd.G))
        payload["omega_str"] = np.array(str(grid.wd.omega))
    np.savez(path, **payload)


def load_grid(path: Path):
    """(grid, kind, meta) from a grid.npz.  Every array must have the shape
    and kind of dtype save_grid writes, meta_json must hold a JSON object,
    and the extend kinds must carry a finite param; anything else is a
    SchemaError."""
    try:
        npz = np.load(path, allow_pickle=False)
        _require(isinstance(npz, np.lib.npyio.NpzFile), f"grid file {path} is not an .npz archive")
        with npz:
            raw = dict(npz.items())
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"cannot read grid file {path}: {exc}") from exc
    for key in ("kind", "u", "v", "F", "X", "valid", "det_drift", "meta_json"):
        _require(key in raw, f"grid file is missing array {key!r}")
    u, v = raw["u"], raw["v"]
    _require(u.ndim == 1 and v.ndim == 1, "grid file: u and v must be 1-d arrays")
    nodes = (len(v), len(u))
    for key, shape, dtype in (("u", u.shape, float), ("v", v.shape, float),
                              ("F", nodes + (2, 2), complex), ("X", nodes + (2, 2), complex),
                              ("valid", nodes, bool), ("det_drift", nodes, float)):
        arr = raw[key]
        _require(arr.shape == shape and np.can_cast(arr.dtype, dtype, "same_kind"),
                 f"grid file: {key} is {arr.dtype} of shape {arr.shape}, "
                 f"expected {np.dtype(dtype)} of shape {shape}")
    kind = str(raw["kind"])
    try:
        meta = json.loads(str(raw["meta_json"]))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"grid file: meta_json is not JSON: {exc}") from exc
    _require(isinstance(meta, dict), "grid file: meta_json must be a JSON object")
    if kind.startswith("extend-"):
        _number(meta.get("param"), "grid file: meta param")
    grid = SurfaceGrid(u=u, v=v, F=raw["F"], X=raw["X"],
                       valid=raw["valid"], det_drift=raw["det_drift"])
    if "G_str" in raw and "omega_str" in raw:
        grid.wd = WeierstrassData.from_strings(str(raw["G_str"]), str(raw["omega_str"]))
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
    out = out_flag or job.get("out")
    if not out:
        raise SchemaError("no output directory (use --out or the 'out' field)")
    _require(isinstance(out, str), f"out must be a directory name, got {out!r}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    grid_diagnostics(grid)
    report = {"mode": "solve", "version": __version__,
              "weierstrass": {"G": str(wd.G), "omega": str(wd.omega)},
              "summary": _grid_summary(grid)}
    if gauge_test:
        twisted = solve_bjorling(data, grid_spec, wd=wd, initial_twist=GAUGE_TEST_TWIST,
                                 renormalize_det=renorm)
        both = grid.valid & twisted.valid
        dev = float(np.max(np.abs(grid.X[both] - twisted.X[both]))) if np.any(both) else None
        report["gauge_test_max_deviation"] = dev
        if dev is not None:
            print(f"gauge test: max |X - X_twisted| = {dev:.3e}")
    mesh = write_obj(out / "surface.obj", grid.X, grid.valid)
    write_csv(out / "diagnostics.csv", grid)
    save_grid(out / "grid.npz", grid, "bjorling", {"samples": data.samples,
                                                   "interval": list(data.interval)})
    report["mesh"] = mesh
    write_report(out / "report.json", report)
    print(f"solve: wrote {mesh['vertices']} vertices, {mesh['faces']} faces to {out}")
    return EXIT_OK


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
    mesh = write_obj(out / "surface.obj", grid.X, grid.valid)
    write_csv(out / "diagnostics.csv", grid)
    save_grid(out / "grid.npz", grid, "catenoid",
              {"family": spec.family, "param": spec.param})
    write_report(out / "report.json", {"mode": "catenoid", "version": __version__,
                                       "family": spec.family, "param": spec.param,
                                       "weierstrass": {"G": str(wd.G), "omega": str(wd.omega)},
                                       "summary": _grid_summary(grid), "mesh": mesh})
    print(f"catenoid ({spec.family}, param {spec.param:g}): wrote {mesh['vertices']} "
          f"vertices, {mesh['faces']} faces to {out}")
    return EXIT_OK


def _closed_form_grid(entries, grid_spec: GridSpec, wd) -> SurfaceGrid:
    """Closed-form surface on the grid.  entries(u, v) gives (m11, m12, m22);
    X holds the bits herm(m11, m12, m22) would give node by node."""
    u_nodes, v_nodes = grid_spec.u_nodes(), grid_spec.v_nodes()
    n_u, n_v = grid_spec.n_u, grid_spec.n_v
    x_flat = np.empty((n_v * n_u, 2, 2), dtype=complex)
    x_flat[:, 0, 0], x_flat[:, 0, 1], x_flat[:, 1, 1] = zip(
        *[entries(u, v) for v in v_nodes.tolist() for u in u_nodes.tolist()])
    x_flat[:, 1, 0] = np.conj(x_flat[:, 0, 1])
    return SurfaceGrid(u=u_nodes, v=v_nodes,
                       F=np.full((n_v, n_u, 2, 2), np.nan, dtype=complex),
                       X=x_flat.reshape(n_v, n_u, 2, 2),
                       valid=np.ones((n_v, n_u), dtype=bool),
                       det_drift=np.full((n_v, n_u), np.nan), wd=wd)


def run_diagnose(input_path: str, out_flag=None) -> int:
    grid, kind, meta = load_grid(Path(input_path))
    out = Path(out_flag) if out_flag else Path(input_path).parent
    out.mkdir(parents=True, exist_ok=True)
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
    write_csv(out / "diagnostics.csv", grid)
    write_report(out / "report.json", {"mode": "diagnose", "version": __version__,
                                       "kind": kind, "summary": _grid_summary(grid)})
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
    mesh_base = write_obj(out / "base_chart.obj", base.X, base.valid)
    write_csv(out / "base_chart.csv", base)
    save_grid(out / "base_chart_grid.npz", base, "extend-base", {"param": c})

    ut_nodes = np.linspace(ut_range[0], ut_range[1], n_ut)
    ext = chartfree_grid_diagnostics(lambda ut, v: nonrotational_extension(c, ut, v),
                                     ut_nodes, base_grid_spec.v_nodes())
    mesh_ext = write_obj(out / "extension_chart.obj", ext.X, ext.valid)
    write_csv(out / "extension_chart.csv", ext)
    save_grid(out / "extension_chart_grid.npz", ext, "extend-extension", {"param": c})

    circle = np.array([lightlike_circle(c, v) for v in base_grid_spec.v_nodes().tolist()])
    write_polyline_obj(out / "lightlike_circle.obj", circle)

    write_report(out / "report.json", {
        "mode": "extend", "version": __version__, "param": c,
        "base_chart": {"mesh": mesh_base, "summary": _grid_summary(base)},
        "extension_chart": {"mesh": mesh_ext, "summary": _grid_summary(ext)},
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
