"""Command-line front end: jobs in, meshes / CSV / reports out.

Jobs are single JSON documents (UTF-8) holding expression strings; see the
README for the schema and one example per mode.  Outputs per run directory:

    surface.obj       projected mesh (stereographic image of the grid)
    diagnostics.csv   one row per node, fixed column order, %.12g floats
    grid.npz          raw grid (frames, surface, validity) for `diagnose`
    report.json       worst residuals and run summary

Exit codes: 0 ok, 2 validation failure (conformality / orientability),
3 numerical failure, 4 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .bjorling import (BjorlingData, MatrixExpr, WeierstrassData,
                       check_conformality, check_orientability,
                       weierstrass_from_bjorling)
from .catenoids import (DEFAULT_PARAMS, FAMILIES, CatenoidSpec,
                        catenoid_bjorling_data, catenoid_closed_form,
                        classification_weierstrass, lightlike_circle,
                        nonrotational_closed_form, nonrotational_extension,
                        nonrotational_weierstrass_wchart)
from .diagnostics import chartfree_grid_diagnostics, grid_diagnostics
from .errors import (DataInconsistencyError, IntegrationError, LightconeError,
                     ParseError, ValidationError)
from .frame import GridSpec, SurfaceGrid, solve_bjorling
from .lorentz import mat2, stereographic_project

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
        interval = blk["interval"]
        _require(isinstance(interval, (list, tuple)) and len(interval) == 2,
                 "interval must be [u_min, u_max]")
        samples = blk.get("samples", 33)
        _require(isinstance(samples, int), "samples must be an integer")
        gamma = _matrix_from_block(blk["gamma"], "gamma")
        tangent = _matrix_from_block(blk["tangent"], "tangent")
        try:
            return BjorlingData(gamma, tangent, (float(interval[0]), float(interval[1])),
                                samples)
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
        spec = CatenoidSpec(family, float(param))
    except (ValidationError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    return spec, bool(blk.get("flip_tangent_sign", False))


def grid_from_job(job: dict, fallback=None) -> GridSpec:
    blk = job.get("grid")
    if blk is None:
        _require(fallback is not None, "job needs a 'grid' block")
        (u0, u1), (v0, v1), n_u, n_v = fallback
        return GridSpec((u0, u1), (v0, v1), n_u, n_v)
    _require(isinstance(blk, dict), "grid block must be an object")
    for key in ("u_range", "v_range", "n_u", "n_v"):
        _require(key in blk, f"grid block is missing {key!r}")
    u_range, v_range = blk["u_range"], blk["v_range"]
    for name, rng in (("u_range", u_range), ("v_range", v_range)):
        _require(isinstance(rng, (list, tuple)) and len(rng) == 2 and rng[1] > rng[0],
                 f"grid.{name} must be an increasing pair")
    n_u, n_v = blk["n_u"], blk["n_v"]
    _require(isinstance(n_u, int) and isinstance(n_v, int) and n_u >= 2 and n_v >= 2,
             "grid.n_u and grid.n_v must be integers >= 2")
    return GridSpec((float(u_range[0]), float(u_range[1])),
                    (float(v_range[0]), float(v_range[1])), n_u, n_v)


def _tolerance(value, name) -> float:
    # NaN would make every `residual > tol` comparison false and pass any data
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and math.isfinite(value) and value > 0,
             f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def tolerances_from_job(job: dict, tol_override=None):
    blk = job.get("tolerances", {})
    _require(isinstance(blk, dict), "tolerances block must be an object")
    kw = {key: _tolerance(blk[key], f"tolerances.{key}")
          for key in ("conformality", "orientability") if blk.get(key) is not None}
    if tol_override is not None:
        kw["conformality"] = _tolerance(tol_override, "--tol")
    return kw


# ---------------------------------------------------------------------------
# emission

def _fmt(x) -> str:
    return f"{float(x):.12g}"


def write_obj(path: Path, x_grid: np.ndarray, valid: np.ndarray) -> dict:
    """Triangulated stereographic mesh; invalid nodes are dropped and faces
    touching them skipped.  Quads are split counter-clockwise in (u, v)."""
    n_v, n_u = valid.shape
    index = {}
    lines = []
    for iv in range(n_v):
        for iu in range(n_u):
            if not valid[iv, iu]:
                continue
            a, b, c = stereographic_project(x_grid[iv, iu])
            index[(iv, iu)] = len(index) + 1
            lines.append(f"v {_fmt(a)} {_fmt(b)} {_fmt(c)}")
    n_faces = 0
    for iv in range(n_v - 1):
        for iu in range(n_u - 1):
            quad = [(iv, iu), (iv, iu + 1), (iv + 1, iu + 1), (iv + 1, iu)]
            if not all(q in index for q in quad):
                continue
            v00, v10, v11, v01 = (index[q] for q in quad)
            lines.append(f"f {v00} {v10} {v11}")
            lines.append(f"f {v00} {v11} {v01}")
            n_faces += 2
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"vertices": len(index), "faces": n_faces}


def write_polyline_obj(path: Path, points) -> None:
    lines = [f"v {_fmt(a)} {_fmt(b)} {_fmt(c)}" for (a, b, c) in points]
    lines.append("l " + " ".join(str(i + 1) for i in range(len(points))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path: Path, grid: SurfaceGrid) -> None:
    rows = [",".join(CSV_COLUMNS)]
    for iv in range(grid.n_v):
        for iu in range(grid.n_u):
            rows.append(",".join((
                _fmt(grid.u[iu]), _fmt(grid.v[iv]),
                "1" if grid.valid[iv, iu] else "0",
                _fmt(grid.phi2[iv, iu]), _fmt(grid.H[iv, iu]), _fmt(grid.K[iv, iu]),
                _fmt(grid.conformality_defect[iv, iu]),
                _fmt(grid.lightlike_residual[iv, iu]),
                _fmt(grid.gauss_residual[iv, iu]),
                _fmt(grid.second_form_imag[iv, iu]),
                _fmt(grid.det_drift[iv, iu]),
            )))
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
    try:
        raw = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read grid file {path}: {exc}") from exc
    for key in ("kind", "u", "v", "F", "X", "valid", "det_drift", "meta_json"):
        _require(key in raw, f"grid file is missing array {key!r}")
    grid = SurfaceGrid(u=raw["u"], v=raw["v"], F=raw["F"], X=raw["X"],
                       valid=raw["valid"], det_drift=raw["det_drift"])
    if "G_str" in raw and "omega_str" in raw:
        grid.wd = WeierstrassData.from_strings(str(raw["G_str"]), str(raw["omega_str"]))
    return grid, str(raw["kind"]), json.loads(str(raw["meta_json"]))


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
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_solve(job: dict, out_flag=None, gauge_test=False, renormalize_det=False,
              tol_override=None) -> int:
    out = _out_dir(job, out_flag)
    data = bjorling_from_job(job)
    tols = tolerances_from_job(job, tol_override)
    conf, orient = _run_checks(data, tols)
    if not conf.passed or orient is None or not orient.passed:
        return EXIT_VALIDATION
    wd = weierstrass_from_bjorling(data)
    fallback = DEFAULT_GRIDS[job["catenoid"]["family"]] if "catenoid" in job else None
    grid_spec = grid_from_job(job, fallback=fallback)
    renorm = renormalize_det or bool(job.get("renormalize_det", False))
    grid = solve_bjorling(data, grid_spec, wd=wd, renormalize_det=renorm)
    if not np.any(grid.valid):
        print("integration failed on the whole grid")
        return EXIT_NUMERICAL
    grid_diagnostics(grid)
    report = {"mode": "solve", "version": __version__,
              "weierstrass": {"G": str(wd.G), "omega": str(wd.omega)},
              "summary": _grid_summary(grid)}
    if gauge_test or bool(job.get("gauge_test", False)):
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
    grid = _closed_form_grid(lambda u, v: catenoid_closed_form(spec, u, v), grid_spec, wd)
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


def _closed_form_grid(surface, grid_spec: GridSpec, wd) -> SurfaceGrid:
    u_nodes, v_nodes = grid_spec.u_nodes(), grid_spec.v_nodes()
    n_u, n_v = grid_spec.n_u, grid_spec.n_v
    x_grid = np.empty((n_v, n_u, 2, 2), dtype=complex)
    for iv, v in enumerate(v_nodes):
        for iu, u in enumerate(u_nodes):
            x_grid[iv, iu] = surface(float(u), float(v))
    return SurfaceGrid(u=u_nodes, v=v_nodes,
                       F=np.full((n_v, n_u, 2, 2), np.nan, dtype=complex),
                       X=x_grid, valid=np.ones((n_v, n_u), dtype=bool),
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
    c = float(blk.get("param", 0.5))
    if c == 0:
        raise SchemaError("extend parameter must be nonzero")
    base_grid_spec = grid_from_job(
        job, fallback=((math.log(0.5), math.log(2.0)), (0.0, 2.0 * math.pi), 33, 33))
    ut_range = blk.get("utilde_range", [-1.5, 1.5])
    _require(isinstance(ut_range, (list, tuple)) and len(ut_range) == 2
             and ut_range[1] > ut_range[0], "extend.utilde_range must be an increasing pair")
    n_ut = int(blk.get("n_utilde", 31))

    wd = nonrotational_weierstrass_wchart(c)
    base = _closed_form_grid(lambda u, v: nonrotational_closed_form(c, u, v),
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

    circle_pts = [stereographic_project(lightlike_circle(c, float(v)))
                  for v in base_grid_spec.v_nodes()]
    write_polyline_obj(out / "lightlike_circle.obj", circle_pts)

    write_report(out / "report.json", {
        "mode": "extend", "version": __version__, "param": c,
        "base_chart": {"mesh": mesh_base, "summary": _grid_summary(base)},
        "extension_chart": {"mesh": mesh_ext, "summary": _grid_summary(ext)},
    })
    print(f"extend (c = {c:g}): wrote both charts and the lightlike circle to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        job.setdefault("catenoid", {})
        job["catenoid"]["family"] = args.family
        if args.param is not None:
            job["catenoid"]["param"] = args.param
    if args.mode == "extend" and args.param is not None:
        job.setdefault("extend", {})
        job["extend"]["param"] = args.param
    return job


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
