"""Seeded inputs, job runners and output checks for the three workloads.

solve-jobs        `lightcone solve` in-process on job files: catenoid blocks,
                  the same data as explicit bjorling expressions, the
                  non-rotational data, and inadmissible data that must exit 2.
sweep-fine        library sweep on 161x81 grids: data, checks, extraction,
                  solve_bjorling; no diagnostics and no files.
export-roundtrip  `catenoid` and `extend` modes, then `diagnose` on every
                  grid.npz they wrote.

Parameters follow a golden-ratio sequence from a seeded start per family,
so every prefix of the job list covers each parameter range evenly and the
mix a time-bounded run completes hardly depends on the seed.  The jobs call
the library through module attributes, so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lightcone import bjorling, catenoids, cli, frame
from lightcone.catenoids import (DEFAULT_INTERVALS, CatenoidSpec, catenoid_closed_form,
                                 nonrotational_closed_form, nonrotational_extension)

WORKLOADS = ("solve-jobs", "sweep-fine", "export-roundtrip")

FAMILIES = ("elliptic", "hyperbolic", "parabolic")
PARAM_RANGES = {"elliptic": (0.5, 4.0), "hyperbolic": (0.5, 3.0), "parabolic": (0.25, 2.0)}
NONROT_RANGE = (0.25, 2.0)
GOLDEN = 0.6180339887498949

# acceptance tolerances the outputs are held to
CLOSED_FORM_TOL = 1e-6
H_TOL = 1e-5
CURVE_TOL = 1e-8
TANGENT_TOL = 1e-6

# grid sizes: (full, tiny); tiny is for the self-test only
SIZES = {
    "solve": ((41, 21), (9, 5)),
    "nonrot": ((21, 11), (7, 5)),
    "sweep": ((161, 81), (17, 9)),
    "catenoid": (None, (9, 5)),     # None: the program's default grid
    "extend": (None, (9, 9)),
}


@dataclass
class Job:
    id: str
    kind: str
    params: dict
    expect_exit: int = 0
    job_file: str | None = None
    source: str | None = None           # diagnose: id of the producing job
    source_files: tuple = ()            # diagnose: (grid.npz, csv) names in its output

    def manifest(self) -> dict:
        out = {"id": self.id, "kind": self.kind, "params": self.params,
               "expected_exit": self.expect_exit}
        if self.source:
            out["source"] = self.source
            out["grid"] = self.source_files[0]
        return out


@dataclass
class Outcome:
    ok: bool
    nodes: int = 0
    reason: str = ""


class _Sequence:
    """Golden-ratio parameter sequence per key, from a seeded start."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.start: dict[str, float] = {}
        self.count: dict[str, int] = {}

    def next(self, key: str, lo: float, hi: float) -> float:
        if key not in self.start:
            self.start[key] = self.rng.random()
            self.count[key] = 0
        k = self.count[key]
        self.count[key] = k + 1
        frac = (self.start[key] + k * GOLDEN) % 1.0
        return round(lo + (hi - lo) * frac, 6)


def _size(kind: str, tiny: bool):
    return SIZES[kind][1 if tiny else 0]


def _grid_block(u_range, v_range, size):
    n_u, n_v = size
    return {"u_range": list(u_range), "v_range": list(v_range), "n_u": n_u, "n_v": n_v}


def _num(x: float) -> str:
    return f"{x:.6f}"


def _bjorling_block(family: str, p: float) -> dict:
    """The catenoid data written out as expressions, in the README form."""
    a = _num(p)
    if family == "elliptic":
        gamma = {"m11": "1", "m12": "exp(2*i*u)", "m21": "exp(-2*i*u)", "m22": "1"}
        tangent = {"m11": _num(p - 2.0), "m12": f"{a}*exp(2*i*u)",
                   "m21": f"{a}*exp(-2*i*u)", "m22": _num(p + 2.0)}
    elif family == "hyperbolic":
        gamma = {"m11": "exp(2*u)", "m12": "1", "m21": "1", "m22": "exp(-2*u)"}
        tangent = {"m11": f"{a}*exp(2*u)", "m12": f"{a} + 2*i",
                   "m21": f"{a} - 2*i", "m22": f"{a}*exp(-2*u)"}
    else:
        gamma = {"m11": "u^2", "m12": "u", "m21": "u", "m22": "1"}
        tangent = {"m11": f"{a}*u^2", "m12": f"{a}*u + i", "m21": f"{a}*u - i", "m22": a}
    lo, hi = DEFAULT_INTERVALS[family]
    return {"gamma": gamma, "tangent": tangent, "interval": [lo, hi], "samples": 33}


def _nonrot_block(c: float) -> dict:
    cs = _num(c)
    return {"gamma": {"m11": "u^2", "m12": "u", "m21": "u", "m22": "1"},
            "tangent": {"m11": f"{cs}*u", "m12": f"{cs} + i", "m21": f"{cs} - i",
                        "m22": f"{cs}/u"},
            "interval": [0.5, 2.0], "samples": 33}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, input_dir: Path, tiny: bool = False) -> list[Job]:
    """The seeded job list; job files are written to input_dir."""
    rng = random.Random(f"{workload}:{seed}")
    seq = _Sequence(rng)
    input_dir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def add(kind, params, doc=None, **kw):
        job = Job(f"{len(jobs):03d}-{kind}", kind, params, **kw)
        if doc is not None:
            job.job_file = _write(input_dir / f"{job.id}.json", doc)
        jobs.append(job)
        return job

    if workload == "solve-jobs":
        for _ in range(8):
            block = [("solve-catenoid", f) for f in FAMILIES]
            block += [("solve-bjorling", f) for f in FAMILIES]
            block += [("solve-nonrot", None), ("solve-rejected", rng.choice(FAMILIES))]
            rng.shuffle(block)
            for kind, family in block:
                if kind == "solve-nonrot":
                    c = seq.next("nonrot", *NONROT_RANGE)
                    grid = _grid_block((0.5, 2.0), (-0.5, 0.5), _size("nonrot", tiny))
                    add(kind, {"c": c, "grid": grid},
                        {"mode": "solve", "bjorling": _nonrot_block(c), "grid": grid})
                    continue
                p = seq.next(family, *PARAM_RANGES[family])
                size = _size("solve", tiny)
                grid = _grid_block(DEFAULT_INTERVALS[family], (-1.0, 1.0), size)
                params = {"family": family, "param": p, "grid": grid}
                if kind == "solve-bjorling":
                    doc = {"mode": "solve", "bjorling": _bjorling_block(family, p),
                           "grid": grid}
                else:
                    doc = {"mode": "solve", "catenoid": {"family": family, "param": p}}
                    if kind == "solve-rejected":
                        doc["catenoid"]["flip_tangent_sign"] = True
                    if tiny:
                        doc["grid"] = grid
                add(kind, params, doc, expect_exit=2 if kind == "solve-rejected" else 0)
    elif workload == "sweep-fine":
        size = _size("sweep", tiny)
        for _ in range(22):
            order = list(FAMILIES)
            rng.shuffle(order)
            for family in order:
                p = seq.next(family, *PARAM_RANGES[family])
                add("sweep", {"family": family, "param": p,
                              "grid": _grid_block(DEFAULT_INTERVALS[family], (-1.0, 1.0),
                                                  size)})
    elif workload == "export-roundtrip":
        order: list[str] = []
        for _ in range(16):
            if not order:
                order = list(FAMILIES)
                rng.shuffle(order)
            family = order.pop()
            p = seq.next(family, *PARAM_RANGES[family])
            c = seq.next("nonrot", *NONROT_RANGE)
            cat_doc = {"mode": "catenoid", "catenoid": {"family": family, "param": p}}
            ext_doc = {"mode": "extend", "extend": {"param": c}}
            if tiny:
                cat_doc["grid"] = _grid_block(DEFAULT_INTERVALS[family], (-1.0, 1.0),
                                              _size("catenoid", tiny))
                ext_doc["grid"] = _grid_block((math.log(0.5), math.log(2.0)),
                                              (0.0, 2.0 * math.pi), _size("extend", tiny))
                ext_doc["extend"]["n_utilde"] = 7
            cat = add("catenoid", {"family": family, "param": p}, cat_doc)
            ext = add("extend", {"c": c}, ext_doc)
            add("diagnose", {"of": cat.id}, source=cat.id,
                source_files=("grid.npz", "diagnostics.csv"))
            add("diagnose", {"of": ext.id}, source=ext.id,
                source_files=("base_chart_grid.npz", "base_chart.csv"))
            add("diagnose", {"of": ext.id}, source=ext.id,
                source_files=("extension_chart_grid.npz", "extension_chart.csv"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def block_size(workload: str) -> int:
    """Jobs in one block, so that a short run still covers every job kind."""
    return {"solve-jobs": 8, "sweep-fine": 3, "export-roundtrip": 5}[workload]


# ---------------------------------------------------------------------------
# running jobs

def run_job(job: Job, out_dir: Path, outputs: dict[str, Path]):
    """Run one job; the return value is what check_job inspects."""
    if job.kind == "sweep":
        return _sweep(job)
    if job.kind == "diagnose":
        src = outputs[job.source]
        argv = ["diagnose", "--input", str(src / job.source_files[0]),
                "--out", str(out_dir)]
    else:
        mode = "solve" if job.kind.startswith("solve") else job.kind
        argv = [mode, "--input", job.job_file, "--out", str(out_dir)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def _sweep(job: Job):
    p = job.params
    spec = catenoids.CatenoidSpec(p["family"], p["param"])
    data = catenoids.catenoid_bjorling_data(spec)
    conf = bjorling.check_conformality(data)
    orient = bjorling.check_orientability(data) if conf.passed else None
    if orient is None or not orient.passed:
        return None
    wd = bjorling.weierstrass_from_bjorling(data)
    g = p["grid"]
    spec_grid = frame.GridSpec(tuple(g["u_range"]), tuple(g["v_range"]), g["n_u"], g["n_v"])
    return frame.solve_bjorling(data, spec_grid, wd=wd)


# ---------------------------------------------------------------------------
# output checks (outside the timed section)

def _closed_form_error(x_grid, u, v, surface) -> float:
    worst = 0.0
    for iv, vv in enumerate(v):
        for iu, uu in enumerate(u):
            ref = surface(float(uu), float(vv))
            worst = max(worst, float(np.max(np.abs(x_grid[iv, iu] - ref))))
    return worst


def _read_h(csv_path: Path, n_v: int, n_u: int) -> np.ndarray:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        h = [float(row["H"]) for row in csv.DictReader(fh)]
    return np.array(h).reshape(n_v, n_u)


def _interior_h_problem(h: np.ndarray, u: np.ndarray, nan_ok_u=None) -> str:
    inner = h[1:-1, 1:-1]
    bad = ~np.isfinite(inner)
    if nan_ok_u is not None:
        bad &= ~nan_ok_u(u[1:-1])[None, :]
    if np.any(bad):
        return f"{int(np.sum(bad))} interior nodes have no H"
    finite = inner[np.isfinite(inner)]
    worst = float(np.max(np.abs(finite))) if finite.size else 0.0
    if worst > H_TOL:
        return f"interior max |H| {worst:.2e} > {H_TOL:g}"
    return ""


def _check_grid_file(npz: Path, csv_path: Path, surface, nan_ok_u=None):
    """(problem, valid node count) for one written grid and its CSV."""
    with np.load(npz, allow_pickle=False) as raw:
        x_grid, valid, u, v = raw["X"], raw["valid"], raw["u"], raw["v"]
    if not np.all(valid):
        return f"{int(np.sum(~valid))} invalid nodes in {npz.name}", 0
    if surface is not None:
        err = _closed_form_error(x_grid, u, v, surface)
        if err > CLOSED_FORM_TOL:
            return f"max |X - closed form| {err:.2e} > {CLOSED_FORM_TOL:g} in {npz.name}", 0
    problem = _interior_h_problem(_read_h(csv_path, len(v), len(u)), u, nan_ok_u)
    return (f"{problem} in {csv_path.name}" if problem else ""), int(valid.size)


def _boundary_problem(curve, tangent) -> str:
    if curve is None or tangent is None or not np.isfinite(curve) or not np.isfinite(tangent):
        return "boundary residuals missing"
    if curve > CURVE_TOL:
        return f"boundary curve residual {curve:.2e} > {CURVE_TOL:g}"
    if tangent > TANGENT_TOL:
        return f"boundary tangent residual {tangent:.2e} > {TANGENT_TOL:g}"
    return ""


def _catenoid_surface(params):
    spec = CatenoidSpec(params["family"], params["param"])
    return lambda u, v: catenoid_closed_form(spec, u, v)


def check_job(job: Job, result, out_dir: Path, outputs: dict[str, Path]) -> Outcome:
    if job.kind == "sweep":
        return _check_sweep(job, result)
    rc, text = result
    if rc != job.expect_exit:
        tail = text.strip().splitlines()[-1:] or [""]
        return Outcome(False, reason=f"exit {rc}, expected {job.expect_exit}: {tail[0]}")
    if job.kind == "solve-rejected":
        if (out_dir / "grid.npz").exists():
            return Outcome(False, reason="inadmissible data produced a grid")
        return Outcome(True)
    if job.kind in ("solve-catenoid", "solve-bjorling", "solve-nonrot"):
        surface = None if job.kind == "solve-nonrot" else _catenoid_surface(job.params)
        problem, nodes = _check_grid_file(out_dir / "grid.npz", out_dir / "diagnostics.csv",
                                          surface)
        if not problem:
            summary = json.loads((out_dir / "report.json").read_text())["summary"]
            problem = _boundary_problem(summary.get("max_boundary_curve_residual"),
                                        summary.get("max_boundary_tangent_residual"))
        return Outcome(not problem, nodes if not problem else 0, problem)
    if job.kind == "catenoid":
        problem, nodes = _check_grid_file(out_dir / "grid.npz", out_dir / "diagnostics.csv",
                                          _catenoid_surface(job.params))
        return Outcome(not problem, nodes if not problem else 0, problem)
    if job.kind == "extend":
        c = job.params["c"]
        problem, base = _check_grid_file(
            out_dir / "base_chart_grid.npz", out_dir / "base_chart.csv",
            lambda u, v: nonrotational_closed_form(c, u, v))
        ext = 0
        if not problem:
            # H is undefined on the lightlike circle ut = 0 by design
            problem, ext = _check_grid_file(
                out_dir / "extension_chart_grid.npz", out_dir / "extension_chart.csv",
                lambda ut, v: nonrotational_extension(c, ut, v),
                nan_ok_u=lambda ut: np.abs(ut) < 1e-12)
        if not problem and not (out_dir / "lightlike_circle.obj").exists():
            problem = "lightlike_circle.obj missing"
        return Outcome(not problem, base + ext if not problem else 0, problem)
    if job.kind == "diagnose":
        produced = outputs[job.source] / job.source_files[1]
        rewritten = out_dir / "diagnostics.csv"
        if not filecmp.cmp(produced, rewritten, shallow=False):
            return Outcome(False, reason=f"diagnose CSV differs from {produced.name}")
        with open(rewritten, newline="", encoding="utf-8") as fh:
            nodes = sum(row["valid"] == "1" for row in csv.DictReader(fh))
        return Outcome(True, nodes)
    return Outcome(False, reason=f"unknown job kind {job.kind!r}")


def _check_sweep(job: Job, grid) -> Outcome:
    if grid is None:
        return Outcome(False, reason="admissible data was rejected")
    if not np.all(grid.valid):
        return Outcome(False, reason=f"{int(np.sum(~grid.valid))} invalid nodes")
    err = _closed_form_error(grid.X, grid.u, grid.v, _catenoid_surface(job.params))
    if err > CLOSED_FORM_TOL:
        return Outcome(False, reason=f"max |X - closed form| {err:.2e} > {CLOSED_FORM_TOL:g}")
    problem = _boundary_problem(float(np.max(grid.boundary_curve_residual)),
                                float(np.max(grid.boundary_tangent_residual)))
    return Outcome(not problem, int(grid.valid.size) if not problem else 0, problem)
