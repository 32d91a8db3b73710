"""The array-built OBJ/CSV writers against the per-node loops they replaced.

The reference writers below are the loops `cli` used before the writers
were built from whole arrays; the new writers must give the same bytes.
"""

import json
import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from lightcone import catenoids as ct
from lightcone import cli
from lightcone import lorentz as lz
from lightcone.errors import DomainError, ValidationError
from lightcone.frame import GridSpec, SurfaceGrid

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# reference: the per-node writers

def _fmt(x) -> str:
    return f"{float(x):.12g}"


def reference_write_obj(path, x_grid, valid):
    n_v, n_u = valid.shape
    index = {}
    lines = []
    for iv in range(n_v):
        for iu in range(n_u):
            if not valid[iv, iu]:
                continue
            a, b, c = lz.stereographic_project(x_grid[iv, iu])
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


def reference_write_polyline_obj(path, points):
    lines = [f"v {_fmt(a)} {_fmt(b)} {_fmt(c)}" for (a, b, c) in points]
    lines.append("l " + " ".join(str(i + 1) for i in range(len(points))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_csv(path, grid):
    rows = [",".join(cli.CSV_COLUMNS)]
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


# ---------------------------------------------------------------------------
# grids

SLOTS = cli.CSV_COLUMNS[3:]
SPECIAL = [math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf,
           0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1e300, 1e-300, 123456789012.5, 1 / 3, -2.0 ** 60, 1e16, 0.1]


def _catenoid_grid(family="hyperbolic", n_u=9, n_v=7, scale=1.0):
    spec = ct.CatenoidSpec(family, 1.5)
    lo, hi = ct.DEFAULT_INTERVALS[family]
    grid = cli._closed_form_grid(lambda u, v: ct.catenoid_entries(spec, u, v),
                                 GridSpec((lo, hi), (-1.0, 1.0), n_u, n_v),
                                 ct.classification_weierstrass(spec))
    grid.X *= scale
    return grid


def _with_holes(grid):
    """Invalid nodes: a whole row, a whole column and scattered ones, each
    holding values that would fail the projection if it were attempted."""
    valid = grid.valid
    valid[2, :] = False
    valid[:, 4] = False
    valid[0, 0] = valid[-1, -1] = valid[5, 1] = False
    grid.X[2, 3] = lz.mat2(1, 1j, 1j, 1)                    # not Hermitian
    grid.X[4, 4] = lz.vec_to_herm(lz.Vec4(-3.0, 0, 0, 0))   # t <= -1
    grid.X[0, 0] = np.nan
    return grid


def _fill_special_slots(grid, seed):
    """Every diagnostics slot gets NaN of both signs, both infinities, both
    zeros, subnormals and huge and tiny values, mixed with random floats."""
    rng = np.random.default_rng(seed)
    shape = grid.valid.shape
    for k, name in enumerate(SLOTS):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        flat = values.ravel()
        for j, special in enumerate(SPECIAL):
            flat[(j + 3 * k) % flat.size] = special
        setattr(grid, name, values)
    return grid


def _assert_writers_match(tmp_path, grid):
    ref_obj, new_obj = tmp_path / "ref.obj", tmp_path / "new.obj"
    assert cli.write_obj(new_obj, grid.X, grid.valid) == \
        reference_write_obj(ref_obj, grid.X, grid.valid)
    assert new_obj.read_bytes() == ref_obj.read_bytes()
    ref_csv, new_csv = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_write_csv(ref_csv, grid)
    cli.write_csv(new_csv, grid)
    assert new_csv.read_bytes() == ref_csv.read_bytes()


@pytest.mark.parametrize("family", ct.FAMILIES)
def test_writers_match_the_loops_on_closed_form_grids(tmp_path, family):
    grid = _catenoid_grid(family)
    cli.grid_diagnostics(grid)
    _assert_writers_match(tmp_path, grid)


def test_writers_match_the_loops_with_invalid_nodes(tmp_path):
    grid = _with_holes(_catenoid_grid())
    cli.grid_diagnostics(grid)
    _assert_writers_match(tmp_path, grid)
    text = (tmp_path / "new.obj").read_text()
    n_valid = int(np.sum(grid.valid))
    assert text.count("\nv ") + text.startswith("v ") == n_valid


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writers_match_the_loops_on_special_slot_values(tmp_path, seed):
    grid = _fill_special_slots(_with_holes(_catenoid_grid()), seed)
    grid.det_drift = grid.H[::-1].copy()
    _assert_writers_match(tmp_path, grid)
    rows = (tmp_path / "new.csv").read_text().splitlines()
    cells = {cell for row in rows[1:] for cell in row.split(",")}
    assert {"nan", "inf", "-inf", "0", "-0", "4.94065645841e-324"} <= cells


@pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e150, 1e300])
def test_writers_match_the_loops_on_huge_and_tiny_coordinates(tmp_path, scale):
    grid = _with_holes(_catenoid_grid("elliptic", scale=scale))
    grid.u = grid.u * scale
    grid.v = grid.v / scale
    _assert_writers_match(tmp_path, grid)


def test_degenerate_grids_match_the_loops(tmp_path):
    for n_v, n_u in ((1, 1), (1, 5), (5, 1), (2, 2)):
        grid = _catenoid_grid(n_u=max(n_u, 2), n_v=max(n_v, 2))
        grid = SurfaceGrid(u=grid.u[:n_u], v=grid.v[:n_v], F=grid.F[:n_v, :n_u],
                           X=grid.X[:n_v, :n_u], valid=grid.valid[:n_v, :n_u],
                           det_drift=grid.det_drift[:n_v, :n_u])
        _assert_writers_match(tmp_path, grid)
    grid.valid[:] = False  # no vertex at all
    _assert_writers_match(tmp_path, grid)
    assert (tmp_path / "new.obj").read_text() == "\n"


def test_polyline_matches_the_loop(tmp_path):
    points = np.array([ct.lightlike_circle(0.5, v) for v in np.linspace(0, 6.283, 9).tolist()])
    cli.write_polyline_obj(tmp_path / "new.obj", points)
    reference_write_polyline_obj(tmp_path / "ref.obj",
                                 [lz.stereographic_project(p) for p in points])
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_write_obj_names_a_non_hermitian_node(tmp_path):
    grid = _catenoid_grid()
    grid.X[3, 5] = lz.mat2(1, 2, 3, 1)
    with pytest.raises(ValidationError, match=r"entry m21 = \(3\+0j\) .* at node \(3, 5\)"):
        cli.write_obj(tmp_path / "s.obj", grid.X, grid.valid)
    grid.X[3, 5] = lz.mat2(1 + 1j, 0, 0, 1)
    with pytest.raises(ValidationError, match=r"entry m11 .* at node \(3, 5\)"):
        cli.write_obj(tmp_path / "s.obj", grid.X, grid.valid)
    grid.valid[3, 5] = False  # an invalid node is never projected
    cli.write_obj(tmp_path / "s.obj", grid.X, grid.valid)


def test_write_obj_names_a_node_outside_the_projection_domain(tmp_path):
    grid = _catenoid_grid()
    grid.X[6, 0] = lz.vec_to_herm(lz.Vec4(-1.5, 0.1, 0.0, 0.2))
    with pytest.raises(DomainError, match=r"t = -1.5 at node \(6, 0\)"):
        cli.write_obj(tmp_path / "s.obj", grid.X, grid.valid)


# ---------------------------------------------------------------------------
# one parser per process, a fresh parse per call

def _digest(directory):
    out = {}
    for path in sorted(Path(directory).iterdir()):
        if path.suffix == ".npz":  # zip headers carry the write time
            with zipfile.ZipFile(path) as z:
                out[path.name] = {n: z.read(n) for n in sorted(z.namelist())}
        else:
            out[path.name] = path.read_bytes()
    return out


def test_back_to_back_main_calls_match_fresh_processes(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "catenoid": {"family": "parabolic", "param": 0.5},
        "grid": {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5], "n_u": 9, "n_v": 5}}))
    runs = [("gauge", ["solve", "--input", str(job), "--gauge-test"]),
            ("plain", ["solve", "--input", str(job)]),
            ("catenoid", ["catenoid", "--family", "elliptic", "--param", "1.5",
                          "--grid", "0,6.283185307179586,-0.5,0.5,9,5"])]
    assert cli._build_parser() is cli._build_parser()
    for name, argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path / "inproc" / name)]) == cli.EXIT_OK
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for name, argv in runs:
        proc = subprocess.run([sys.executable, "-m", "lightcone.cli", *argv,
                               "--out", str(tmp_path / "fresh" / name)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    for name, _ in runs:
        assert _digest(tmp_path / "inproc" / name) == _digest(tmp_path / "fresh" / name)
    reports = [json.loads((tmp_path / "inproc" / n / "report.json").read_text())
               for n in ("gauge", "plain")]
    assert "gauge_test_max_deviation" in reports[0]
    assert "gauge_test_max_deviation" not in reports[1]
