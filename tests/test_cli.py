import json
import math

import numpy as np
import pytest

from lightcone import catenoids as ct
from lightcone import cli
from lightcone import lorentz as lz


def _read_obj(path):
    vertices, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            vertices.append([float(t) for t in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(t) for t in line.split()[1:]])
    return np.array(vertices), faces


def _write_job(path, job):
    path.write_text(json.dumps(job))
    return str(path)


REJECTED_PARABOLIC = {
    "bjorling": {
        "gamma": {"m11": "u^2", "m12": "u", "m21": "u", "m22": "1"},
        "tangent": {"m11": "0.5*u^2", "m12": "0.5*u - i",
                    "m21": "0.5*u + i", "m22": "0.5"},
        "interval": [0.5, 2.0],
        "samples": 33,
    }
}


def test_catenoid_mode_v0_ring_is_the_circle(tmp_path):
    out = tmp_path / "ell"
    rc = cli.main(["catenoid", "--family", "elliptic", "--param", "1.5",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    vertices, faces = _read_obj(out / "surface.obj")
    n_u, n_v = 41, 21
    assert len(vertices) == n_u * n_v
    iv0 = n_v // 2  # v = 0 row of the default grid
    for iu, u in enumerate(np.linspace(0, 2 * math.pi, n_u)):
        got = vertices[iv0 * n_u + iu]
        want = lz.stereographic_project(ct.circle("elliptic", float(u)))
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12


def test_check_rejected_branch_exits_2_citing_orientability(tmp_path, capsys):
    rc = cli.main(["check", "--input",
                   _write_job(tmp_path / "job.json", REJECTED_PARABOLIC)])
    assert rc == cli.EXIT_VALIDATION
    output = capsys.readouterr().out
    assert "orientability: FAIL" in output


def test_check_accepted_branch_exits_0(tmp_path):
    job = {"catenoid": {"family": "parabolic", "param": 0.5}}
    rc = cli.main(["check", "--input", _write_job(tmp_path / "job.json", job)])
    assert rc == cli.EXIT_OK


def test_solve_on_schema_invalid_json_exits_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bjorling": {"gamma": 7}}')
    rc = cli.main(["solve", "--input", str(bad), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert cli.main(["solve", "--input", str(notjson),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_IO


def test_solve_rejected_data_exits_2(tmp_path):
    job = dict(REJECTED_PARABOLIC)
    job["grid"] = {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5], "n_u": 5, "n_v": 3}
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION


def test_solve_writes_deterministic_outputs(tmp_path):
    job = {"catenoid": {"family": "parabolic", "param": 0.5},
           "grid": {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5],
                    "n_u": 9, "n_v": 5},
           "gauge_test": True}
    job_path = _write_job(tmp_path / "job.json", job)
    for name in ("a", "b"):
        rc = cli.main(["solve", "--input", job_path, "--out", str(tmp_path / name)])
        assert rc == cli.EXIT_OK
    for fname in ("surface.obj", "diagnostics.csv", "report.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["gauge_test_max_deviation"] <= 1e-9
    assert report["summary"]["max_boundary_curve_residual"] <= 1e-8


def test_solve_with_pole_drops_nodes_and_faces(tmp_path):
    # tangent field has a pole at u = 0; grid reaches across it
    job = {
        "bjorling": {
            "gamma": {"m11": "u^2", "m12": "u", "m21": "u", "m22": "1"},
            "tangent": {"m11": "0.5*u", "m12": "0.5 + i", "m21": "0.5 - i",
                        "m22": "0.5/u"},
            "interval": [0.5, 2.0],
        },
        "grid": {"u_range": [-0.25, 2.0], "v_range": [-0.2, 0.2],
                 "n_u": 10, "n_v": 3},
    }
    out = tmp_path / "out"
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    csv_lines = (out / "diagnostics.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert header == list(cli.CSV_COLUMNS)
    flags = [int(line.split(",")[2]) for line in csv_lines[1:]]
    n_valid = sum(flags)
    assert 0 < n_valid < len(flags)
    vertices, faces = _read_obj(out / "surface.obj")
    assert len(vertices) == n_valid
    for face in faces:
        assert all(1 <= idx <= n_valid for idx in face)


def test_diagnose_roundtrip(tmp_path):
    job = {"catenoid": {"family": "elliptic", "param": 1.5},
           "grid": {"u_range": [0.0, 6.283185307179586], "v_range": [-0.5, 0.5],
                    "n_u": 9, "n_v": 5}}
    first = tmp_path / "first"
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(first)])
    assert rc == cli.EXIT_OK
    second = tmp_path / "second"
    rc = cli.main(["diagnose", "--input", str(first / "grid.npz"),
                   "--out", str(second)])
    assert rc == cli.EXIT_OK
    assert (first / "diagnostics.csv").read_text() == \
        (second / "diagnostics.csv").read_text()


def test_extend_mode_emits_both_charts_and_the_circle(tmp_path):
    out = tmp_path / "ext"
    rc = cli.main(["extend", "--param", "0.5", "--out", str(out),
                   "--grid=-0.69,0.69,0,6.283,9,9"])
    assert rc == cli.EXIT_OK
    for fname in ("base_chart.obj", "base_chart.csv", "extension_chart.obj",
                  "extension_chart.csv", "lightlike_circle.obj", "report.json"):
        assert (out / fname).exists()
    vertices, _ = _read_obj(out / "lightlike_circle.obj")
    for v, vertex in zip(np.linspace(0, 6.283, 9), vertices):
        want = lz.stereographic_project(ct.lightlike_circle(0.5, float(v)))
        assert np.max(np.abs(vertex - np.array(want))) <= 1e-12
    lines = (out / "lightlike_circle.obj").read_text().splitlines()
    assert lines[-1].startswith("l ")
    report = json.loads((out / "report.json").read_text())
    assert report["extension_chart"]["summary"]["max_abs_H"] <= 1e-5
    assert report["base_chart"]["summary"]["max_abs_H"] <= 1e-5


def test_catenoid_grid_flag_and_missing_out(tmp_path):
    rc = cli.main(["catenoid", "--family", "hyperbolic", "--param", "1.5"])
    assert rc == cli.EXIT_IO  # no output directory anywhere
    out = tmp_path / "hyp"
    rc = cli.main(["catenoid", "--family", "hyperbolic", "--param", "1.5",
                   "--out", str(out), "--grid=-1,1,-1,1,7,5"])
    assert rc == cli.EXIT_OK
    vertices, _ = _read_obj(out / "surface.obj")
    assert len(vertices) == 35


def test_diagnose_extension_chart_grid(tmp_path):
    out = tmp_path / "ext"
    rc = cli.main(["extend", "--param", "0.5", "--out", str(out),
                   "--grid=-0.69,0.69,0,6.283,7,7"])
    assert rc == cli.EXIT_OK
    redo = tmp_path / "redo"
    rc = cli.main(["diagnose", "--input", str(out / "extension_chart_grid.npz"),
                   "--out", str(redo)])
    assert rc == cli.EXIT_OK
    assert (out / "extension_chart.csv").read_text() == \
        (redo / "diagnostics.csv").read_text()


def test_catenoid_family_default_param(tmp_path):
    out = tmp_path / "default"
    rc = cli.main(["catenoid", "--family", "parabolic", "--out", str(out),
                   "--grid", "0.5,2,-0.5,0.5,5,3"])
    assert rc == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["param"] == 0.5


def test_job_mode_field_is_checked(tmp_path):
    job = {"mode": "solve", "catenoid": {"family": "parabolic", "param": 0.5}}
    path = _write_job(tmp_path / "job.json", job)
    assert cli.main(["check", "--input", path]) == cli.EXIT_IO
    job["mode"] = "check"
    path = _write_job(tmp_path / "job2.json", job)
    assert cli.main(["check", "--input", path]) == cli.EXIT_OK


HYPERBOLIC_BJORLING = {
    "bjorling": {
        "gamma": {"m11": "exp(2*u)", "m12": "1", "m21": "1", "m22": "exp(-2*u)"},
        "tangent": {"m11": "1.5*exp(2*u)", "m12": "1.5 + 2*i", "m21": "1.5 - 2*i",
                    "m22": "1.5*exp(-2*u)"},
        "interval": [-1.0, 1.0],
    },
    "grid": {"u_range": [-1.0, 1.0], "v_range": [-1.0, 1.0], "n_u": 11, "n_v": 7},
}


@pytest.mark.parametrize("mode, job, produced", [
    ("catenoid", {"catenoid": {"family": "parabolic", "param": 0.5}},
     ("grid.npz", "diagnostics.csv")),
    ("extend", {"extend": {"param": 0.5}}, ("base_chart_grid.npz", "base_chart.csv")),
    ("solve", HYPERBOLIC_BJORLING, ("grid.npz", "diagnostics.csv")),
])
def test_diagnose_rewrites_the_producing_csv_byte_for_byte(tmp_path, mode, job, produced):
    # diagnose reloads G and omega from their strings; the reparsed data and
    # its derivatives must evaluate exactly as the producing mode's did
    out = tmp_path / "made"
    rc = cli.main([mode, "--input", _write_job(tmp_path / "job.json", job), "--out", str(out)])
    assert rc == cli.EXIT_OK
    redo = tmp_path / "redo"
    rc = cli.main(["diagnose", "--input", str(out / produced[0]), "--out", str(redo)])
    assert rc == cli.EXIT_OK
    assert (out / produced[1]).read_bytes() == (redo / "diagnostics.csv").read_bytes()


def test_check_with_nan_tolerance_exits_4(tmp_path, capsys):
    # NaN would make every residual comparison false and pass rejected data
    path = _write_job(tmp_path / "job.json", REJECTED_PARABOLIC)
    assert cli.main(["check", "--input", path, "--tol", "nan"]) == cli.EXIT_IO
    assert "--tol must be a finite positive number" in capsys.readouterr().err


def test_non_numeric_tolerance_exits_4(tmp_path, capsys):
    job = dict(REJECTED_PARABOLIC, tolerances={"conformality": "abc"})
    assert cli.main(["check", "--input", _write_job(tmp_path / "job.json", job)]) \
        == cli.EXIT_IO
    assert "tolerances.conformality" in capsys.readouterr().err


def test_deeply_nested_expression_exits_4(tmp_path, capsys):
    job = json.loads(json.dumps(REJECTED_PARABOLIC))
    job["bjorling"]["gamma"]["m11"] = "(" * 3000 + "u^2" + ")" * 3000
    assert cli.main(["check", "--input", _write_job(tmp_path / "job.json", job)]) \
        == cli.EXIT_IO
    assert "nests deeper than" in capsys.readouterr().err


def test_solve_takes_the_grid_flag(tmp_path):
    job = {"catenoid": {"family": "parabolic", "param": 0.5}}
    out = tmp_path / "out"
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(out), "--grid", "0.5,2,-0.5,0.5,5,3"])
    assert rc == cli.EXIT_OK
    vertices, _ = _read_obj(out / "surface.obj")
    assert len(vertices) == 15


@pytest.mark.parametrize("mode", ["catenoid", "extend"])
def test_closed_form_modes_have_no_tol_flag(tmp_path, mode):
    with pytest.raises(SystemExit) as exc:
        cli.main([mode, "--out", str(tmp_path), "--tol", "1e-3"])
    assert exc.value.code == 2  # argparse usage error
