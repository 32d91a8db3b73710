import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lightcone import bjorling as bj
from lightcone import catenoids as ct
from lightcone import cli
from lightcone import lorentz as lz


FORMAT1_EXTENSION = Path(__file__).parent / "data" / "format1_extension_chart_grid.npz"


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
def test_closed_form_modes_have_no_tol_flag(tmp_path, mode, capsys):
    assert cli.main([mode, "--out", str(tmp_path), "--tol", "1e-3"]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: unrecognized arguments: --tol 1e-3\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["bogus"], "argument mode: invalid choice: 'bogus'"),
    ([], "the following arguments are required: mode"),
    (["check", "--input", "job.json", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_errors_exit_4_with_one_line(argv, message, capsys):
    # a usage error is an input error (4), not a validation failure (2)
    assert cli.main(argv) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert (out.startswith("usage: lightcone") if flag == "--help"
            else out == f"{cli.__version__}\n")


def test_long_flat_sum_solves(tmp_path):
    # 250 terms in one sum nest 250 binary nodes deep
    job = {
        "bjorling": {
            "gamma": {"m11": " + ".join(["0.004*u^2"] * 250), "m12": "u",
                      "m21": "u", "m22": "1"},
            "tangent": {"m11": "0.5*u^2", "m12": "0.5*u + i",
                        "m21": "0.5*u - i", "m22": "0.5"},
            "interval": [0.5, 2.0],
        },
        "grid": {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5], "n_u": 5, "n_v": 3},
    }
    out = tmp_path / "out"
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["max_boundary_curve_residual"] <= 1e-8


_NOT_FINITE = [math.nan, math.inf, -math.inf, True, "1.5", [1.5]]


def _assert_one_line_schema_error(capsys, field):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_catenoid_param_must_be_finite(tmp_path, capsys, bad):
    job = {"catenoid": {"family": "elliptic", "param": bad}}
    rc = cli.main(["catenoid", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "catenoid.param")


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_extend_param_must_be_finite(tmp_path, capsys, bad):
    job = {"extend": {"param": bad}}
    rc = cli.main(["extend", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "extend.param")


@pytest.mark.parametrize("bad", _NOT_FINITE + ["ab"])
def test_bjorling_interval_must_be_finite(tmp_path, capsys, bad):
    job = json.loads(json.dumps(REJECTED_PARABOLIC))
    job["bjorling"]["interval"] = bad if bad == "ab" else [0.5, bad]
    assert cli.main(["check", "--input", _write_job(tmp_path / "job.json", job)]) \
        == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "bjorling.interval")


@pytest.mark.parametrize("key", ["u_range", "v_range"])
@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_grid_ranges_must_be_finite(tmp_path, capsys, key, bad):
    grid = {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5], "n_u": 5, "n_v": 3}
    grid[key] = [-0.5, bad]
    job = {"catenoid": {"family": "parabolic", "param": 0.5}, "grid": grid}
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, f"grid.{key}")


def test_extend_utilde_range_must_be_finite(tmp_path, capsys):
    job = {"extend": {"param": 0.5, "utilde_range": [-1.0, math.nan]}}
    rc = cli.main(["extend", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "extend.utilde_range")


_NOT_INTEGER = [True, False, 5.0, "5", "x", None, [5]]
_CATENOID_SOLVE = {"catenoid": {"family": "parabolic", "param": 0.5},
                   "grid": {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5], "n_u": 5, "n_v": 3}}


@pytest.mark.parametrize("key", ["n_u", "n_v"])
@pytest.mark.parametrize("bad", _NOT_INTEGER + [1, cli.MAX_NODES + 1])
def test_grid_counts_must_be_bounded_integers(tmp_path, capsys, key, bad):
    job = json.loads(json.dumps(_CATENOID_SOLVE))
    job["grid"][key] = bad
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, f"grid.{key}")


def test_grid_node_count_is_capped(tmp_path, capsys):
    # each count is in range; the product is not, and nothing is allocated
    job = {"catenoid": {"family": "elliptic", "param": 1.5},
           "grid": {"u_range": [0.0, 1.0], "v_range": [-1.0, 1.0],
                    "n_u": cli.MAX_NODES, "n_v": 2}}
    rc = cli.main(["catenoid", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, f"at most {cli.MAX_NODES}")


@pytest.mark.parametrize("bad", _NOT_INTEGER + [5, cli.MAX_NODES + 1])
def test_bjorling_samples_must_be_a_bounded_integer(tmp_path, capsys, bad):
    job = json.loads(json.dumps(REJECTED_PARABOLIC))
    job["bjorling"]["samples"] = bad
    assert cli.main(["check", "--input", _write_job(tmp_path / "job.json", job)]) \
        == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "bjorling.samples")


@pytest.mark.parametrize("bad", _NOT_INTEGER + [1, cli.MAX_NODES + 1])
def test_extend_n_utilde_must_be_a_bounded_integer(tmp_path, capsys, bad):
    job = {"extend": {"param": 0.5, "n_utilde": bad}}
    rc = cli.main(["extend", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "extend.n_utilde")


def test_extension_node_count_is_capped(tmp_path, capsys):
    # n_utilde times the 33 default v nodes exceeds the cap
    job = {"extend": {"param": 0.5, "n_utilde": cli.MAX_NODES // 32}}
    rc = cli.main(["extend", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "extension grid")


_NOT_BOOL = ["no", "false", 0, 1, None, [True]]


@pytest.mark.parametrize("key", ["renormalize_det", "gauge_test"])
@pytest.mark.parametrize("bad", _NOT_BOOL)
def test_solve_flags_must_be_booleans(tmp_path, capsys, key, bad):
    job = dict(_CATENOID_SOLVE, **{key: bad})
    rc = cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, key)


@pytest.mark.parametrize("mode", ["check", "solve", "catenoid"])
@pytest.mark.parametrize("bad", _NOT_BOOL)
def test_flip_tangent_sign_must_be_a_boolean(tmp_path, capsys, mode, bad):
    job = json.loads(json.dumps(_CATENOID_SOLVE))
    job["catenoid"]["flip_tangent_sign"] = bad
    argv = [mode, "--input", _write_job(tmp_path / "job.json", job)]
    if mode != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "catenoid.flip_tangent_sign")


def test_boolean_fields_still_take_booleans(tmp_path):
    job = json.loads(json.dumps(_CATENOID_SOLVE))
    job["catenoid"]["flip_tangent_sign"] = True
    assert cli.main(["check", "--input", _write_job(tmp_path / "flip.json", job)]) \
        == cli.EXIT_VALIDATION
    job = dict(_CATENOID_SOLVE, renormalize_det=False, gauge_test=True)
    out = tmp_path / "out"
    assert cli.main(["solve", "--input", _write_job(tmp_path / "job.json", job),
                     "--out", str(out)]) == cli.EXIT_OK
    assert "gauge_test_max_deviation" in json.loads((out / "report.json").read_text())


_PARABOLIC_BJORLING = {
    "bjorling": {
        "gamma": {"m11": "u^2", "m12": "u", "m21": "u", "m22": "1"},
        "tangent": {"m11": "0.5*u^2", "m12": "0.5*u + i", "m21": "0.5*u - i", "m22": "0.5"},
        "interval": [0.5, 2.0],
    },
    "grid": {"u_range": [0.5, 2.0], "v_range": [-0.5, 0.5], "n_u": 5, "n_v": 3},
}


@pytest.mark.parametrize("catenoid, field", [
    ({"family": "bogus"}, "catenoid block needs a param"),
    ({"family": "bogus", "param": 1.5}, "unknown family 'bogus'"),
    (5, "catenoid block must be an object")])
def test_solve_validates_a_catenoid_block_beside_a_bjorling_block(tmp_path, capsys,
                                                                  catenoid, field):
    # the catenoid block only names the default grid here, but must be valid
    job = dict(_PARABOLIC_BJORLING, catenoid=catenoid)
    path = _write_job(tmp_path / "job.json", job)
    assert cli.main(["check", "--input", path]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["solve", "--input", path, "--out", str(tmp_path / "out")]) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, field)


def _rewrite_npz(src, dst, **members):
    with np.load(src) as npz:
        arrays = dict(npz.items())
    arrays.update(members)
    np.savez(dst, **arrays)
    return str(dst)


@pytest.fixture(scope="module")
def tiny_grids(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    assert cli.main(["catenoid", "--family", "parabolic", "--out", str(root / "cat"),
                     "--grid", "0.5,2,-0.5,0.5,4,3"]) == cli.EXIT_OK
    assert cli.main(["extend", "--param", "0.5", "--out", str(root / "ext"),
                     "--grid=-0.5,0.5,0,1,3,2"]) == cli.EXIT_OK
    # a solved grid carries a frame, so its file has F and det_drift
    job = _write_job(root / "solve.json", _CATENOID_SOLVE)
    assert cli.main(["solve", "--input", job, "--out", str(root / "sol")]) == cli.EXIT_OK
    return (root / "cat" / "grid.npz", root / "ext" / "extension_chart_grid.npz",
            root / "sol" / "grid.npz")


def test_diagnose_rejects_meta_json_that_is_not_json(tmp_path, capsys, tiny_grids):
    path = _rewrite_npz(tiny_grids[0], tmp_path / "g.npz", meta_json=np.array("{nope"))
    assert cli.main(["diagnose", "--input", path]) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "meta_json is not JSON")
    path = _rewrite_npz(tiny_grids[0], tmp_path / "h.npz", meta_json=np.array("[1, 2]"))
    assert cli.main(["diagnose", "--input", path]) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "meta_json must be a JSON object")


@pytest.mark.parametrize("meta", ["{}", '{"param": NaN}', '{"param": "0.5"}'])
def test_diagnose_needs_a_finite_extension_param(tmp_path, capsys, tiny_grids, meta):
    # a format-2 file keeps its kind in meta_json, a format-1 file in a member
    for source, header in ((tiny_grids[1], {"format": 2, "kind": "extend-extension"}),
                           (FORMAT1_EXTENSION, {})):
        text = json.dumps(dict(json.loads(meta), **header))
        path = _rewrite_npz(source, tmp_path / "g.npz", meta_json=np.array(text))
        assert cli.main(["diagnose", "--input", path]) == cli.EXIT_IO
        _assert_one_line_schema_error(capsys, "param")


@pytest.mark.parametrize("member, cut", [("X", np.s_[:, :-1]), ("F", np.s_[:-1]),
                                         ("valid", np.s_[:, :-1]),
                                         ("det_drift", np.s_[None]),
                                         ("u", np.s_[None]), ("v", np.s_[None])])
def test_diagnose_rejects_mismatched_grid_shapes(tmp_path, capsys, tiny_grids, member, cut):
    # only a grid with a frame stores F and det_drift
    source = tiny_grids[2] if member in ("F", "det_drift") else tiny_grids[0]
    with np.load(source) as npz:
        bad = npz[member][cut]
    path = _rewrite_npz(source, tmp_path / "g.npz", **{member: bad})
    assert cli.main(["diagnose", "--input", path]) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "grid file")


def test_diagnose_rejects_a_file_that_is_not_an_npz_archive(tmp_path, capsys):
    np.save(tmp_path / "plain.npy", np.zeros(3))
    assert cli.main(["diagnose", "--input", str(tmp_path / "plain.npy")]) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, "not an .npz archive")


def test_thousand_term_sum_checks_solves_and_diagnoses(tmp_path):
    # gamma.m11 = 1 as a flat sum of 1000 terms: admissible, far deeper than
    # Python's recursion limit once differentiated and extracted
    job = {"bjorling": {
        "gamma": {"m11": "1" + "+0.001*u-0.001*u" * 500, "m12": "exp(2*i*u)",
                  "m21": "exp(-2*i*u)", "m22": "1"},
        "tangent": {"m11": "-0.5", "m12": "1.5*exp(2*i*u)", "m21": "1.5*exp(-2*i*u)",
                    "m22": "3.5"},
        "interval": [0.0, 6.283185307179586]},
        "grid": {"u_range": [0.0, 1.0], "v_range": [-0.5, 0.5], "n_u": 9, "n_v": 5}}
    path = _write_job(tmp_path / "job.json", job)
    assert cli.main(["check", "--input", path]) == cli.EXIT_OK
    out = tmp_path / "out"
    assert cli.main(["solve", "--input", path, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["valid_nodes"] == 45
    assert report["summary"]["max_boundary_curve_residual"] <= 1e-8
    redo = tmp_path / "redo"
    assert cli.main(["diagnose", "--input", str(out / "grid.npz"),
                     "--out", str(redo)]) == cli.EXIT_OK
    assert (out / "diagnostics.csv").read_bytes() == (redo / "diagnostics.csv").read_bytes()


@pytest.mark.parametrize("member, bad", [("u", np.array(["a", "b", "c", "d"])),
                                         ("valid", np.zeros((3, 4))),
                                         ("X", np.zeros((3, 4, 2, 2), dtype="U1"))])
def test_diagnose_rejects_grid_arrays_of_the_wrong_kind(tmp_path, capsys, tiny_grids,
                                                        member, bad):
    path = _rewrite_npz(tiny_grids[0], tmp_path / "g.npz", **{member: bad})
    assert cli.main(["diagnose", "--input", path]) == cli.EXIT_IO
    _assert_one_line_schema_error(capsys, f"grid file: {member} is")


def _seam_repro(samples):
    """The README elliptic job with each entry of L times 1 + eps prod(u - u_k)
    over the check's Chebyshev-Lobatto nodes, eps making the factor deviate by
    up to 1e-2: every sampled residual of the checks is round-off, while the
    seam of the solved surface misses the tangent field."""
    interval = (0.0, 2 * math.pi)
    nodes = bj.chebyshev_nodes(*interval, samples)
    dense = np.linspace(*interval, 20001)
    eps = 1e-2 / float(np.max(np.abs(np.prod(dense[:, None] - nodes[None, :], axis=1))))
    factor = f"(1 + {eps!r}" + "".join(f"*(u - {x!r})" for x in nodes.tolist()) + ")"
    tangent = {key: f"({text})*{factor}" for key, text in
               {"m11": "-0.5", "m12": "1.5*exp(2*i*u)", "m21": "1.5*exp(-2*i*u)",
                "m22": "3.5"}.items()}
    return {"bjorling": {"gamma": {"m11": "1", "m12": "exp(2*i*u)", "m21": "exp(-2*i*u)",
                                   "m22": "1"},
                         "tangent": tangent, "interval": list(interval), "samples": samples},
            "grid": {"u_range": list(interval), "v_range": [-0.2, 0.2], "n_u": 21, "n_v": 3}}


@pytest.mark.parametrize("samples", [9, 33])
def test_solve_gates_on_its_seam_residuals(tmp_path, capsys, samples):
    path = _write_job(tmp_path / "job.json", _seam_repro(samples))
    assert cli.main(["check", "--input", path]) == cli.EXIT_OK  # the checks cannot see it
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["solve", "--input", path, "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.match(r"validation error: boundary (curve|tangent) residual exceeds "
                    r"1e-0[86] \* \(1 \+ max\|(gamma|L)\|\)", err), err
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_closed_form_overflow_exits_3_with_one_line(tmp_path, capsys):
    rc = cli.main(["catenoid", "--family", "elliptic", "--param", "1000",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: closed form is not finite at node")
    assert err.count("\n") == 1


FORMAT1 = {name: Path(__file__).parent / "data" / f"format1_{name}_grid.npz"
           for name in ("catenoid", "solved", "extension_chart")}


@pytest.mark.parametrize("name", sorted(FORMAT1))
def test_format1_files_load_and_diagnose_like_their_format2_round_trip(tmp_path, name):
    # the files were written by save_grid's format 1, before format 2
    grid, kind, meta = cli.load_grid(FORMAT1[name])
    strings = None if grid.wd is None else {"G": str(grid.wd.G), "omega": str(grid.wd.omega)}
    cli.save_grid(tmp_path / "grid.npz", grid, kind, meta, strings)
    again, kind2, meta2 = cli.load_grid(tmp_path / "grid.npz")
    assert (kind2, meta2) == (kind, meta)
    for key in ("u", "v", "X", "valid", "F", "det_drift"):
        assert getattr(again, key).tobytes() == getattr(grid, key).tobytes(), key
    assert (again.wd is None) == (grid.wd is None)
    if grid.wd is not None:
        assert (str(again.wd.G), str(again.wd.omega)) == (strings["G"], strings["omega"])
    with np.load(tmp_path / "grid.npz") as npz:
        members = set(npz.files)
        header = json.loads(str(npz["meta_json"]))
    frame = {"F", "det_drift"} if name == "solved" else set()
    assert members == {"u", "v", "X", "valid", "meta_json"} | frame
    assert header == dict(meta, format=2, kind=kind, **(strings or {}))
    for source, out in ((FORMAT1[name], "one"), (tmp_path / "grid.npz", "two")):
        assert cli.main(["diagnose", "--input", str(source),
                         "--out", str(tmp_path / out)]) == cli.EXIT_OK
    assert (tmp_path / "one" / "diagnostics.csv").read_bytes() == \
        (tmp_path / "two" / "diagnostics.csv").read_bytes()
