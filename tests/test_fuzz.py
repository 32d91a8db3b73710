"""Random job documents, argv (well-formed and malformed) and grid files
through cli.main, in process.

Every run must end with exit 0, 2, 3 or 4, let no exception escape, and
print at most one line on stderr.  Expressions come from a fixed pool and
every grid is tiny (at most 5x5), so no drawn job starts a long
integration; counts are small valid values or invalid ones, never a grid
at the node cap.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone import cli

README_GAMMA = {"m11": "1", "m12": "exp(2*i*u)", "m21": "exp(-2*i*u)", "m22": "1"}
README_TANGENT = {"m11": "-0.5", "m12": "1.5*exp(2*i*u)", "m21": "1.5*exp(-2*i*u)",
                  "m22": "3.5"}
# equal to 1 term by term, so it can stand for gamma.m11 in admissible data
SUM_1000 = "1" + "+0.001*u-0.001*u" * 500
POOL = [*README_GAMMA.values(), *README_TANGENT.values(), "1/u", "log(u)", SUM_1000,
        "uu", "foo(u)", "exp(2*i*u", "1.5*", "(u", ""]
ENTRIES = [(block, key) for block in ("gamma", "tangent") for key in README_GAMMA]

BAD_NUMBERS = [math.nan, math.inf, True, "1", None, [1.0]]
BAD_COUNTS = [True, "3", -2, 0, 1, 3.0, None, cli.MAX_NODES + 1]
BAD_PAIRS = [[0.5, 0.0], [0.0], "0,1", [0.0, math.nan], None]

# field -> (valid values, invalid values); a drawn document breaks at most two
FIELDS = {
    "grid": ([{}], [5, "grid", {"n_u": 3}]),
    "grid.u_range": ([[0.0, 0.5], [-0.2, 0.2]], BAD_PAIRS),
    "grid.v_range": ([[-0.2, 0.2]], BAD_PAIRS),
    "grid.n_u": ([2, 3, 5], BAD_COUNTS),
    "grid.n_v": ([2, 3, 5], BAD_COUNTS),
    "bjorling.interval": ([[0.0, 6.283185307179586], [0.5, 1.5]],
                          [[1.0, 0.0], [0.0, math.inf], "x"]),
    "bjorling.samples": ([9, 33], BAD_COUNTS),
    "catenoid": ([{}], [5, "elliptic", []]),
    "catenoid.family": (["elliptic", "hyperbolic", "parabolic"], ["bogus", 5]),
    "catenoid.param": ([0.5, 1.5, 3.7], BAD_NUMBERS + [-2.0]),
    "catenoid.flip_tangent_sign": ([False, True], ["no"]),
    "extend": ([{}], [5, []]),
    "extend.param": ([0.5, -0.8], BAD_NUMBERS + [0]),
    "extend.n_utilde": ([2, 3], BAD_COUNTS),
    "extend.utilde_range": ([[-0.5, 0.5]], [[0.5, -0.5], [math.nan, 1.0]]),
    "tolerances.conformality": ([1e-9], BAD_NUMBERS + [-1.0]),
    "gauge_test": ([False, True], ["no", 1]),
    "renormalize_det": ([False, True], ["no", 1]),
    "mode": (["check", "solve", "catenoid", "extend"], [5]),
    "out": (["@tmp"], [5, "", None]),  # "@tmp" names the run's directory
}


@st.composite
def _jobs(draw):
    broken = draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=2))

    def value(field):
        valid, invalid = FIELDS[field]
        return draw(st.sampled_from(invalid if field in broken else valid))

    def block(name, keys):
        blk = value(name)
        if isinstance(blk, dict) and not blk:
            blk = {key: value(f"{name}.{key}") for key in keys}
        return blk

    doc = {"grid": block("grid", ("u_range", "v_range", "n_u", "n_v"))}
    source = draw(st.sampled_from(["bjorling", "catenoid", "both", "none"]))
    if source in ("bjorling", "both"):
        bj = {"gamma": dict(README_GAMMA), "tangent": dict(README_TANGENT),
              "interval": value("bjorling.interval"), "samples": value("bjorling.samples")}
        for (name, key), text in draw(st.dictionaries(st.sampled_from(ENTRIES),
                                                      st.sampled_from(POOL),
                                                      max_size=2)).items():
            bj[name][key] = text
        doc["bjorling"] = bj
    if source in ("catenoid", "both"):
        doc["catenoid"] = block("catenoid", ("family", "param", "flip_tangent_sign"))
    doc["extend"] = block("extend", ("param", "n_utilde", "utilde_range"))
    doc["tolerances"] = {"conformality": value("tolerances.conformality")}
    for key in ("gauge_test", "renormalize_det", "mode", "out"):
        if key in broken or draw(st.booleans()):
            doc[key] = value(key)
    return doc


_grid_flags = st.sampled_from(["0,0.5,-0.2,0.2,3,3", "0,0.5,-0.2,0.2,5,2", "1,2,3",
                               "a,b,c,d,e,f", "0,1,0,1,1,1", "0,1,0,1,3,9999999"])

# (member, replacement) edits of a stored grid; None removes the member (if
# the file has it), and a dict edits the keys of the JSON in meta_json (None
# removes a key).  The format-1 members kind, F, det_drift and G_str matter
# only to format-1 files; format 2 keeps kind, G and omega in meta_json and
# F and det_drift only for frame grids.
NPZ_EDITS = [
    [],
    [("meta_json", np.array("{not json"))],
    [("meta_json", np.array("[1]"))],
    [("meta_json", np.array("{}"))],
    [("meta_json", np.array('{"param": NaN}'))],
    [("X", "drop-column")],
    [("valid", "drop-column")],
    [("u", "2d")],
    [("F", None)],
    [("kind", np.array("surface"))],
    [("G_str", np.array("exp("))],
    [("meta_json", {"kind": None})],
    [("meta_json", {"kind": 5})],
    [("meta_json", {"G": 5})],
    [("meta_json", {"omega": None})],
    [("meta_json", {"G": "exp("})],
    [("meta_json", {"format": 3})],
    [("det_drift", None)],
    [("F", "drop-column")],
]


# pieces of malformed command lines; no --out, so no drawn argv writes files,
# and no --help or --version, which exit through argparse by design
ARGV_TOKENS = ["check", "solve", "catenoid", "extend", "diagnose", "bogus", "--input",
               "--tol", "abc", "nan", "--grid", "1,2", "--family", "elliptic", "hyperbolic",
               "--param", "x", "--gauge-test", "--bogus", "-z", "", "--"]


@st.composite
def _cases(draw):
    mode = draw(st.sampled_from(["check", "solve", "catenoid", "extend", "diagnose", "argv"]))
    case = {"mode": mode}
    if mode == "argv":
        case["argv"] = draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=5))
        return case
    if mode == "diagnose":
        case["grid"] = draw(st.sampled_from(sorted(GRID_SOURCES)))
        case["edits"] = draw(st.sampled_from(NPZ_EDITS))
        return case
    case["doc"] = draw(_jobs())
    flags = []
    if mode in ("check", "solve") and draw(st.booleans()):
        flags.append("--tol=" + draw(st.sampled_from(["1e-9", "nan", "-1", "0"])))
    if mode in ("solve", "catenoid", "extend") and draw(st.booleans()):
        flags.append("--grid=" + draw(_grid_flags))
    if mode == "solve":
        flags += [f for f in ("--gauge-test", "--renormalize-det") if draw(st.booleans())]
    if mode == "catenoid" and draw(st.booleans()):
        flags += ["--family", draw(st.sampled_from(["elliptic", "parabolic"])),
                  "--param", draw(st.sampled_from(["1.5", "nan", "-2"]))]
    if mode == "extend" and draw(st.booleans()):
        flags += ["--param", draw(st.sampled_from(["0.5", "0", "inf"]))]
    case["flags"] = flags
    return case


# grids written by this version (format 2) and format-1 files kept in tests/data
DATA = Path(__file__).parent / "data"
GRID_SOURCES = ("catenoid", "extension", "solved", "format 1 catenoid", "format 1 solved",
                "format 1 extension")


@pytest.fixture(scope="module")
def stored_grids(tmp_path_factory):
    root = tmp_path_factory.mktemp("grids")
    assert cli.main(["catenoid", "--family", "elliptic", "--out", str(root / "cat"),
                     "--grid", "0,1,-0.2,0.2,3,2"]) == cli.EXIT_OK
    ext = {"extend": {"param": 0.5, "n_utilde": 3},
           "grid": {"u_range": [-0.2, 0.2], "v_range": [0.0, 1.0], "n_u": 3, "n_v": 2}}
    (root / "ext.json").write_text(json.dumps(ext))
    assert cli.main(["extend", "--input", str(root / "ext.json"),
                     "--out", str(root / "ext")]) == cli.EXIT_OK
    (root / "sol.json").write_text(json.dumps(_ADMISSIBLE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "--input", str(root / "sol.json"),
                         "--out", str(root / "sol")]) == cli.EXIT_OK
    return {"catenoid": root / "cat" / "grid.npz",
            "extension": root / "ext" / "extension_chart_grid.npz",
            "solved": root / "sol" / "grid.npz",
            "format 1 catenoid": DATA / "format1_catenoid_grid.npz",
            "format 1 solved": DATA / "format1_solved_grid.npz",
            "format 1 extension": DATA / "format1_extension_chart_grid.npz"}


def _edited_grid(source: Path, edits, path: Path) -> str:
    with np.load(source) as npz:
        members = dict(npz.items())
    for key, value in edits:
        if value is None:
            members.pop(key, None)
        elif isinstance(value, dict):
            meta = json.loads(str(members[key]))
            meta.update(value)
            members[key] = np.array(json.dumps({k: v for k, v in meta.items() if v is not None}))
        elif key not in members:
            continue
        elif isinstance(value, str) and value == "drop-column":
            members[key] = members[key][:, :-1]
        elif isinstance(value, str) and value == "2d":
            members[key] = members[key][None, :]
        else:
            members[key] = value
    np.savez(path, **members)
    return str(path)


def _run(case, stored, tmp: Path):
    if case["mode"] == "argv":
        argv = case["argv"]
    elif case["mode"] == "diagnose":
        argv = ["diagnose", "--input",
                _edited_grid(stored[case["grid"]], case["edits"], tmp / "grid.npz"),
                "--out", str(tmp / "out")]
    else:
        doc = dict(case["doc"])
        if doc.get("out") == "@tmp":
            doc["out"] = str(tmp / "out")
        job = tmp / "job.json"
        job.write_text(json.dumps(doc))
        argv = [case["mode"], "--input", str(job), *case["flags"]]
        if case["mode"] != "check" and "out" not in doc:
            argv += ["--out", str(tmp / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


_ADMISSIBLE = {"bjorling": {"gamma": README_GAMMA, "tangent": README_TANGENT,
                            "interval": [0.0, 6.283185307179586], "samples": 9},
               "grid": {"u_range": [0.0, 0.5], "v_range": [-0.2, 0.2], "n_u": 3, "n_v": 3}}



def _nan_at_samples(block, key):
    """_ADMISSIBLE with one entry NaN for u != 0, raising nowhere (inf - inf)."""
    blk = dict(_ADMISSIBLE["bjorling"])
    blk[block] = dict(blk[block], **{key: blk[block][key] + " + u*1e300*1e300 - u*1e300*1e300"})
    return dict(_ADMISSIBLE, bjorling=blk)


@given(case=_cases())
@example(case={"mode": "solve", "flags": [], "doc": dict(_ADMISSIBLE, catenoid={"family": "bogus"})})
@example(case={"mode": "solve", "flags": [], "doc": dict(_ADMISSIBLE, catenoid=5)})
@example(case={"mode": "diagnose", "grid": "catenoid", "edits": NPZ_EDITS[1]})
@example(case={"mode": "diagnose", "grid": "extension", "edits": NPZ_EDITS[3]})
@example(case={"mode": "diagnose", "grid": "catenoid", "edits": NPZ_EDITS[5]})
@example(case={"mode": "diagnose", "grid": "catenoid", "edits": NPZ_EDITS[11]})
@example(case={"mode": "diagnose", "grid": "catenoid", "edits": NPZ_EDITS[13]})
@example(case={"mode": "diagnose", "grid": "solved", "edits": NPZ_EDITS[17]})
@example(case={"mode": "diagnose", "grid": "format 1 solved", "edits": NPZ_EDITS[8]})
@example(case={"mode": "argv", "argv": ["check", "--tol", "abc"]})
@example(case={"mode": "argv", "argv": []})
@example(case={"mode": "check", "flags": [], "doc": _nan_at_samples("tangent", "m11")})
@example(case={"mode": "solve", "flags": [], "doc": _nan_at_samples("tangent", "m11")})
@example(case={"mode": "check", "flags": [], "doc": _nan_at_samples("gamma", "m22")})
@example(case={"mode": "solve", "flags": [], "doc": _nan_at_samples("gamma", "m22")})
@settings(max_examples=40, deadline=None)
def test_every_run_ends_with_an_exit_code_and_one_line(stored_grids, case):
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _run(case, stored_grids, Path(tmp))
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_IO)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


@pytest.mark.parametrize("source, edits", [
    ("catenoid", [("meta_json", {"kind": None})]),
    ("catenoid", [("meta_json", {"kind": 5})]),
    ("catenoid", [("meta_json", {"G": 5})]),
    ("catenoid", [("meta_json", {"omega": None})]),
    ("catenoid", [("meta_json", {"format": 3})]),
    ("catenoid", [("X", "drop-column")]),
    ("extension", [("valid", "drop-column")]),
    ("solved", [("det_drift", None)]),
    ("solved", [("F", "drop-column")]),
    ("format 1 solved", [("F", None)]),
    ("format 1 catenoid", [("kind", None)]),
])
def test_corrupt_grid_files_exit_4_with_one_line(stored_grids, source, edits):
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _run({"mode": "diagnose", "grid": source, "edits": edits},
                       stored_grids, Path(tmp))
    assert rc == cli.EXIT_IO
    assert err.startswith("error: grid file") and err.count("\n") == 1, err
