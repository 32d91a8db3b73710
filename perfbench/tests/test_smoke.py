"""Self-test of the benchmark at tiny sizes; it has no timing gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= workloads.block_size(workload)
    units = spans.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    report = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)",
                         report, re.M), name
    if trace:
        assert "xcheck elliptic" in report and "xcheck hyperbolic" in report
    else:
        assert re.search(r"^\s+failed_frac\s+0\s+ratio\s", report, re.M)
        manifest = ROOT / ".perfbench" / "results" / f"{workload}-seed7-trace0-manifest.json"
        entries = json.loads(manifest.read_text())
        assert all("expected_exit" in e and "params" in e for e in entries)


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_the_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 3, tmp_path / "a", tiny=True)
        b = workloads.generate(workload, 3, tmp_path / "b", tiny=True)
        c = workloads.generate(workload, 4, tmp_path / "c", tiny=True)
        assert [j.manifest() for j in a] == [j.manifest() for j in b]
        assert [j.manifest() for j in a] != [j.manifest() for j in c]


def _corrupt_x(out_dir):
    path = out_dir / "grid.npz"
    with np.load(path, allow_pickle=False) as raw:
        arrays = dict(raw)
    arrays["X"][1, 2, 0, 0] += 1e-3
    np.savez(path, **arrays)


def _corrupt_h(out_dir):
    path = out_dir / "diagnostics.csv"
    rows = path.read_text().splitlines()
    cells = rows[1 + 9 * 2 + 3].split(",")   # an interior node of the 9x5 grid
    cells[4] = "0.5"
    rows[1 + 9 * 2 + 3] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


def _corrupt_bytes(out_dir):
    with open(out_dir / "diagnostics.csv", "a") as fh:
        fh.write("\n")


@pytest.mark.parametrize("workload,kind,corrupt,reason", [
    ("solve-jobs", "solve-catenoid", _corrupt_x, "closed form"),
    ("solve-jobs", "solve-bjorling", _corrupt_h, "|H|"),
    ("export-roundtrip", "diagnose", _corrupt_bytes, "differs"),
])
def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch, workload, kind,
                                            corrupt, reason):
    jobs = workloads.generate(workload, 7, tmp_path / "inputs", tiny=True)
    first = next(i for i, j in enumerate(jobs) if j.kind == kind)
    batch = jobs[:first + 1]
    real = workloads.run_job

    def corrupting(job, out_dir, outputs):
        result = real(job, out_dir, outputs)
        if job is batch[-1]:
            corrupt(out_dir)
        return result
    monkeypatch.setattr(workloads, "run_job", corrupting)
    records, _ = run._run_pass(workloads, batch, tmp_path / "out")
    assert [r["ok"] for r in records] == [True] * first + [False]
    assert reason in records[-1]["reason"]


def test_a_crashing_job_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    jobs = workloads.generate("sweep-fine", 7, tmp_path / "inputs", tiny=True)[:3]
    real = workloads.run_job

    def crash_first(job, out_dir, outputs):
        if job is jobs[0]:
            raise RuntimeError("injected")
        return real(job, out_dir, outputs)
    monkeypatch.setattr(workloads, "run_job", crash_first)
    records, _ = run._run_pass(workloads, jobs, tmp_path / "out")
    assert [r["ok"] for r in records] == [False, True, True]
    assert "injected" in records[0]["reason"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "sweep-fine", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_each_job_is_paced_by_the_reference_samples_around_it(tmp_path):
    jobs = workloads.generate("sweep-fine", 7, tmp_path / "inputs", tiny=True)[:3]
    ticks = iter([1.0, 3.0, 1.0, 2.0])          # kernel samples, in units of the reference
    host = pace.Pace(lambda: next(ticks) * pace.KERNEL_REFERENCE_S)
    records, _ = run._run_pass(workloads, jobs, tmp_path / "out", pace=host)
    assert all(r["ok"] for r in records)
    for r, mean in zip(records, (2.0, 2.0, 1.5)):
        assert r["paced_s"] == pytest.approx(r["seconds"] / mean)
