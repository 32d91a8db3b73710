"""Benchmark runner for lightcone: one process, one client, closed loop.

    python3 perfbench/run.py --workload solve-jobs --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout of it).  The runner generates the
workload's inputs from --seed, runs one job at a time through the public
library and CLI entry points until --seconds of job time have passed, checks
every job's outputs against closed forms and the acceptance tolerances
(outside the timed section), and prints one line per metric with its unit.
Timings are reported at reference pace: each is divided by the host's pace,
measured with fixed reference work of the same kind just before and just
after it (see pace.py), so that the drift of a shared host's speed cancels.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs the jobs of the
first half of the run once untraced and once with every layer's public
functions wrapped in spans (see spans.py), and reports per-layer metrics and
the tracing overhead.  Job outputs go to a temporary directory under
.perfbench/work that is removed at the end; the manifest of generated jobs and
the full result (environment, per-job records, spans) go to
.perfbench/results.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_PROBES = 11
XCHECK_EXPECTED = {"elliptic": (901, 6180, 0), "hyperbolic": (901, 10742, 831)}

END_TO_END_UNITS = {"setup_s": "s", "nodes_per_s": "nodes/s", "job_s.p50": "s",
                    "job_s.tail": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("solve-jobs", "sweep-fine", "export-roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny grids, for the self-test only")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record

def _git_commit() -> str | None:
    """HEAD from the .git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lightcone").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(threads_env) -> dict:
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256_16": _source_digest(),
        "LIGHTCONE_THREADS_before": threads_env,
        "LIGHTCONE_THREADS_cleared": True,
        "fresh_process": True,
        "pid": os.getpid(),
        "note": ("single process, one job at a time; no CPU pinning, cgroup changes "
                 "or cache dropping; any threading result is limited by the core count"),
    }


# ---------------------------------------------------------------------------
# setup time: fresh interpreters that import lightcone and generate the inputs

def _setup_probe(args, workloads) -> int:
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=_work_root()))
    try:
        workloads.generate(args.workload, args.seed, work / "inputs", tiny=args.tiny)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _work_root() -> Path:
    root = STATE / "work"
    root.mkdir(parents=True, exist_ok=True)
    return root


def _measure_setup(args, hostpace):
    """(raw seconds, start-up pace) of each fresh interpreter; the start-up
    reference runs before the first probe and after each probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    pace = hostpace.Pace(hostpace.startup_seconds, hostpace.STARTUP_REFERENCE_S)
    pace.sample()
    samples = []
    for _ in range(SETUP_PROBES):
        elapsed = hostpace.time_to_ready(cmd, cwd=ROOT)
        pace.sample()
        samples.append((elapsed, pace.around_last()))
    return samples, pace


# ---------------------------------------------------------------------------
# the closed loop

def _run_pass(workloads, jobs, out_root: Path, seconds=None, min_jobs=0, tracer=None,
              pace=None):
    """Run jobs one at a time; with seconds, cycle until that much job time
    has passed (and at least min_jobs ran), else run the list once.  With
    pace, the reference kernel runs before the first job and after each job,
    before its checks, and each record carries its job time at reference
    pace: the raw time over the mean of the two kernel samples around it."""
    records, outputs, timed = [], {}, 0.0
    source = itertools.cycle(jobs) if seconds is not None else iter(jobs)
    if pace is not None:
        pace.sample()
    for seq, job in enumerate(source):
        if seconds is not None and timed >= seconds and seq >= min_jobs:
            break
        out_dir = out_root / f"{seq:04d}-{job.id}"
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workloads.run_job(job, out_dir, outputs)
            else:
                tracer.job = f"{seq:04d}-{job.id}"
                result = tracer.call("job", workloads.run_job, job, out_dir, outputs)
        except Exception as exc:  # a crashing job is a failed job; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        timed += dt
        paced = None
        if pace is not None:
            pace.sample()
            paced = dt / pace.around_last()
        outputs[job.id] = out_dir
        if error is None:
            try:
                outcome = workloads.check_job(job, result, out_dir, outputs)
            except Exception as exc:  # unreadable or missing outputs
                outcome = workloads.Outcome(False, reason=f"check: {type(exc).__name__}: {exc}")
        else:
            outcome = workloads.Outcome(False, reason=error)
        records.append({"seq": seq, "id": job.id, "kind": job.kind, "seconds": dt,
                        "paced_s": paced, "ok": outcome.ok, "nodes": outcome.nodes,
                        "reason": outcome.reason})
    return records, [job for job, _ in zip(itertools.cycle(jobs), records)]


def _warm_up(workloads, args, work: Path):
    """Run one tiny block first so lazy imports and caches are not timed."""
    jobs = workloads.generate(args.workload, args.seed, work / "warmup-inputs", tiny=True)
    _run_pass(workloads, jobs[:workloads.block_size(args.workload)], work / "warmup")


def _tail(times):
    """(value, percentile, samples beyond) of the highest order statistic
    with at least 10 samples beyond it.  Below 21 samples that statistic
    lies under the median, so the median is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n // 2
    k = n - 11
    return ordered[k], 100.0 * k / (n - 1), n - 1 - k


def _end_to_end(records, setup, pace):
    """End-to-end metrics; every timing is at reference pace (pace.py)."""
    setup_samples, setup_pace = setup
    times = [r["paced_s"] for r in records]
    timed = sum(times)
    nodes = sum(r["nodes"] for r in records)
    tail, pct, beyond = _tail(times)
    return {
        "setup_s": statistics.median(raw / p for raw, p in setup_samples),
        "nodes_per_s": nodes / timed,
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_percentile": pct, "tail_beyond": beyond, "jobs": len(times),
        "timed_s": timed, "nodes": nodes,
        "raw": {"setup_s": statistics.median(raw for raw, _ in setup_samples),
                "nodes_per_s": nodes / sum(r["seconds"] for r in records),
                "job_s.p50": statistics.median(r["seconds"] for r in records)},
        "pace_median": pace.median(), "pace_samples": pace.samples,
        "reference_s": pace.reference_s, "setup_pace": setup_pace.median(),
        "setup_pace_samples": setup_pace.samples, "setup_reference_s": setup_pace.reference_s,
        "setup_samples": [raw for raw, _ in setup_samples]}


def _cross_check(tracing):
    """Integrator counts on fixed inputs, counted by the tracer, twice each."""
    from lightcone import bjorling, catenoids, frame
    out, repeat_ok = {}, True
    for family in XCHECK_EXPECTED:
        spec = catenoids.CatenoidSpec(family, 1.5)
        data = catenoids.catenoid_bjorling_data(spec)
        wd = bjorling.weierstrass_from_bjorling(data)
        grid = frame.GridSpec(catenoids.DEFAULT_INTERVALS[family], (-1.0, 1.0), 41, 21)
        runs = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                frame.solve_bjorling(data, grid, wd=wd)
            finally:
                tracer.uninstall()
            c = tracer.counts
            runs.append((int(c["frame.segments"]), int(c["frame.steps"]),
                         int(c["frame.rejected"])))
        repeat_ok = repeat_ok and runs[0] == runs[1]
        out[family] = {"counts": runs[0], "repeat": runs[1],
                       "expected_at_baseline": XCHECK_EXPECTED[family]}
    return out, repeat_ok


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    threads_env = os.environ.pop("LIGHTCONE_THREADS", None)
    try:
        import lightcone
        import pace as hostpace
        import spans as tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import lightcone from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(lightcone.__file__).resolve().parents:
        print(f"perfbench: lightcone was imported from {lightcone.__file__}, "
              f"not from this checkout's src/", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args, workloads)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=_work_root()))
    tempfile.tempdir = str(work)
    try:
        jobs = workloads.generate(args.workload, args.seed, work / "inputs", tiny=args.tiny)
        result = {"args": vars(args), "env": _environment(threads_env)}
        if args.trace:
            _traced(args, workloads, tracing, jobs, work, result)
        else:
            setup = _measure_setup(args, hostpace)
            _warm_up(workloads, args, work)
            hostpace.kernel_seconds()           # warm the kernel's own code paths
            pace = hostpace.Pace()
            records, _ = _run_pass(workloads, jobs, work / "run", args.seconds,
                                   workloads.block_size(args.workload), pace=pace)
            metrics, info = _end_to_end(records, setup, pace)
            result.update(records=records, metrics=metrics, info=info)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in result["records"]) + result.get("xcheck_failed", 0)
    attempted = len(result["records"]) + result.get("xcheck_attempted", 0)
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    _save(tag, jobs, result)
    _print_report(args, result, attempted, failed, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in units},
    }))
    return 0


def _traced(args, workloads, tracing, jobs, work, result):
    _warm_up(workloads, args, work)
    plain, ran = _run_pass(workloads, jobs, work / "plain", args.seconds / 2.0,
                           workloads.block_size(args.workload))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = _run_pass(workloads, ran, work / "traced", tracer=tracer)
    finally:
        tracer.uninstall()
    xcheck, repeat_ok = _cross_check(tracing)

    untraced_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    for family, entry in xcheck.items():
        for name, value in zip(("segments", "rk_steps", "rk_rejected"), entry["counts"]):
            metrics[f"frame.xcheck.{family}.{name}"] = value
    layers = tracer.layer_seconds()
    shares = {layer: secs / traced_s for layer, secs in layers.items()}
    shares["benchmark"] = 1.0 - sum(shares.values())
    result.update(records=plain + traced, metrics=metrics, xcheck=xcheck,
                  xcheck_attempted=len(xcheck), xcheck_failed=0 if repeat_ok else len(xcheck),
                  info={"untraced_s": untraced_s, "traced_s": traced_s,
                        "layer_seconds": layers, "layer_shares": shares,
                        "calls": dict(tracer.calls)},
                  spans=tracer.spans)


def _save(tag, jobs, result):
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{tag}-manifest.json").write_text(
        json.dumps([job.manifest() for job in jobs], indent=1) + "\n", encoding="utf-8")
    (out / f"{tag}-result.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")


def _print_report(args, result, attempted, failed, units):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} attempted, {failed} failed")
    for r in result["records"]:
        if not r["ok"]:
            print(f"  FAILED {r['seq']:04d}-{r['id']}: {r['reason']}")
    m, info = result["metrics"], result["info"]
    if not args.trace:
        raw = info["raw"]
        print(f"  timings at reference pace; median job pace {info['pace_median']:.4f} "
              f"(reference kernel {info['reference_s']} s, interpreter start-up "
              f"{info['setup_reference_s']} s)")
        for name, unit in units.items():
            notes = []
            if name == "setup_s":
                notes.append(f"median of {len(info['setup_samples'])} fresh interpreters, "
                             f"start-up pace {info['setup_pace']:.4f}")
            elif name == "job_s.tail":
                notes.append(f"p{info['tail_percentile']:.1f} of {info['jobs']} jobs, "
                             f"{info['tail_beyond']} beyond it")
            elif name == "nodes_per_s":
                notes.append(f"{info['nodes']} nodes in {info['timed_s']:.3f} s of job time "
                             f"at reference pace")
            if name in raw:
                notes.append(f"raw {raw[name]:.6g}")
            print(f"  {name:<14} {m[name]:>14.6g} {unit:<8} {'; '.join(notes)}")
        print(f"  {'failed_frac':<14} {failed / attempted:>14.6g} {'ratio':<8} "
              f"{failed} of {attempted} jobs")
    else:
        for name, unit in units.items():
            print(f"  {name:<36} {m[name]:>14.6g} {unit}")
        shares = " ".join(f"{k}={v:.3f}" for k, v in info["layer_shares"].items())
        print(f"  layer shares of traced job time: {shares}")
        for family, entry in result["xcheck"].items():
            status = "PASS" if tuple(entry["counts"]) == entry["expected_at_baseline"] else "DIFF"
            print(f"  xcheck {family} 41x21 segments/steps/rejected: {entry['counts']} "
                  f"repeat {entry['repeat']} expected at baseline "
                  f"{entry['expected_at_baseline']}: {status}")
    print("  env: " + json.dumps(result["env"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
