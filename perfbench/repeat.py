"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload sweep-fine --seeds 1-10 --seconds 30 \
        [--trace 0] [--out summary.json]

Runs perfbench/run.py once per seed, one after another, each in a fresh
process, and prints per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median.  With BENCHMARK.json at the
repository root, each end-to-end spread is shown against a third of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON here")
    args = p.parse_args(argv)

    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.exists():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(bench.read_text())["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"{result['attempted']} attempted, {result['failed']} failed", flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "seeds": [r["seed"] for r in runs],
               "wall_s": summarise([r["wall_s"] for r in runs]),
               "all_correct": all(r["correct"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "metrics": {}}
    for name, entry in runs[0]["metrics"].items():
        stats = summarise([r["metrics"][name]["value"] for r in runs])
        stats["unit"] = entry["unit"]
        summary["metrics"][name] = stats
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and args.trace == 0:
            verdict = (f"bound {bound:g}, third {bound / 3:.3f}: "
                       + ("ok" if stats["spread"] < bound / 3 else "WIDE"))
        print(f"  {name:<36} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
              f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} {entry['unit']:<8} {verdict}")
    print(f"  runs all correct: {summary['all_correct']}, {summary['failed']} of "
          f"{summary['attempted']} jobs failed; wall per run median "
          f"{summary['wall_s']['median']:.1f} s, max {max(summary['wall_s']['values']):.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
