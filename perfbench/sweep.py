"""Rerun the benchmark over many seeds and report the spread of every metric.

    python3 perfbench/sweep.py                   # seeds 1-10 on every workload, plus two traced runs each
    python3 perfbench/sweep.py --first-seed 11   # seeds 11-20

Every workload of BENCHMARK.json runs ten times for its run_seconds.  For
each workload and end-to-end metric it prints the median, the first and
third quartile and their distance as a share of the median (the spread the
bounds in BENCHMARK.json are held against) with the unscaled spread beside
it, the failed operations, and each run's median reading of the speed probe.
Two traced runs on the first seed give the tracing overhead and show whether
their call counts repeat.  Everything is also written to
perfbench/out/sweep-<unix time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # seeds per workload, as the spreads are defined over


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed with exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["probe_ms"] = next((float(x.split()[2]) for x in lines if x.startswith("probe_ms median")), None)
    result["notes"] = lines[:-1]
    result["raw"] = {k: float(v) for line in lines if line.startswith("raw ")
                     for k, v in zip(line.split()[1::2], line.split()[2::2])}
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = BENCH["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report: dict = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(args.first_seed, args.first_seed + RUNS)]
        entry = {"runs": runs, "metrics": {}}
        print(f"== {workload}: {RUNS} runs, wall {sum(r['wall_s'] for r in runs):.0f} s, "
              f"failed {[r['failed'] for r in runs]} of {[r['attempted'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        print("   probe_ms median per run " + " ".join(f"{r['probe_ms']:.3f}" for r in runs))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": share}
            flag = "" if name == "setup_s" or share < bounds[name] / 3 else "  <-- above a third of its bound"
            raw = [r["raw"][name] for r in runs if name in r["raw"]]
            raw_note = f"  (unscaled spread {spread(raw)[3]:.3f})" if len(raw) == len(runs) else ""
            print(f"   {name:16s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.3f}  bound {bounds[name]}{flag}{raw_note}")
        traced = [run_once(workload, args.first_seed, seconds, 1) for _ in range(2)]
        entry["trace"] = traced
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")} for t in traced]
        for t in traced:
            m = t["metrics"]
            print(f"   traced run: ops_per_s {m['trace.ops_per_s']['value']:.3f}, overhead against "
                  f"an untraced pass of equal size {m['trace.overhead_pct']['value']:.1f} %")
        print(f"   call counts of the two traced runs identical: {counts[0] == counts[1]}")
        report["workloads"][workload] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"sweep-{int(time.time())}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"written {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
