"""Steadiness check: run each workload with several seeds and report, per
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 10                   # all workloads
    python3 perfbench/steady.py --workloads nodechart --seeds 5
    python3 perfbench/steady.py --seeds 3 --trace both       # tracing overhead

Runs are made one at a time, each in a fresh process, with the command
and run length that BENCHMARK.json fixes.  Raw results go to perfbench/out/steady-<stamp>.json.
A spread above a third of its bound is flagged, as is a failed-operation
share that differs between runs of one workload.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import bootstrap

BENCH = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(bootstrap.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="*", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    raw = {}
    flagged = []
    for workload in args.workloads:
        for trace in modes:
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                res = run_once(workload, seed, trace)
                runs.append(res)
                print(f"{workload} trace={trace} seed={seed}: wall {res['wall_s']:.1f}s "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      flush=True)
            raw[f"{workload}/trace{trace}"] = runs
            shares = {r["failed"] / r["attempted"] for r in runs}
            if len(shares) != 1:
                flagged.append(f"{workload}: failed share differs between runs: {shares}")
            if not all(r["correct"] for r in runs):
                flagged.append(f"{workload}: a run reported correct=false")
            print(f"\n{workload} (trace {trace}, {len(runs)} runs)")
            print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
                  f"{'spread':>8s} {'bound':>6s}")
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(values)
                bound = bounds.get(name)
                mark = ""
                if bound is not None and spread > bound / 3:
                    mark = "  <-- above bound/3"
                    flagged.append(f"{workload}: {name} spread {spread:.3f} > {bound}/3")
                print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                      f"{'' if bound is None else bound:>6}{mark}")
            print()
        if len(modes) == 2:
            plain = statistics.median(r["metrics"]["run_cpu_s"]["value"]
                                      for r in raw[f"{workload}/trace0"])
            traced = statistics.median(r["metrics"]["trace.run_cpu_s"]["value"]
                                       for r in raw[f"{workload}/trace1"])
            print(f"{workload}: tracing overhead on the round time "
                  f"{100 * (traced / plain - 1):+.2f}% ({traced:.4g}s vs {plain:.4g}s)\n")

    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    path = bootstrap.OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"raw results: {path.relative_to(bootstrap.ROOT)}")
    for msg in flagged:
        print(f"FLAG: {msg}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
