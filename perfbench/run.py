"""curvedegen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload while the next one should end within
``--seconds`` (always at least one), checks every answer against the
oracles, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a run with spans recorded) with
``--trace 1``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap
import spans
import workloads

# Set-ups per run: the run itself plus fresh-interpreter probes.
SETUP_PROBES = 4

# Every time is CPU seconds of the benchmark and its children
# (bootstrap.cpu_seconds); --seconds alone is wall time.
END_TO_END = (("setup_s", "s"), ("run_cpu_s", "s"), ("ops_per_cpu_s", "1/s"),
              ("op_p50_cpu_ms", "ms"), ("op_tail_cpu_ms", "ms"),
              ("cli_call_cpu_ms", "ms"), ("peak_rss_mb", "MB"))

# Span names whose per-round inclusive time is reported as <name>_ms.
SPAN_METRICS = (
    "dsl.parse_model", "dsl.emit_model", "model.validate", "model.is_isomorphic",
    "reduction.minimal_snc_model", "reduction.stable_dual_graph",
    "reduction.transport", "limits.dimension_summary", "limits.limit_measure",
    "limits.pushforward", "limits.large_m", "cli.fresh_call", "cli.verify_norm",
    "cli.verify_pairing", "cli.verify_pairing_diag", "cli.verify_region_mass",
    "density.section_system", "density.pn_batch", "density.tau_normalized",
    "density.ns_density", "density.pairing_matrix", "density.region_tau_mass",
    "genus0.ns_mass_genus0",
)
# Counters reported per round, with their units.
COUNT_METRICS = (
    ("model.is_isomorphic_calls", "count"), ("reduction.contractions", "count"),
    ("density.section_system_builds", "count"), ("density.quadrature_nodes", "count"),
    ("density.pn_batch_cmacs", "cmac"), ("density.pn_calls", "count"),
    ("density.pairing_matrix_calls", "count"),
)


def _probe(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bootstrap.HERE / "probe.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"perfbench: set-up probe failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it; with fewer
    than forty samples there is no such tail, and the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


def _end_to_end(setups, round_cpu, tally) -> tuple[dict, list[str]]:
    # An operation's time is the median of its repeats, which are spread
    # over the run; the median and tail are then taken over distinct
    # operations.
    per_op = [statistics.median(times) for times in tally.op_times.values()]
    tail, tail_label = _tail(per_op)
    values = {
        "setup_s": statistics.median(s["import_s"] + s["generate_s"] for s in setups),
        "run_cpu_s": statistics.median(round_cpu),
        "ops_per_cpu_s": len(per_op) / sum(per_op),
        "op_p50_cpu_ms": statistics.median(per_op) * 1e3,
        "op_tail_cpu_ms": tail * 1e3,
        "cli_call_cpu_ms": statistics.median(tally.cli_times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    repeats = sum(len(times) for times in tally.op_times.values())
    notes = [f"operations: {len(per_op)} distinct, {repeats} timed; "
             f"op_tail_cpu_ms is the {tail_label}",
             f"fresh cli calls timed: {len(tally.cli_times)}; "
             f"cli_call_cpu_ms is their median"]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, notes


def _per_layer(setups, round_cpu, recorder) -> dict:
    rounds = len(round_cpu)
    inclusive, self_time = recorder.totals()
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}_ms"] = {"value": inclusive.get(name, 0.0) * 1e3 / rounds, "unit": "ms"}
    for name, unit in COUNT_METRICS:
        out[name] = {"value": recorder.counts[name] / rounds, "unit": unit}
    out["cli.import_cpu_ms"] = {
        "value": statistics.median(s["import_s"] for s in setups) * 1e3, "unit": "ms"}
    for layer, seconds in self_time.items():
        out[f"{layer}.self_ms"] = {"value": seconds * 1e3 / rounds, "unit": "ms"}
    out["trace.run_cpu_s"] = {"value": statistics.median(round_cpu), "unit": "s"}
    out["trace.spans"] = {"value": len(recorder.spans) / rounds, "unit": "count"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = bootstrap.prepare()
    cd, import_s = bootstrap.import_program()
    setups = [_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workdir = bootstrap.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder() if args.trace else None
    try:
        start = bootstrap.cpu_seconds()
        workload = workloads.WORKLOADS[args.workload](cd, args.seed, workdir)
        setups.append({"import_s": import_s, "generate_s": bootstrap.cpu_seconds() - start})
        if recorder is not None:
            recorder.install()
        tally = workloads.Tally(recorder)
        round_cpu, round_wall = [], []
        t0 = time.perf_counter()
        while True:
            start, cpu = time.perf_counter(), bootstrap.cpu_seconds()
            workload.round(tally)
            round_cpu.append(bootstrap.cpu_seconds() - cpu)
            round_wall.append(time.perf_counter() - start)
            # Start another round only if it should end within --seconds.
            if time.perf_counter() - t0 + statistics.median(round_wall) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(round_cpu)} round(s), thread cap {threads}")
    for msg in tally.failures[:20]:
        print(f"failed: {msg}")
    for msg in tally.wrong[:20]:
        print(f"WRONG: {msg}")
    if recorder is not None:
        metrics = _per_layer(setups, round_cpu, recorder)
        path = bootstrap.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(path, t0)
        print(f"spans: {len(recorder.spans)} written to {path.relative_to(bootstrap.ROOT)}")
    else:
        metrics, notes = _end_to_end(setups, round_cpu, tally)
        for note in notes:
            print(note)
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
