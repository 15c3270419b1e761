"""One set-up of a workload in a fresh interpreter: import the program,
then build the workload's inputs.  Prints {"import_s", "generate_s"}, both
CPU seconds.

run.py starts this several times per run and reports the median as
``setup_s``, so work moved into import or input generation shows.

    python3 perfbench/probe.py --workload exact-corpus --seed 1
"""
from __future__ import annotations

import argparse
import json
import os
import shutil

import bootstrap


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bootstrap.prepare()
    cd, import_s = bootstrap.import_program()
    import workloads

    workdir = bootstrap.OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = bootstrap.cpu_seconds()
        workloads.WORKLOADS[args.workload](cd, args.seed, workdir)
        generate_s = bootstrap.cpu_seconds() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "generate_s": generate_s}))


if __name__ == "__main__":
    main()
