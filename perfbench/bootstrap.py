"""Locate the program in the checkout, pin the thread count, and keep the
benchmark's clock.

The benchmark runs the program from ``src/`` beside this directory, never
from an installed copy, and caps BLAS/OpenMP pools at one thread before
numpy is first imported.
"""
from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare() -> int:
    """Cap threads and put the checkout's ``src`` first on the path.

    Exits with status 2 when the program's sources are not in the checkout.
    Returns the thread cap.
    """
    if not (SRC / "curvedegen" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # One thread: the metrics are CPU time, and a second pool thread adds
    # its spin-waits to it (pairing_matrix took 2.5-2.7 CPU s for 1.4-1.9 s
    # of wall time with two).
    threads = 1
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return threads


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children.

    The benchmark's clock.  The reference machine is a guest on a shared
    host that takes its CPUs away at times (steal time): wall time then
    measures the other tenants, CPU time only the work done.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_program():
    """Import curvedegen from the checkout; returns (module, CPU seconds)."""
    start = cpu_seconds()
    import curvedegen
    elapsed = cpu_seconds() - start
    if Path(curvedegen.__file__).resolve().parent != SRC / "curvedegen":
        print(f"perfbench: imported curvedegen from {curvedegen.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return curvedegen, elapsed
