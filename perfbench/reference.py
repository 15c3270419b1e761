"""Re-measure the reference figures quoted in README.md: the ROADMAP
baselines (single runs, as there), the size of ``src/`` and the runtime
dependencies.  About two minutes.

    python3 perfbench/reference.py
"""
from __future__ import annotations

import os
import random
import re
import statistics
import subprocess
import sys
import time

import bootstrap


IMPORT_PROBE = ("import time; t = time.perf_counter(); import curvedegen; "
                "print(time.perf_counter() - t)")
SCIPY_PROBE = ("import time, numpy; t = time.perf_counter(); import scipy.optimize; "
               "print(time.perf_counter() - t)")


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def fresh(args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, capture_output=True,
                   cwd=bootstrap.OUT)
    return time.perf_counter() - start


def main():
    threads = bootstrap.prepare()
    import numpy
    import scipy
    cd, _ = bootstrap.import_program()
    import inputs
    from workloads import _build, _write

    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, thread cap {threads}")
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((bootstrap.SRC / "curvedegen").glob("*.py")))
    deps = re.search(r"dependencies = \[(.*?)\]",
                     (bootstrap.ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                     re.S).group(1)
    print(f"src/ lines: {lines}; runtime dependencies: "
          f"{', '.join(d.strip().strip(chr(34)) for d in deps.split(',') if d.strip())}")

    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    walls, inside = [], []
    for _ in range(3):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, check=True, cwd=bootstrap.OUT)
        walls.append(time.perf_counter() - start)
        inside.append(float(out.stdout))
    scipy_opt = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True,
                               text=True, check=True, cwd=bootstrap.OUT)
    print(f"import curvedegen, median of 3: {statistics.median(inside):.3f} s "
          f"(fresh interpreter wall {statistics.median(walls):.3f} s); "
          f"scipy.optimize after numpy: {float(scipy_opt.stdout):.3f} s")

    rng = random.Random(0)
    for n in (50, 100, 200, 400):
        model = _build(cd, inputs.comb(n, rng))
        dt, _ = timed(cd.minimal_snc_model, model)
        print(f"minimal_snc_model(comb({n})): {dt:.3f} s")
    for k in (8, 9):
        a, b = _build(cd, inputs.star(k, rng)), _build(cd, inputs.star(k, rng))
        dt, same = timed(cd.is_isomorphic, a, b)
        print(f"is_isomorphic(star {k}): {dt:.3f} s -> {same}")
    a, b = _build(cd, inputs.star(10, rng)), _build(cd, inputs.star(10, rng))
    try:
        cd.is_isomorphic(a, b)
        print("is_isomorphic(star 10): returned")
    except ValueError as err:
        print(f"is_isomorphic(star 10): ValueError ({err})")

    fams = (cd.LaurentFamily.pole(2), cd.LaurentFamily.from_w_powers(2, {1: 1.0}))
    for w in (0.3 + 0.1j, 0.05):
        dt, _ = timed(cd.ns_density, fams, 1e3, w)
        print(f"ns_density at w={w}: {dt:.3f} s")
    for L in (1e2, 1e4):
        dt, _ = timed(cd.pairing_matrix, fams, L)
        print(f"pairing_matrix at L={L:g}: {dt:.3f} s")

    path = _write(bootstrap.OUT, "reference-dumbbell.cdm", inputs.dumbbell(2))
    try:
        for exp in ("pairing", "pairing-diag"):
            dt = fresh(["-m", "curvedegen", "verify", "--experiment", exp, "--model", path])
            print(f"curvedegen verify --experiment {exp}: {dt:.2f} s")
    finally:
        os.remove(path)
    dt, res = timed(cd.ns_mass_genus0, cd.generic_configuration(5), (1,) * 5, 2)
    print(f"ns_mass_genus0 on 5 points: {dt:.1f} s (mass {res.value:.6f} +- {res.error:.2g})")


if __name__ == "__main__":
    main()
