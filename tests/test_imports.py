"""numpy loads on first numeric use, never on the exact path, and every
public name a module lists resolves.

Each numpy check runs in a fresh interpreter, since this test process has
long since imported numpy.
"""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvedegen

SRC = Path(curvedegen.__file__).resolve().parents[1]

CHAIN = """\
model {
  m = 4;
  vertex E1 { genus = 0 };
  vertex E2 { genus = 0 };
  vertex C { genus = 2 };
  edge E1 -- E2;
  edge E2 -- C;
  mark P1 on E1 coeff 1;
  mark P2 on E1 coeff 1;
  mark P3 on E1 coeff 1
}
"""

EXACT_THEN_NUMERIC = """\
import contextlib, io, math, sys
import curvedegen as cd
from curvedegen.cli import main

source, reduced_path = sys.argv[1:]
model = cd.parse_model(open(source).read()).model
assert cd.validate(model).ok
reduced, _ = cd.minimal_snc_model(model)
cd.stable_dual_graph(reduced)
cd.pb_limit_measure(reduced)
open(reduced_path, "w").write(cd.emit_model(reduced))
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["measure", reduced_path, "--kind", "pb", "--json"]) == 0
print("numpy._core" in sys.modules)

value = cd.pseudonorm([(1.0, cd.LaurentFamily.pole(2))], 100.0)
print(math.isclose(value, 2 * math.pi * 100, rel_tol=1e-9))
"""


def _run(code, *args, flags=()):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.split()


def test_exact_path_never_loads_numpy(tmp_path):
    path = tmp_path / "chain.cdm"
    path.write_text(CHAIN)
    loaded, close = _run(EXACT_THEN_NUMERIC, str(path), str(tmp_path / "reduced.cdm"))
    assert loaded == "False"
    # the first numeric call in the same interpreter loads it and works
    assert close == "True"


def test_numpy_imported_first_is_reused():
    code = ("import numpy, curvedegen.density; "
            "print(curvedegen.density.np is numpy)")
    assert _run(code) == ["True"]


def test_missing_numpy_fails_at_import_naming_it():
    # -S leaves site-packages, and numpy with it, off the path
    code = "try:\n    import curvedegen\nexcept ImportError as err:\n    print(err.name)"
    assert _run(code, flags=("-S",)) == ["numpy"]


# __main__ runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(curvedegen.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"curvedegen.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
