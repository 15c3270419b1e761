"""numpy loads on first numeric use, never on the exact path, every
public name a module lists resolves, and the package's public names are
pinned.

Each numpy check runs in a fresh interpreter, since this test process has
long since imported numpy.
"""
import importlib
import os
import pkgutil
import subprocess
import sys
import types
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


PUBLIC = """
    Atom BundleDescriptor CCMeasure ChainEdge Component ComponentMeasure
    ComponentPoint CurveDegenError DimensionSummary DominationMap DualGraphModel
    Edge EdgePoint Estimate ExperimentResult FiberMeasure HybMeasure
    InternalConsistencyError LaurentFamily LiftError MarkedPoint ModelDocument
    ModelParams ModelValidationError NodeCollapse NumericalConvergenceError
    OptimizerSpec ParseError SectionSystem Skeleton SmoothCollapse
    StableDualGraph UNKNOWN Unknown ValidationReport Violation arithmetic_genus
    blowup_node blowup_smooth_point bundle_for canonical_form compose_maps
    dimension_summary emit_dot emit_model emit_stable_dot essential_skeleton
    generic_configuration h0 is_isomorphic is_minimal large_m_limit_fixed_divisor
    large_m_limit_fixed_qdivisor lift_measure make_model minimal_snc_model
    moebius_points norm_asymptotics_experiment ns_density ns_limit_measure
    ns_mass_genus0 pairing_experiments pairing_matrix parse_model pb_density
    pb_limit_measure pseudonorm pushforward_measure pushforward_to_fiber
    pushforward_to_hyb region_mass_experiment region_tau_mass require_valid
    stable_curve_ns_measure stable_dual_graph total_mark_degree validate
""".split()


def test_public_names_pinned():
    # adding or deleting a public name has to edit this list
    exported = {n: v for n, v in vars(curvedegen).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(exported) == PUBLIC
    # each is listed by the module that defines it (errors.py lists none)
    unlisted = [n for n, v in exported.items()
                if v.__module__ != "curvedegen.errors"
                and n not in sys.modules[v.__module__].__all__]
    assert unlisted == []
