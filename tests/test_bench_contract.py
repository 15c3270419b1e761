"""The calls the committed benchmark makes into the package.

``perfbench/`` calls public functions positionally and rebinds the ones
listed in ``perfbench/spans.py`` ``TRACED`` by name, so a signature or
name change here would first show as a broken benchmark run.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedegen as cd

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
FAMILIES = (cd.LaurentFamily.pole(2), cd.LaurentFamily.from_w_powers(2, {1: 1.0}))


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in _traced()])
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_package_import_loads_every_traced_module():
    # Recorder.install reads sys.modules for each TRACED module, so a bare
    # ``import curvedegen`` must load all of them
    modules = sorted({t[0] for t in _traced()})
    code = ("import sys, curvedegen; "
            f"print([m for m in {modules!r} if m not in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(cd.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_span_hooks_read_the_section_system():
    # the hooks read n_nodes on a build and S.shape on pn_batch
    system = cd.SectionSystem(FAMILIES, 100.0)
    assert system.n_nodes == system.S.shape[0] > 0
    assert system.S.shape[1] == len(FAMILIES)


def test_positional_density_calls():
    opt = cd.OptimizerSpec(seed=7)
    w = 0.2 + 0.1j
    tau = cd.ns_density(FAMILIES, 100.0, w, None, opt)
    lone = cd.ns_density(FAMILIES[:1], 100.0, w, None, opt)
    assert tau >= lone * (1 - 1e-9) > 0
    # with one section the kernel-type and sup-type densities coincide
    pb = cd.pb_density(FAMILIES[:1], 100.0, w, None, opt)
    assert pb == pytest.approx(lone, rel=1e-9)
    # the benchmark's depth and both ends of its |w| range lie on the chart
    for w in (0.05j, 0.7):
        assert cd.ns_density(FAMILIES, 1e3, w, None, opt) > 0
        assert cd.pb_density(FAMILIES, 1e3, w, None, opt) > 0


def test_positional_genus0_call():
    points = (0.3 + 0.1j, -0.25 + 0.35j, -0.4 - 0.2j, 0.35 - 0.45j)
    res = cd.ns_mass_genus0(points, (1, 1, 1, 1), 2, None, cd.OptimizerSpec(seed=7))
    assert res.value == pytest.approx(1.0, abs=1e-3)
