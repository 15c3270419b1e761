"""Span recorder for the traced run (standard library only).

Spans are recorded from the benchmark's side: ``install`` rebinds the
public functions listed in ``TRACED`` in every loaded ``curvedegen``
module to wrappers that time each call, so calls between the program's
own modules are seen as well.  No file of the program changes.  Spans are
kept in memory and written as JSON lines when the run ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("dsl", "model", "reduction", "limits", "cli", "density", "genus0")


def _count_contractions(rec, args, out):
    rec.counts["reduction.contractions"] += len(out[1].steps)


def _count_build(rec, args, out):
    rec.counts["density.section_system_builds"] += 1
    rec.counts["density.quadrature_nodes"] += args[0].n_nodes


def _count_cmacs(rec, args, out):
    # complex multiply-accumulates of S @ grid.T, computed from the shapes
    system, grid = args[0], args[1]
    rec.counts["density.pn_batch_cmacs"] += system.S.shape[0] * system.S.shape[1] * grid.shape[0]


def _counter(key):
    def hook(rec, args, out):
        rec.counts[key] += 1
    return hook


# (module, attribute, span name or None for count-only, hook after return)
TRACED = (
    ("curvedegen.dsl", "parse_model", "dsl.parse_model", None),
    ("curvedegen.dsl", "emit_model", "dsl.emit_model", None),
    ("curvedegen.model", "validate", "model.validate", None),
    ("curvedegen.model", "is_isomorphic", "model.is_isomorphic",
     _counter("model.is_isomorphic_calls")),
    ("curvedegen.reduction", "minimal_snc_model", "reduction.minimal_snc_model",
     _count_contractions),
    ("curvedegen.reduction", "stable_dual_graph", "reduction.stable_dual_graph", None),
    ("curvedegen.reduction", "blowup_smooth_point", "reduction.transport", None),
    ("curvedegen.reduction", "blowup_node", "reduction.transport", None),
    ("curvedegen.reduction", "lift_measure", "reduction.transport", None),
    ("curvedegen.reduction", "pushforward_measure", "reduction.transport", None),
    ("curvedegen.reduction", "compose_maps", "reduction.transport", None),
    ("curvedegen.limits", "dimension_summary", "limits.dimension_summary", None),
    ("curvedegen.limits", "pb_limit_measure", "limits.limit_measure", None),
    ("curvedegen.limits", "ns_limit_measure", "limits.limit_measure", None),
    ("curvedegen.limits", "pushforward_to_hyb", "limits.pushforward", None),
    ("curvedegen.limits", "pushforward_to_fiber", "limits.pushforward", None),
    ("curvedegen.limits", "large_m_limit_fixed_divisor", "limits.large_m", None),
    ("curvedegen.limits", "large_m_limit_fixed_qdivisor", "limits.large_m", None),
    ("curvedegen.density", "SectionSystem.__init__", "density.section_system", _count_build),
    ("curvedegen.density", "SectionSystem.pn_batch", "density.pn_batch", _count_cmacs),
    ("curvedegen.density", "SectionSystem.tau_normalized", "density.tau_normalized", None),
    ("curvedegen.density", "SectionSystem.pn", None, _counter("density.pn_calls")),
    ("curvedegen.density", "ns_density", "density.ns_density", None),
    ("curvedegen.density", "pairing_matrix", "density.pairing_matrix",
     _counter("density.pairing_matrix_calls")),
    ("curvedegen.density", "region_tau_mass", "density.region_tau_mass", None),
    ("curvedegen.genus0", "ns_mass_genus0", "genus0.ns_mass_genus0", None),
)


class Recorder:
    """Spans as [name, parent index, op, start, end]; counters by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, self.op, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, op=None):
        if op is not None:
            self.op = op
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name, hook):
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(self, args, out)
                return out
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def install(self):
        """Rebind every traced function wherever a curvedegen module holds it."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "curvedegen" or key.startswith("curvedegen.")]
        for mod_name, attr, name, hook in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds per span name, self seconds per layer)."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            layer = name.split(".", 1)[0]
            if layer in self_time:
                self_time[layer] += (end - start) - child[i]
        return inclusive, self_time

    def write_jsonl(self, path, t0: float):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "layer": name.split(".", 1)[0],
                    "start_ms": (start - t0) * 1e3, "dur_ms": (end - start) * 1e3,
                }) + "\n")
