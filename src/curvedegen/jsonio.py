"""JSON views of models, measures, and reports.

A result type's view is its dataclass fields, each converted in turn;
the functions below state only what differs from the fields.  Exact
rationals serialize as {"num": ..., "den": ...}, the unknown mass as the
string "unknown", numeric estimates as {"estimate": ..., "error": ...},
and non-finite floats as the strings "nan", "inf" and "-inf", so every
output is strict JSON.  ``dumps`` sorts keys, so equal objects
always produce identical bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .bundles import BundleDescriptor
from .limits import DimensionSummary
from .measures import (CCMeasure, ComponentMeasure, Estimate, FiberMeasure,
                       HybMeasure, Unknown)
from .model import DualGraphModel, ValidationReport
from .reduction import DominationMap, NodeCollapse, Skeleton, SmoothCollapse, StableDualGraph

__all__ = ["to_jsonable", "dumps",
           "model_to_json", "report_to_json", "graph_to_json",
           "skeleton_to_json", "map_to_json", "measure_to_json",
           "summary_to_json"]


def to_jsonable(value):
    """Recursively convert masses, points, dataclasses and containers to
    JSON values."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, Unknown):
        return "unknown"
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "nan", "inf" or "-inf"
    if isinstance(value, Estimate):
        return {"estimate": to_jsonable(value.value), "error": to_jsonable(value.error)}
    if isinstance(value, BundleDescriptor):
        return {**_fields(value), "degree": value.degree}
    if isinstance(value, ComponentMeasure):
        out = {"kind": value.kind, "total": to_jsonable(value.total)}
        if value.bundle is not None:
            out["bundle"] = to_jsonable(value.bundle)
        return out
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": to_jsonable(value.real), "im": to_jsonable(value.imag)}
    if is_dataclass(value):
        return _fields(value)
    return value


def _fields(value, *skip: str) -> dict:
    """The JSON view of a dataclass instance: its fields but ``skip``."""
    return {f.name: to_jsonable(getattr(value, f.name))
            for f in fields(value) if f.name not in skip}


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def model_to_json(model: DualGraphModel) -> dict:
    return {
        "m": model.params.m,
        "vertices": [{"id": c.id, "genus": c.genus, "mult": c.multiplicity}
                     for c in sorted(model.components, key=lambda c: c.id)],
        "edges": [{"id": e.id, "endpoints": list(e.endpoints),
                   "length": to_jsonable(model.edge_length(e.id))}
                  for e in sorted(model.edges, key=lambda e: e.id)],
        "marks": [{"id": mk.id, "on": mk.host, "coeff": mk.coefficient,
                   **({"group": mk.merge_group} if mk.merge_group else {})}
                  for mk in sorted(model.marks, key=lambda mk: mk.id)],
    }


def report_to_json(report: ValidationReport) -> dict:
    return {"ok": report.ok, **_fields(report)}


def graph_to_json(graph: StableDualGraph) -> dict:
    return {
        "m": graph.m,
        "vertices": [{"id": v, "genus": graph.genus[v],
                      "mark_degree": graph.mark_degree[v]}
                     for v in sorted(graph.vertices)],
        "chains": [{"id": ch.id, "endpoints": list(ch.endpoints),
                    "edges": list(ch.model_edges),
                    "interior": list(ch.interior),
                    "length": to_jsonable(ch.length)}
                   for ch in sorted(graph.chains, key=lambda ch: ch.id)],
    }


def skeleton_to_json(skeleton: Skeleton) -> dict:
    return {
        "model": model_to_json(skeleton.model),
        "is_essential_skeleton": skeleton.is_essential_skeleton,
        "edge_lengths": to_jsonable(skeleton.edge_lengths()),
        "total_length": to_jsonable(skeleton.total_length()),
    }


def map_to_json(dom: DominationMap) -> dict:
    steps = []
    for step in dom.steps:
        if isinstance(step, SmoothCollapse):
            steps.append({"type": "smooth-collapse", **_fields(step)})
        elif isinstance(step, NodeCollapse):
            steps.append({"type": "node-collapse", "component": step.component,
                          "edges": [step.edge_a, step.edge_b],
                          "merged_edge": step.merged_edge,
                          "lengths": [to_jsonable(step.length_a),
                                      to_jsonable(step.length_b)]})
        else:
            raise TypeError(f"unknown step {step!r}")
    return {"source": model_to_json(dom.source),
            "target": model_to_json(dom.target), "steps": steps}


_SPACES = {CCMeasure: "curve-complex", HybMeasure: "hybrid-skeleton",
           FiberMeasure: "limit-fiber"}


def measure_to_json(measure) -> dict:
    """The measure's fields but its model, with the space it lives on and
    its total mass."""
    space = _SPACES.get(type(measure))
    if space is None:
        raise TypeError(f"not a measure: {measure!r}")
    return {"space": space, **_fields(measure, "model"),
            "total": to_jsonable(measure.total_mass())}


def summary_to_json(summary: DimensionSummary) -> dict:
    return {**_fields(summary, "M"), "dimension": summary.M}
