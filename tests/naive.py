"""Straightforward reference implementations used as test oracles.

``naive_minimal_snc_model`` is the step-by-step contraction loop: on
every step it rescans all components for the lowest contractible id and
rebuilds the whole model.  ``brute_force_canonical_form`` enumerates every
color-respecting relabeling.  Both are slow (cubic and factorial) but
obviously correct, and the library's indexed versions must agree with
them exactly.
"""
from __future__ import annotations

import itertools

from curvedegen import (
    DominationMap,
    DualGraphModel,
    MarkedPoint,
    ModelValidationError,
    SmoothCollapse,
    require_valid,
)


def _fresh_id(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    for k in itertools.count(2):
        cand = f"{base}_{k}"
        if cand not in used:
            return cand


def _all_ids(model: DualGraphModel) -> set[str]:
    out = {c.id for c in model.components}
    out |= {e.id for e in model.edges}
    out |= {p.id for p in model.marks}
    out |= {p.merge_group for p in model.marks if p.merge_group is not None}
    return out


def _valency(model: DualGraphModel, cid: str) -> int:
    return sum(e.endpoints.count(cid) for e in model.edges)


def _mark_degree(model: DualGraphModel, cid: str) -> int:
    return sum(p.coefficient for p in model.marks if p.host == cid)


def _contractible(model: DualGraphModel, m: int, cid: str) -> bool:
    return (model.component(cid).genus == 0
            and _valency(model, cid) == 1
            and _mark_degree(model, cid) < m)


def _contract_leaf(model: DualGraphModel, cid: str):
    edge = next(e for e in model.edges if cid in e.endpoints)
    host = edge.endpoints[0] if edge.endpoints[1] == cid else edge.endpoints[1]
    location = _fresh_id(f"pt_{cid}", _all_ids(model))
    moved = tuple(p.id for p in model.marks if p.host == cid)
    marks = []
    for p in model.marks:
        if p.host == cid:
            marks.append(MarkedPoint(p.id, host, p.coefficient, location))
        else:
            marks.append(p)
    out = DualGraphModel(
        model.params,
        tuple(c for c in model.components if c.id != cid),
        tuple(e for e in model.edges if e.id != edge.id),
        tuple(marks),
    )
    return out, SmoothCollapse(cid, edge.id, host, location, moved)


def naive_minimal_snc_model(model: DualGraphModel):
    """Contract the lowest-id contractible leaf, rescanning every step."""
    require_valid(model)
    if not model.is_semistable():
        raise ModelValidationError(
            "contraction needs a semistable (multiplicity-1) model"
        )
    current = model
    steps = []
    mm = current.params.m
    while True:
        todo = sorted(
            c.id for c in current.components if _contractible(current, mm, c.id)
        )
        if not todo:
            break
        current, step = _contract_leaf(current, todo[0])
        steps.append(step)
    if len(current.components) == 1:
        only = current.components[0]
        if only.genus == 0 and _mark_degree(current, only.id) < 2 * mm:
            raise ModelValidationError(
                "contraction ended on a single rational component with "
                "total mark degree below 2m; no minimal model exists"
            )
    return current, DominationMap(model, current, tuple(steps))


def _color(model: DualGraphModel, cid: str):
    c = model.component(cid)
    groups: dict[str, list[int]] = {}
    for p in model.marks:
        if p.host == cid:
            groups.setdefault(p.merge_group if p.merge_group else p.id,
                              []).append(p.coefficient)
    shape = sorted(tuple(sorted(g)) for g in groups.values())
    return (c.genus, c.multiplicity, tuple(shape))


def relabelings(model: DualGraphModel) -> int:
    """Number of color-respecting relabelings the brute force enumerates."""
    sizes: dict[object, int] = {}
    for c in model.components:
        key = _color(model, c.id)
        sizes[key] = sizes.get(key, 0) + 1
    out = 1
    for n in sizes.values():
        for k in range(2, n + 1):
            out *= k
    return out


def brute_force_canonical_form(model: DualGraphModel):
    """Least sorted edge encoding over every color-respecting relabeling."""
    ids = sorted(c.id for c in model.components)
    colors = {cid: _color(model, cid) for cid in ids}
    classes: dict[object, list[str]] = {}
    for cid in ids:
        classes.setdefault(colors[cid], []).append(cid)
    ordered_classes = [classes[k] for k in sorted(classes.keys())]
    edge_mult: dict[tuple[str, str], int] = {}
    for e in model.edges:
        key = tuple(sorted(e.endpoints))
        edge_mult[key] = edge_mult.get(key, 0) + 1
    best = None
    for perms in itertools.product(
        *(itertools.permutations(cls) for cls in ordered_classes)
    ):
        number = {cid: n for n, cid in enumerate(itertools.chain(*perms))}
        enc = tuple(sorted(
            (min(number[a], number[b]), max(number[a], number[b]), k)
            for (a, b), k in edge_mult.items()
        ))
        if best is None or enc < best:
            best = enc
    return (model.params.m, tuple(sorted(colors.values())), best)


def brute_force_is_isomorphic(a: DualGraphModel, b: DualGraphModel) -> bool:
    if a.params.m != b.params.m:
        return False
    if (len(a.components), len(a.edges), len(a.marks)) != (
            len(b.components), len(b.edges), len(b.marks)):
        return False
    return brute_force_canonical_form(a) == brute_force_canonical_form(b)
