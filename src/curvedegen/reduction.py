"""Model reduction, blowups, and measure transport between models.

Two models of the same family are compared through a DominationMap: an
ordered list of collapse steps leading from the more blown-up model (the
source) to the smaller one (the target).  Contraction to the minimal model
produces such a map; each blowup produces the one-step map back down.
Measures push forward along the steps and lift against them.
"""
from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import LiftError, ModelValidationError
from .measures import (
    Atom,
    CCMeasure,
    ComponentPoint,
    EdgePoint,
    mass_add,
    mass_is_zero,
    mass_sum,
    zero_descriptor,
)
from .model import (
    Component,
    DualGraphModel,
    Edge,
    MarkedPoint,
    is_inessential,
    require_valid,
)

__all__ = [
    "SmoothCollapse",
    "NodeCollapse",
    "DominationMap",
    "compose_maps",
    "minimal_snc_model",
    "is_minimal",
    "ChainEdge",
    "StableDualGraph",
    "stable_dual_graph",
    "Skeleton",
    "essential_skeleton",
    "blowup_smooth_point",
    "blowup_node",
    "pushforward_measure",
    "lift_measure",
]


# -- collapse steps ----------------------------------------------------------


@dataclass(frozen=True)
class SmoothCollapse:
    """One component and its single edge collapse to a point on the host.

    ``point`` is that point; ``image`` sends the component and the edge to
    it and fixes every other location, so ``preimage`` is the identity off
    ``point``.
    """

    component: str
    edge: str
    host: str
    location: str  # point id on the host
    moved_marks: tuple[str, ...] = ()

    @property
    def point(self) -> ComponentPoint:
        return ComponentPoint(self.host, self.location)

    def image(self, loc):
        if (isinstance(loc, ComponentPoint) and loc.component == self.component
                or isinstance(loc, EdgePoint) and loc.edge == self.edge):
            return self.point
        return loc

    def preimage(self, loc):
        return loc


@dataclass(frozen=True)
class NodeCollapse:
    """A two-edge exceptional component collapses back into one node.

    The two source edges merge into ``merged_edge``.  Positions on it run
    from the first endpoint of ``target.edge(merged_edge).endpoints``, which
    is the end of ``edge_a`` away from the component, and the collapsed
    component sits at distance ``length_a`` from it: that is ``point``.
    ``image`` sends the component to ``point`` and each piece onto its
    part of the merged edge; ``preimage`` splits the merged edge back at
    ``point``.
    """

    component: str
    edge_a: str
    length_a: Fraction
    edge_b: str
    length_b: Fraction
    merged_edge: str

    @property
    def point(self) -> EdgePoint:
        return EdgePoint(self.merged_edge, self.length_a)

    def image(self, loc):
        if isinstance(loc, ComponentPoint) and loc.component == self.component:
            return self.point
        if isinstance(loc, EdgePoint) and loc.edge == self.edge_a:
            return EdgePoint(self.merged_edge, loc.position)
        if isinstance(loc, EdgePoint) and loc.edge == self.edge_b:
            return EdgePoint(self.merged_edge, self.length_a + loc.position)
        return loc

    def preimage(self, loc):
        if not (isinstance(loc, EdgePoint) and loc.edge == self.merged_edge):
            return loc
        if loc.position < self.length_a:
            return EdgePoint(self.edge_a, loc.position)
        return EdgePoint(self.edge_b, loc.position - self.length_a)


@dataclass(frozen=True)
class DominationMap:
    """Ordered collapse steps from ``source`` (blown up) down to ``target``."""

    source: DualGraphModel
    target: DualGraphModel
    steps: tuple[object, ...]

    def component_fate(self, cid: str) -> str:
        for s in self.steps:
            if s.component == cid:
                if isinstance(s, SmoothCollapse):
                    return f"collapsed-to-point({s.host}:{s.location})"
                return f"collapsed-to-point({s.merged_edge}@{s.length_a})"
        return "kept"


def compose_maps(outer: DominationMap, inner: DominationMap) -> DominationMap:
    """Compose source->mid with mid->target into source->target."""
    if outer.target != inner.source:
        raise ValueError("maps do not chain: outer.target != inner.source")
    return DominationMap(outer.source, inner.target, outer.steps + inner.steps)


def _fresh_id(base: str, *taken) -> str:
    """``base``, else ``base_k`` for the least k >= 2: the first in none of ``taken``."""
    for k in itertools.count(1):
        cand = base if k == 1 else f"{base}_{k}"
        if not any(cand in ids for ids in taken):
            return cand


def _all_ids(model: DualGraphModel) -> set[str]:
    """Every id in use: components, edges, marks and merge-group names."""
    out = {c.id for c in model.components}
    out |= {e.id for e in model.edges}
    out |= {p.id for p in model.marks}
    out |= {p.merge_group for p in model.marks if p.merge_group is not None}
    return out


# -- contraction to the minimal model ---------------------------------------


def minimal_snc_model(model: DualGraphModel) -> tuple[DualGraphModel, DominationMap]:
    """Contract unmarked-enough rational tails until none remain.

    Repeatedly removes a genus-0, valency-1 component whose mark degree is
    below m, lowest id first; its marks land together at one point of the
    neighbor.  Returns the reduced model and the map from the input onto it.

    Contractible ids wait in a heap.  A contraction changes only its host,
    so the host is the one component re-checked after each step, and the
    reduced model is built once at the end.
    """
    require_valid(model)
    if not model.is_semistable():
        raise ModelValidationError(
            "contraction needs a semistable (multiplicity-1) model"
        )
    mm = model.params.m
    live = {c.id: {e.id: e for e in model.edges_at(c.id)} for c in model.components}
    degree = {c.id: model.mark_degree(c.id) for c in model.components}
    carried: dict[str, list[int]] = {cid: [] for cid in live}  # mark indices
    for i, p in enumerate(model.marks):
        carried[p.host].append(i)
    moved_to: dict[int, tuple[str, str]] = {}  # mark index -> (host, point id)
    # ids of the current model, for fresh point ids: components, edges and
    # marks in ``used``; marks per merge group (None: ungrouped) in ``groups``
    used = {x.id for x in model.components + model.edges + model.marks}
    groups = Counter(p.merge_group for p in model.marks)

    def contractible(cid: str) -> bool:
        return (model.component(cid).genus == 0 and len(live[cid]) == 1
                and degree[cid] < mm)

    heap = [cid for cid in live if contractible(cid)]
    heapq.heapify(heap)
    steps: list[SmoothCollapse] = []
    while heap:
        cid = heapq.heappop(heap)
        if cid not in live or not contractible(cid):
            continue
        (edge,) = live.pop(cid).values()
        host = edge.endpoints[0] if edge.endpoints[1] == cid else edge.endpoints[1]
        del live[host][edge.id]
        location = _fresh_id(f"pt_{cid}", used, groups)
        used.discard(cid)
        used.discard(edge.id)
        # everything on the leaf lands at one point of the host
        moved = sorted(carried.pop(cid))
        for i in moved:
            old = moved_to[i][1] if i in moved_to else model.marks[i].merge_group
            groups[old] -= 1
            if not groups[old]:
                del groups[old]
            groups[location] += 1
            moved_to[i] = (host, location)
        carried[host].extend(moved)
        degree[host] += degree.pop(cid)
        steps.append(SmoothCollapse(cid, edge.id, host, location,
                                    tuple(model.marks[i].id for i in moved)))
        if contractible(host):
            heapq.heappush(heap, host)

    reduced = model
    if steps:
        gone = {step.edge for step in steps}
        marks = []
        for i, p in enumerate(model.marks):
            if i in moved_to:
                host, location = moved_to[i]
                p = MarkedPoint(p.id, host, p.coefficient, location)
            marks.append(p)
        reduced = DualGraphModel(
            model.params,
            tuple(c for c in model.components if c.id in live),
            tuple(e for e in model.edges if e.id not in gone),
            tuple(marks),
        )
    if len(reduced.components) == 1:
        only = reduced.components[0]
        if only.genus == 0 and reduced.mark_degree(only.id) < 2 * mm:
            raise ModelValidationError(
                "contraction ended on a single rational component with "
                "total mark degree below 2m; no minimal model exists"
            )
    return reduced, DominationMap(model, reduced, tuple(steps))


def is_minimal(model: DualGraphModel) -> bool:
    """True when no rational tail of mark degree below m is left to contract."""
    return not any(c.genus == 0 and model.valency(c.id) == 1
                   and model.mark_degree(c.id) < model.params.m
                   for c in model.components)


# -- stable dual graph -------------------------------------------------------


@dataclass(frozen=True)
class ChainEdge:
    """A maximal chain of edges through inessential components.

    Closed chains (both endpoints equal) are allowed; they arise from
    cycles of inessential components hanging on one essential vertex.
    """

    id: str
    endpoints: tuple[str, str]
    model_edges: tuple[str, ...]
    interior: tuple[str, ...]
    length: Fraction


@dataclass(frozen=True)
class StableDualGraph:
    """Essential components with inessential chains shrunk to single edges.

    As a metric graph this is isometric to the full dual graph; only the
    two-valent unmarked rational vertices are forgotten.
    """

    m: int
    vertices: tuple[str, ...]
    genus: dict[str, int]
    mark_degree: dict[str, int]
    chains: tuple[ChainEdge, ...]


def stable_dual_graph(model: DualGraphModel) -> StableDualGraph:
    """Forget inessential components, merging their chains into edges."""
    require_valid(model)
    return _stable_graph(model)


def _stable_graph(model: DualGraphModel) -> StableDualGraph:
    """``stable_dual_graph`` of a model already known to be valid."""
    inessential = {
        c.id for c in model.components
        if is_inessential(c.genus, model.valency(c.id), model.mark_degree(c.id))
    }
    essential = [c.id for c in model.components if c.id not in inessential]
    if not essential:
        raise ModelValidationError("all components are inessential")

    used: set[str] = set()
    chains: list[ChainEdge] = []
    counter = itertools.count(0)
    for v0 in sorted(essential):
        for first in sorted(model.edges_at(v0), key=lambda e: e.id):
            if first.id in used:
                continue
            # walk away from v0 through inessential vertices
            edges_in_chain = [first.id]
            interior: list[str] = []
            cur = first.endpoints[0] if first.endpoints[1] == v0 else first.endpoints[1]
            last_edge = first
            while cur in inessential:
                interior.append(cur)
                nxt = None
                for cand in sorted(model.edges_at(cur), key=lambda x: x.id):
                    if cand.id != last_edge.id:
                        nxt = cand
                        break
                if nxt is None:
                    raise ModelValidationError(
                        f"inessential component {cur} has a dangling chain"
                    )
                edges_in_chain.append(nxt.id)
                cur = nxt.endpoints[0] if nxt.endpoints[1] == cur else nxt.endpoints[1]
                last_edge = nxt
            used.update(edges_in_chain)
            length = sum((model.edge_length(eid) for eid in edges_in_chain),
                         Fraction(0))
            chains.append(ChainEdge(
                f"ch{next(counter)}", (v0, cur), tuple(edges_in_chain),
                tuple(interior), length,
            ))
    if len(used) != len(model.edges):
        # can only happen for cycles made purely of inessential components,
        # which validation already rejects
        raise ModelValidationError("inessential cycle not attached to any "
                                   "essential component")
    return StableDualGraph(
        model.params.m,
        tuple(sorted(essential)),
        {cid: model.component(cid).genus for cid in essential},
        {cid: model.mark_degree(cid) for cid in essential},
        tuple(chains),
    )


@dataclass(frozen=True)
class Skeleton:
    """The dual graph of the minimal model, flagged as essential skeleton."""

    model: DualGraphModel
    is_essential_skeleton: bool = True

    def edge_lengths(self) -> dict[str, Fraction]:
        return {e.id: self.model.edge_length(e.id) for e in self.model.edges}

    def total_length(self) -> Fraction:
        return sum(self.edge_lengths().values(), Fraction(0))


def essential_skeleton(model: DualGraphModel) -> Skeleton:
    """Reduce to the minimal model; its dual graph is the essential skeleton."""
    reduced, _ = minimal_snc_model(model)
    return Skeleton(reduced)


# -- blowups -----------------------------------------------------------------


def blowup_smooth_point(model: DualGraphModel, cid: str,
                        mark_group: tuple[str, ...] = ()) -> tuple[DualGraphModel, DominationMap]:
    """Blow up a smooth point of a component of multiplicity a.

    Inserts a rational component of the same multiplicity joined by an edge
    of length 1/a^2.  Marks listed in ``mark_group`` (all hosted on the
    component) move onto the new component.
    """
    host = model.component(cid)
    used = _all_ids(model)
    exc_id = _fresh_id(f"exc_{cid}", used)
    used.add(exc_id)
    edge_id = _fresh_id(f"e_{exc_id}", used)
    for pid in mark_group:
        if model.mark(pid).host != cid:
            raise ValueError(f"mark {pid} is not on component {cid}")
    marks = tuple(
        MarkedPoint(p.id, exc_id, p.coefficient, p.merge_group)
        if p.id in mark_group else p
        for p in model.marks
    )
    blown = DualGraphModel(
        model.params,
        model.components + (Component(exc_id, 0, host.multiplicity),),
        model.edges + (Edge(edge_id, (cid, exc_id)),),
        marks,
    )
    location = _fresh_id(f"pt_{exc_id}", _all_ids(blown))
    step = SmoothCollapse(exc_id, edge_id, cid, location, tuple(mark_group))
    return blown, DominationMap(blown, model, (step,))


def blowup_node(model: DualGraphModel, eid: str) -> tuple[DualGraphModel, DominationMap]:
    """Blow up the node of an edge with endpoint multiplicities a, b.

    The exceptional component has multiplicity a+b; the edge of length
    1/(a*b) is subdivided into pieces of lengths 1/(a*(a+b)) and
    1/(b*(a+b)) meeting at the new component.
    """
    e = model.edge(eid)
    va, vb = e.endpoints
    a = model.component(va).multiplicity
    b = model.component(vb).multiplicity
    used = _all_ids(model)
    exc_id = _fresh_id(f"exc_{eid}", used)
    used.add(exc_id)
    ea_id = _fresh_id(f"{eid}_a", used)
    used.add(ea_id)
    eb_id = _fresh_id(f"{eid}_b", used)
    blown = DualGraphModel(
        model.params,
        model.components + (Component(exc_id, 0, a + b),),
        tuple(x for x in model.edges if x.id != eid)
        + (Edge(ea_id, (va, exc_id)), Edge(eb_id, (exc_id, vb))),
        model.marks,
    )
    step = NodeCollapse(
        component=exc_id,
        edge_a=ea_id, length_a=Fraction(1, a * (a + b)),
        edge_b=eb_id, length_b=Fraction(1, b * (a + b)),
        merged_edge=eid,
    )
    return blown, DominationMap(blown, model, (step,))


# -- measure transport -------------------------------------------------------


def _require_step(step):
    if not isinstance(step, (SmoothCollapse, NodeCollapse)):
        raise TypeError(f"unknown step {step!r}")


def _push_step(measure: CCMeasure, step) -> CCMeasure:
    _require_step(step)
    comps = dict(measure.components)
    edges = dict(measure.edges)
    folded = [comps.pop(step.component).total]
    if isinstance(step, SmoothCollapse):
        folded.append(edges.pop(step.edge))
    else:
        mass_a = edges.pop(step.edge_a)
        edges[step.merged_edge] = mass_add(mass_a, edges.pop(step.edge_b))
    point = step.point
    atoms = []
    for a in measure.atoms:
        loc = step.image(a.location)
        if loc == point:
            folded.append(a.mass)
        else:
            atoms.append(Atom(loc, a.mass))
    mass = mass_sum(folded)
    if not mass_is_zero(mass):
        atoms.append(Atom(point, mass))
    return CCMeasure(None, measure.kind, comps, edges, tuple(atoms))


def pushforward_measure(measure: CCMeasure, dmap: DominationMap) -> CCMeasure:
    """Push a measure on the source model down to the target model.

    At each step the collapsed component's (finite) total and every atom
    whose image is the step's ``point`` fold into one atom there; a smooth
    collapse folds in its edge's mass too, and a zero fold leaves no atom.
    Subdivided edges re-merge with summed masses; other atoms move to their
    images.
    """
    if measure.model != dmap.source:
        raise ValueError("measure does not live on the source model of the map")
    out = measure
    for step in dmap.steps:
        out = _push_step(out, step)
    return CCMeasure(dmap.target, out.kind, out.components, out.edges, out.atoms)


def _lift_step(measure: CCMeasure, step) -> CCMeasure:
    _require_step(step)
    point = step.point
    atoms = []
    for a in measure.atoms:
        if a.location != point:
            atoms.append(Atom(step.preimage(a.location), a.mass))
        elif not mass_is_zero(a.mass):
            raise LiftError(f"measure has an atom of mass {a.mass} at the "
                            f"collapse point {point}; no lift exists")
    comps = {**measure.components, step.component: zero_descriptor()}
    edges = dict(measure.edges)
    if isinstance(step, SmoothCollapse):
        edges[step.edge] = Fraction(0)
    else:
        if step.merged_edge not in edges:
            raise LiftError(f"edge {step.merged_edge} missing from measure")
        mass = edges.pop(step.merged_edge)
        if not isinstance(mass, Fraction):
            raise LiftError("cannot split a non-exact edge mass")
        total_len = step.length_a + step.length_b
        edges[step.edge_a] = mass * step.length_a / total_len
        edges[step.edge_b] = mass * step.length_b / total_len
    return CCMeasure(None, measure.kind, comps, edges, tuple(atoms))


def lift_measure(measure: CCMeasure, dmap: DominationMap) -> CCMeasure:
    """Lift a measure on the target model up to the source model.

    The lift exists iff the measure has no nonzero atom at a step's
    ``point``; a zero atom there is dropped, and every other atom moves to
    its preimage.  The lift is zero on collapsed components and spreads
    each subdivided edge's mass proportionally to the piece lengths.
    """
    if measure.model != dmap.target:
        raise ValueError("measure does not live on the target model of the map")
    out = measure
    for step in reversed(dmap.steps):
        out = _lift_step(out, step)
    return CCMeasure(dmap.source, out.kind, out.components, out.edges, out.atoms)
