"""Dual graphs of marked degenerations: components, nodes, marks.

A model records the combinatorial fiber of a one-parameter family over a
punctured disk: irreducible components with genus and multiplicity, nodes
as edges between distinct components (never loops), and marked points with
integer coefficients.  Everything is immutable, so values can be shared
freely across threads.  Each model builds one incidence index when it is
constructed (the edges and the marks at every component, valencies, mark
degrees and the mark groups by coincident location), so the per-component
lookups are dictionary reads rather than scans over all edges or marks.

Edge lengths are 1/(a*b) for endpoint multiplicities a, b, kept as exact
fractions throughout.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelValidationError

__all__ = [
    "ModelParams",
    "MarkedPoint",
    "Component",
    "Edge",
    "DualGraphModel",
    "Violation",
    "ValidationReport",
    "make_model",
    "validate",
    "require_valid",
    "arithmetic_genus",
    "total_mark_degree",
    "is_inessential",
    "canonical_form",
    "is_isomorphic",
]


@dataclass(frozen=True)
class ModelParams:
    """Global parameters: the tensor power m of the relative dualizing sheaf."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        # m == 1 is representable but reported by validate(); the measures
        # here are only defined for m >= 2.


@dataclass(frozen=True)
class MarkedPoint:
    """A horizontal mark restricted to the special fiber.

    ``merge_group`` is None for a mark at its own generic point; marks that
    were pushed to a common point by a contraction share a group id.
    """

    id: str
    host: str
    coefficient: int
    merge_group: str | None = None

    def __post_init__(self):
        if not isinstance(self.coefficient, int) or self.coefficient < 1:
            raise ValueError(
                f"mark {self.id}: coefficient must be a positive integer"
            )


@dataclass(frozen=True)
class Component:
    """An irreducible component of the special fiber."""

    id: str
    genus: int = 0
    multiplicity: int = 1

    def __post_init__(self):
        if not isinstance(self.genus, int) or self.genus < 0:
            raise ValueError(f"component {self.id}: genus must be >= 0")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise ValueError(f"component {self.id}: multiplicity must be >= 1")


@dataclass(frozen=True)
class Edge:
    """A node of the fiber, joining two distinct components.

    Endpoints are stored in declaration order; positions along the edge are
    measured from ``endpoints[0]``.  Loops are rejected: a self-node must be
    presented after blowup as two components.
    """

    id: str
    endpoints: tuple[str, str]

    def __post_init__(self):
        a, b = self.endpoints
        if a == b:
            raise ValueError(f"edge {self.id}: loop on {a} forbidden")


@dataclass(frozen=True)
class DualGraphModel:
    """Immutable dual graph of a degenerate fiber with marks."""

    params: ModelParams
    components: tuple[Component, ...]
    edges: tuple[Edge, ...] = ()
    marks: tuple[MarkedPoint, ...] = ()

    def __post_init__(self):
        by_id = {}
        for c in self.components:
            if c.id in by_id:
                raise ValueError(f"duplicate component id {c.id}")
            by_id[c.id] = c
        incident: dict[str, list[Edge]] = {cid: [] for cid in by_id}
        edge_by_id = {}
        for e in self.edges:
            if e.id in by_id or e.id in edge_by_id:
                raise ValueError(f"duplicate id {e.id}")
            for v in e.endpoints:
                if v not in by_id:
                    raise ValueError(f"edge {e.id}: unknown component {v}")
                incident[v].append(e)
            edge_by_id[e.id] = e
        degree = dict.fromkeys(by_id, 0)
        locations: dict[tuple[str, str], list[MarkedPoint]] = {}
        groups_on: dict[str, list[list[MarkedPoint]]] = {cid: [] for cid in by_id}
        mark_by_id = {}
        for p in self.marks:
            if p.id in by_id or p.id in edge_by_id or p.id in mark_by_id:
                raise ValueError(f"duplicate id {p.id}")
            if p.host not in by_id:
                raise ValueError(f"mark {p.id}: unknown host {p.host}")
            mark_by_id[p.id] = p
            degree[p.host] += p.coefficient
            key = (p.host, p.merge_group if p.merge_group else p.id)
            if key not in locations:
                locations[key] = []
                groups_on[p.host].append(locations[key])
            locations[key].append(p)
        for p in self.marks:
            other = mark_by_id.get(p.merge_group)
            if other is not None and other.host == p.host and not other.merge_group:
                raise ValueError(
                    f"mark {p.id}: merge group {p.merge_group} on {p.host} is named "
                    f"like the ungrouped mark {other.id} there")
        object.__setattr__(self, "_components", by_id)
        object.__setattr__(self, "_edges", edge_by_id)
        object.__setattr__(self, "_marks", mark_by_id)
        object.__setattr__(self, "_incident",
                           {cid: tuple(es) for cid, es in incident.items()})
        object.__setattr__(self, "_mark_degree", degree)
        object.__setattr__(self, "_locations", locations)
        object.__setattr__(self, "_groups_on", groups_on)

    # -- lookups ---------------------------------------------------------

    def component(self, cid: str) -> Component:
        return self._components[cid]

    def edge(self, eid: str) -> Edge:
        return self._edges[eid]

    def mark(self, pid: str) -> MarkedPoint:
        return self._marks[pid]

    def edges_at(self, cid: str) -> tuple[Edge, ...]:
        return self._incident[cid]

    def valency(self, cid: str) -> int:
        """Number of nodes on the component, counting multi-edges."""
        return len(self._incident[cid])

    def mark_degree(self, cid: str) -> int:
        """Total mark coefficient carried by the component."""
        return self._mark_degree[cid]

    def edge_length(self, eid: str) -> Fraction:
        e = self._edges[eid]
        a = self._components[e.endpoints[0]].multiplicity
        b = self._components[e.endpoints[1]].multiplicity
        return Fraction(1, a * b)

    def is_semistable(self) -> bool:
        """True when the fiber is reduced (all multiplicities 1)."""
        return all(c.multiplicity == 1 for c in self.components)

    def with_params(self, m: int) -> "DualGraphModel":
        """Same marked graph, reinterpreted at a different tensor power."""
        if m == self.params.m:
            return self
        return DualGraphModel(ModelParams(m), self.components, self.edges, self.marks)

    def mark_locations(self) -> dict[tuple[str, str | None], list[MarkedPoint]]:
        """Marks grouped by coincident location.

        Ungrouped marks sit at their own generic points and come back as
        singleton entries keyed by their own id.
        """
        return {key: list(group) for key, group in self._locations.items()}


def make_model(m, vertices, edges=(), marks=()) -> DualGraphModel:
    """Compact constructor used throughout tests and demos.

    vertices: (id, genus) or (id, genus, multiplicity)
    edges:    (a, b) with an auto id, or (id, a, b)
    marks:    (id, host, coefficient) or (id, host, coefficient, group)
    """
    comps = []
    for v in vertices:
        if len(v) == 2:
            comps.append(Component(v[0], v[1]))
        else:
            comps.append(Component(v[0], v[1], v[2]))
    used = {c.id for c in comps}
    es = []
    auto = itertools.count(1)
    for e in edges:
        if len(e) == 2:
            eid = f"e{next(auto)}"
            while eid in used:
                eid = f"e{next(auto)}"
            es.append(Edge(eid, (e[0], e[1])))
        else:
            es.append(Edge(e[0], (e[1], e[2])))
        used.add(es[-1].id)
    ms = []
    for p in marks:
        if len(p) == 3:
            ms.append(MarkedPoint(p[0], p[1], p[2]))
        else:
            ms.append(MarkedPoint(p[0], p[1], p[2], p[3]))
    return DualGraphModel(ModelParams(m), tuple(comps), tuple(es), tuple(ms))


# -- basic invariants ------------------------------------------------------


def _graph_genus(genera: dict[str, int], pairs) -> int | None:
    """Genus sum(g_v) + |E| - |V| + 1 of the graph whose vertices are the
    keys of ``genera`` and whose edges are ``pairs`` (endpoint pairs, closed
    edges allowed); None when the graph is empty or disconnected."""
    pairs = list(pairs)
    adj: dict[str, set[str]] = {v: set() for v in genera}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    stack = list(adj)[:1]
    seen = set(stack)
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if not seen or len(seen) != len(adj):
        return None
    return sum(genera.values()) + len(pairs) - len(adj) + 1


def arithmetic_genus(model: DualGraphModel) -> int:
    """Genus of the fiber: sum of component genera plus independent cycles."""
    g = _graph_genus({c.id: c.genus for c in model.components},
                     (e.endpoints for e in model.edges))
    if g is None:
        raise ModelValidationError("arithmetic genus needs a connected model")
    return g


def total_mark_degree(model: DualGraphModel) -> int:
    return sum(p.coefficient for p in model.marks)


def is_inessential(genus: int, valency: int, mark_degree: int) -> bool:
    """Genus-0 components with two nodes and no marks carry no sections."""
    return genus == 0 and valency == 2 and mark_degree == 0


# -- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    subject: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        lines = [f"error[{v.code}] {v.message}" for v in self.errors]
        lines += [f"warning[{v.code}] {v.message}" for v in self.warnings]
        return "\n".join(lines) if lines else "ok"


def validate(model: DualGraphModel) -> ValidationReport:
    """Structured validity check; never raises.

    Errors cover: m below 2, mark coefficients outside [1, m-1],
    disconnection, the excluded genus-1 unmarked family, underweighted
    genus-0 total fibers, and all components inessential.  Coincident marks
    whose combined coefficient reaches m produce a warning, not an error.
    """
    errors: list[Violation] = []
    warnings: list[Violation] = []
    m = model.params.m

    if not model.components:
        return ValidationReport((Violation("empty-model", "model has no components"),))

    if m < 2:
        errors.append(Violation("m-below-2", f"m must be at least 2, got {m}"))

    for p in model.marks:
        if not (1 <= p.coefficient <= m - 1):
            errors.append(Violation(
                "mark-coefficient-range",
                f"mark {p.id}: coefficient {p.coefficient} outside [1, {m - 1}]",
                p.id,
            ))

    g = _graph_genus({c.id: c.genus for c in model.components},
                     (e.endpoints for e in model.edges))
    if g is None:
        errors.append(Violation("disconnected", "model must be connected"))
        return ValidationReport(tuple(errors), tuple(warnings))

    if g == 1 and not model.marks:
        errors.append(Violation(
            "excluded-family",
            "genus-1 fibers without marks admit no sections for any m",
        ))

    if g == 0:
        deg = total_mark_degree(model)
        if deg < 2 * m:
            errors.append(Violation(
                "genus0-mark-degree",
                f"genus-0 family needs total mark degree >= {2 * m}, got {deg}",
            ))
        if len(model.marks) < 3:
            errors.append(Violation(
                "genus0-mark-count",
                f"genus-0 family needs at least 3 marks, got {len(model.marks)}",
            ))

    if len(model.components) > 0 and all(
        is_inessential(c.genus, model.valency(c.id), model.mark_degree(c.id))
        for c in model.components
    ):
        errors.append(Violation(
            "all-inessential-cycle",
            "every component is inessential; no such fiber exists",
        ))

    for (host, loc), group in model.mark_locations().items():
        if len(group) > 1:
            total = sum(p.coefficient for p in group)
            if total >= m:
                warnings.append(Violation(
                    "merged-marks-exceed-m",
                    f"marks {sorted(p.id for p in group)} share a point on "
                    f"{host} with combined coefficient {total} >= m = {m}",
                    host,
                ))

    return ValidationReport(tuple(errors), tuple(warnings))


def require_valid(model: DualGraphModel) -> None:
    report = validate(model)
    if not report.ok:
        raise ModelValidationError(report.describe(), report)


# -- canonical form and isomorphism ----------------------------------------


def _colors(model: DualGraphModel) -> dict[str, tuple]:
    """Starting color per component: genus, multiplicity, mark-group shape.

    Marks are grouped by coincident location; singleton groups are the same
    shape as never-moved marks, so both normalize to singletons.
    """
    return {
        c.id: (c.genus, c.multiplicity,
               tuple(sorted(tuple(sorted(p.coefficient for p in grp))
                            for grp in model._groups_on[c.id])))
        for c in model.components
    }


class _Partition:
    """Ordered partition of the vertices 0..n-1, stored as in nauty.

    ``lab`` lists the vertices and ``pos`` inverts it; each cell is the
    slice lab[s:end[s]] and is named by its start s; ``cell[v]`` is the
    start of v's cell.  Splitting a cell keeps its parts inside its slice,
    so a start never moves and is a relabeling-invariant name for the cell.
    """

    __slots__ = ("lab", "pos", "cell", "end")

    def __init__(self, lab: list[int], pos: list[int], cell: list[int],
                 end: list[int]):
        self.lab = lab
        self.pos = pos
        self.cell = cell
        self.end = end

    def copy(self) -> "_Partition":
        return _Partition(self.lab[:], self.pos[:], self.cell[:], self.end[:])

    def _swap(self, i: int, j: int) -> None:
        lab, pos = self.lab, self.pos
        lab[i], lab[j] = lab[j], lab[i]
        pos[lab[i]] = i
        pos[lab[j]] = j

    def refine(self, nbrs: list[list[tuple[int, int]]], splitters) -> None:
        """Split cells until each one meets every cell uniformly.

        A vertex's signature against a splitter cell is the sorted tuple of
        the multiplicities of its edges into that cell.  A split cell keeps
        its untouched vertices (empty signature) at the front of its slice
        and puts the touched ones after them, grouped by signature in
        order, so a split costs only the touched vertices.  All parts but
        the first largest join the queue (all of them if the cell was
        waiting), as in Hopcroft's partition refinement.
        """
        lab, cell, end = self.lab, self.cell, self.end
        queue = deque(splitters)
        waiting = set(splitters)
        while queue:
            w = queue.popleft()
            waiting.discard(w)
            into: dict[int, list[int]] = {}
            for u in lab[w:end[w]]:
                for v, k in nbrs[u]:
                    into.setdefault(v, []).append(k)
            touched: dict[int, list[int]] = {}
            for v in into:
                touched.setdefault(cell[v], []).append(v)
            for s in sorted(touched):
                e = end[s]
                group = touched[s]
                sigs = {v: tuple(sorted(into[v])) for v in group}
                if len(group) == e - s and len(set(sigs.values())) == 1:
                    continue
                b = e  # move the touched vertices to lab[b:e]
                for v in group:
                    b -= 1
                    self._swap(self.pos[v], b)
                group.sort(key=sigs.__getitem__)
                starts = [s] if b > s else []
                end[s] = b
                for i, v in enumerate(group, b):
                    lab[i] = v
                    self.pos[v] = i
                    if i == b or sigs[v] != sigs[group[i - b - 1]]:
                        starts.append(i)
                    cell[v] = starts[-1]
                for t, t_end in zip(starts, starts[1:] + [e]):
                    end[t] = t_end
                if s not in waiting:
                    starts.remove(max(starts, key=lambda t: (end[t] - t, -t)))
                for t in starts:
                    if t not in waiting:
                        waiting.add(t)
                        queue.append(t)

    def individualize(self, v: int) -> int:
        """Split v off the front of its cell; returns the start of {v}."""
        s = self.cell[v]
        e = self.end[s]
        self._swap(self.pos[v], s)
        self.end[s] = s + 1
        self.end[s + 1] = e
        for u in self.lab[s + 1:e]:
            self.cell[u] = s + 1
        return s

    def target(self, twin: list[int]) -> int | None:
        """Start of the first smallest non-singleton cell, or None at a leaf.

        A partition is a leaf when every non-singleton cell holds mutual
        twins: all orderings inside such cells differ by automorphisms, so
        the numbering by ``lab`` stands for every leaf below.
        """
        lab, end = self.lab, self.end
        best = None
        leaf = True
        s = 0
        while s < len(lab):
            e = end[s]
            if e - s > 1:
                if best is None or e - s < end[best] - best:
                    best = s
                if leaf and any(twin[v] != twin[lab[s]] for v in lab[s + 1:e]):
                    leaf = False
            s = e
        return None if leaf else best


class _Node:
    """A search-tree node: its partition, the individualized vertices that
    led to it, and the children of its target cell still to visit.

    Children in one orbit of the automorphisms found so far that fix
    ``prefix`` pointwise have equal subtrees up to that automorphism, so
    only one child per orbit is visited.  Orbits are kept by union-find.
    An automorphism is a dict from each vertex it moves to its image.
    """

    __slots__ = ("part", "prefix", "cands", "next", "visited", "root", "seen")

    def __init__(self, part: _Partition, prefix: frozenset[int], s: int,
                 twin: list[int]):
        self.part = part
        self.prefix = prefix
        self.cands = part.lab[s:part.end[s]]
        self.next = 0
        self.visited: list[int] = []
        # twins are swapped by an automorphism fixing all else: one orbit
        first = {}
        self.root = {v: first.setdefault(twin[v], v) for v in self.cands}
        self.seen = 0  # automorphisms already merged into the orbits

    def _find(self, v: int) -> int:
        root = self.root
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    def next_child(self, autos: list[dict[int, int]]) -> int | None:
        if self.visited:
            for gamma in autos[self.seen:]:
                if self.prefix.isdisjoint(gamma):
                    # gamma fixes this node, so it maps the cell to itself
                    for v, image in gamma.items():
                        if v in self.root:
                            self.root[self._find(v)] = self._find(image)
            self.seen = len(autos)
        while self.next < len(self.cands):
            v = self.cands[self.next]
            self.next += 1
            rv = self._find(v)
            if all(self._find(u) != rv for u in self.visited):
                self.visited.append(v)
                return v
        return None


def _certificate(pos: list[int], pairs: dict[tuple[int, int], int]):
    """Sorted edge encoding (i, j, multiplicity) under the numbering pos."""
    return tuple(sorted(
        (min(pos[a], pos[b]), max(pos[a], pos[b]), k)
        for (a, b), k in pairs.items()
    ))


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _canonical_form(model: DualGraphModel, colors: dict[str, tuple]):
    ids = sorted(colors)
    number = {cid: i for i, cid in enumerate(ids)}
    pairs: dict[tuple[int, int], int] = {}
    for e in model.edges:
        a, b = sorted((number[e.endpoints[0]], number[e.endpoints[1]]))
        pairs[a, b] = pairs.get((a, b), 0) + 1
    nbrs: list[list[tuple[int, int]]] = [[] for _ in ids]
    for (a, b), k in pairs.items():
        nbrs[a].append((b, k))
        nbrs[b].append((a, k))
    col = [colors[cid] for cid in ids]

    # Vertices of one color with the same neighbors (multiplicities
    # included) are twins: swapping two of them is an automorphism that
    # fixes every other vertex.  twin[v] names v's class.
    classes: dict[tuple, int] = {}
    twin = [classes.setdefault((col[v], tuple(sorted(nbrs[v]))), v)
            for v in range(len(ids))]

    # Start from the cells of equal color, in color order, and refine.
    lab = sorted(range(len(ids)), key=col.__getitem__)
    pos = [0] * len(ids)
    cell = [0] * len(ids)
    end = [0] * len(ids)
    starts: list[int] = []
    for i, v in enumerate(lab):
        if i == 0 or col[v] != col[lab[i - 1]]:
            starts.append(i)
        pos[v] = i
        cell[v] = starts[-1]
    for s, e in zip(starts, starts[1:] + [len(ids)]):
        end[s] = e
    part = _Partition(lab, pos, cell, end)
    part.refine(nbrs, starts)

    # Depth-first over individualizations.  A leaf whose certificate equals
    # the first or the best leaf's yields an automorphism, and the search
    # returns to the node where the two paths split: the subtree it left
    # is the image of one already searched.
    first = best = None  # (certificate, leaf numbering, path)
    autos: list[dict[int, int]] = []
    stack: list[_Node] = []
    path: list[int] = []
    while True:
        s = part.target(twin)
        if s is not None:
            stack.append(_Node(part, frozenset(path), s, twin))
        else:
            cert = _certificate(part.pos, pairs)
            keep = len(stack)
            if first is None:
                first = best = (cert, part.lab, tuple(path))
            elif cert == first[0] or cert == best[0]:
                ref = first if cert == first[0] else best
                autos.append({u: v for u, v in zip(ref[1], part.lab) if u != v})
                keep = _common_prefix(path, ref[2]) + 1
            elif cert < best[0]:
                best = (cert, part.lab, tuple(path))
            del stack[keep:]
        while stack:
            v = stack[-1].next_child(autos)
            if v is not None:
                break
            stack.pop()
        if not stack:
            return tuple(sorted(col)), best[0]
        path[len(stack) - 1:] = [v]
        part = stack[-1].part.copy()
        part.refine(nbrs, [part.individualize(v)])


def canonical_form(model: DualGraphModel):
    """A relabeling-invariant encoding of the marked graph.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014).  Components start in cells of equal color
    (genus, multiplicity, mark-group shape), and cells are refined by the
    multiplicities of the edges into each other cell.  The search then
    individualizes each vertex of the first smallest non-singleton cell in
    turn and refines again, down to discrete partitions.  Each leaf numbers
    the components by position, and the encoding keeps the lexicographically
    least sorted edge list over all leaves.  Children that lie in one orbit
    of the automorphisms found so far are visited once, and a leaf that
    repeats an earlier certificate sends the search back to where the two
    paths split.  Twins (one color, the same neighbors) are interchangeable,
    so a partition whose remaining cells hold only twins is already a leaf;
    this keeps stars and banks of rational tails to a single path.
    """
    color_sig, best = _canonical_form(model, _colors(model))
    return (model.params.m, color_sig, best)


def is_isomorphic(a: DualGraphModel, b: DualGraphModel) -> bool:
    """Color- and multiplicity-respecting multigraph isomorphism."""
    if a.params.m != b.params.m:
        return False
    if (len(a.components), len(a.edges), len(a.marks)) != (
            len(b.components), len(b.edges), len(b.marks)):
        return False
    ca, cb = _colors(a), _colors(b)
    if sorted(ca.values()) != sorted(cb.values()):
        return False
    return _canonical_form(a, ca) == _canonical_form(b, cb)
