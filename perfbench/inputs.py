"""Seeded inputs for every workload, built without the program's help.

A model is described here by a plain ``Spec`` (m, vertices, edges, marks)
so that the closed-form oracles can read genus, mark degree and the
expected contraction count straight from the generator's own data.  The
same seed always yields the same inputs; the workload composition (how
many models of each m, core size, tail count and symmetry tier) is fixed
and does not depend on the seed, so the cost of a round is comparable
between seeds.  Nothing here imports the repository's test corpus.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

# Corpus make-up: 11 values of m (2..12) times 24 slots, plus one model of
# the top symmetric tier.  Slots 7, 15 and 23 of every m are symmetric: a
# small core with k unmarked rational tails, so the canonical form
# enumerates exactly k! relabelings (7! = 5040 at slots 7 and 23, 6! = 720
# at slot 15, 8! = 40320 for the extra model, whose m the seed picks).
# With 22 models at 7!, the tail percentile of a pass falls inside that
# tier rather than at its lower edge.
# Every other slot keeps its relabeling count at most GENERAL_SYMMETRY_MAX,
# so the canonical-form cost of a round does not depend on the seed.  One
# fixed model past the canonical-form cap rides along in every round (see
# OVER_CAP_TAILS).
CORPUS_MS = tuple(range(2, 13))
SLOTS_PER_M = 24
SYMMETRIC_SLOTS = {7: 7, 15: 6, 23: 7}  # slot -> unmarked tails
TOP_TIER_TAILS = 8
GENERAL_SYMMETRY_MAX = 48
OVER_CAP_TAILS = 10

COMB_SIZES = (100, 200, 300)
STAR_SIZES = (7, 8)
STAR_OVER_CAP = 10

LOGT_GRID = (1e2, 1e3, 1e4)


@dataclass(frozen=True)
class Spec:
    """A marked dual graph: vertices (id, genus), edges (id, a, b),
    marks (id, host, coefficient).  All multiplicities are one."""

    m: int
    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str, str], ...]
    marks: tuple[tuple[str, str, int], ...] = ()
    tails: int = 0  # rational tails the minimal model contracts away

    @property
    def genus(self) -> int:
        return (sum(g for _, g in self.vertices) + len(self.edges)
                - len(self.vertices) + 1)

    @property
    def mark_degree(self) -> int:
        return sum(c for _, _, c in self.marks)

    def color_classes(self) -> dict[tuple, int]:
        """Vertex count per color (genus, multiset of mark coefficients)."""
        classes: dict[tuple, int] = {}
        for vid, g in self.vertices:
            key = (g, tuple(sorted(c for _, h, c in self.marks if h == vid)))
            classes[key] = classes.get(key, 0) + 1
        return classes

    def symmetry(self) -> int:
        """Relabelings a brute-force canonical form enumerates: the product
        of the factorials of the color-class sizes."""
        return math.prod(math.factorial(n) for n in self.color_classes().values())


def spec_text(spec: Spec) -> str:
    """The model in the program's text format, written independently of
    its emitter (declaration order, not sorted)."""
    lines = ["model {", f"  m = {spec.m}"]
    for vid, g in spec.vertices:
        lines.append(f"  vertex {vid} {{ genus = {g} }}")
    for eid, a, b in spec.edges:
        lines.append(f"  edge {eid} {a} -- {b}")
    for pid, host, c in spec.marks:
        lines.append(f"  mark {pid} on {host} coeff {c}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def relabel(spec: Spec, rng: random.Random) -> Spec:
    """Same marked graph under fresh, shuffled ids and declaration order."""
    ids = [v for v, _ in spec.vertices] + [e for e, _, _ in spec.edges] \
        + [p for p, _, _ in spec.marks]
    fresh = [f"R{k}" for k in range(len(ids))]
    rng.shuffle(fresh)
    new = dict(zip(ids, fresh))
    vertices = [(new[v], g) for v, g in spec.vertices]
    edges = [(new[e], new[a], new[b]) for e, a, b in spec.edges]
    marks = [(new[p], new[h], c) for p, h, c in spec.marks]
    for seq in (vertices, edges, marks):
        rng.shuffle(seq)
    return Spec(spec.m, tuple(vertices), tuple(edges), tuple(marks), spec.tails)


# -- exact-corpus --------------------------------------------------------------


def _core(rng: random.Random, m: int, n: int):
    """A valid minimal marked graph on n vertices: random tree, up to two
    extra edges, random genera and marks, then the validity repairs."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(rng.randint(0, 2) if n >= 2 else 0):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b))
    genera = [0] * n
    for _ in range(rng.randint(0, 4)):
        genera[rng.randrange(n)] += 1
    marks = [(rng.randrange(n), rng.randint(1, m - 1)) for _ in range(rng.randint(0, 3))]
    val = [0] * n
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    g = sum(genera) + len(edges) - n + 1
    if g == 0:
        while sum(c for _, c in marks) < 2 * m or len(marks) < 3:
            marks.append((rng.randrange(n), m - 1))
    if g == 1 and not marks:
        marks.append((rng.randrange(n), 1))
    for v in range(n):
        if genera[v] == 0:
            need = 2 * m if val[v] == 0 else (m if val[v] == 1 else 0)
            while sum(c for h, c in marks if h == v) < need:
                marks.append((v, m - 1))
    if all(genera[v] == 0 and val[v] == 2 for v in range(n)) and not marks:
        marks.append((0, 1))
    return genera, edges, marks


def _with_tails(m, genera, edges, marks, rng, n_tails, marked_tails):
    n = len(genera)
    vertices = [(f"V{i}", genera[i]) for i in range(n)]
    edge_list = [(f"e{k}", f"V{a}", f"V{b}") for k, (a, b) in enumerate(edges)]
    mark_list = [(f"P{k}", f"V{h}", c) for k, (h, c) in enumerate(marks)]
    # A tail hangs on a core vertex or, if the previous tail is unmarked and
    # childless, on that tail.  Each tail carries mark degree below m even
    # after its child lands on it, so every tail contracts: the minimal
    # model is the core and the contraction count is the tail count.
    can_host = False
    for k in range(n_tails):
        tid = f"T{k}"
        if can_host and rng.random() < 0.3:
            host = f"T{k - 1}"
        else:
            host = f"V{rng.randrange(n)}"
        vertices.append((tid, 0))
        edge_list.append((f"te{k}", host, tid))
        marked = marked_tails and rng.random() < 0.5
        if marked:
            mark_list.append((f"TP{k}", tid, rng.randint(1, m - 1)))
        can_host = not marked and host.startswith("V")
    return Spec(m, tuple(vertices), tuple(edge_list), tuple(mark_list), n_tails)


def symmetric_model(rng: random.Random, m: int, n_core: int, tails: int) -> Spec:
    """A core whose vertex colors are all distinct, none shared with an
    unmarked tail, plus ``tails`` unmarked rational tails: exactly tails!
    relabelings."""
    while True:
        genera, edges, marks = _core(rng, m, n_core)
        core = _with_tails(m, genera, edges, marks, rng, 0, False)
        if core.symmetry() == 1 and (0, ()) not in core.color_classes():
            return _with_tails(m, genera, edges, marks, rng, tails, False)


def corpus_model(rng: random.Random, m: int, slot: int) -> Spec:
    """Model for one corpus slot; its shape class is fixed by the slot."""
    if slot in SYMMETRIC_SLOTS:
        return symmetric_model(rng, m, 2 + (slot // 8) % 2, SYMMETRIC_SLOTS[slot])
    n_core = 1 + slot % 8
    n_tails = (slot + slot // 8) % 4
    while True:
        genera, edges, marks = _core(rng, m, n_core)
        spec = _with_tails(m, genera, edges, marks, rng, n_tails, True)
        if spec.symmetry() <= GENERAL_SYMMETRY_MAX:
            return spec


def over_cap_model() -> Spec:
    """Fixed 12-component model: a genus-2 pair with ten unmarked rational
    tails, 10! relabelings, past the canonical form's 500,000 cap."""
    vertices = [("A", 2), ("B", 2)] + [(f"T{k}", 0) for k in range(OVER_CAP_TAILS)]
    edges = [("ab", "A", "B")] + [(f"te{k}", "AB"[k % 2], f"T{k}")
                                  for k in range(OVER_CAP_TAILS)]
    return Spec(2, tuple(vertices), tuple(edges), (), OVER_CAP_TAILS)


def stable_model(rng: random.Random) -> Spec:
    """Unmarked graph of positive-genus vertices: minimal, stable, g >= 2,
    so every exact subcommand accepts it."""
    m = rng.choice(CORPUS_MS)
    n = rng.randint(2, 4)
    edges = [(f"s{i}", f"W{rng.randrange(i)}", f"W{i}") for i in range(1, n)]
    for k in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        edges.append((f"x{k}", f"W{a}", f"W{b}"))
    vertices = tuple((f"W{i}", rng.randint(1, 3)) for i in range(n))
    return Spec(m, vertices, tuple(edges))


def corpus(seed: int) -> list[Spec]:
    rng = random.Random(seed)
    specs = [corpus_model(rng, m, slot)
             for slot in range(SLOTS_PER_M) for m in CORPUS_MS]
    return specs + [symmetric_model(rng, rng.choice(CORPUS_MS), 2, TOP_TIER_TAILS)]


# -- exact-large ---------------------------------------------------------------


def comb(n: int, rng: random.Random) -> Spec:
    """Genus-2 pair joined by a chain of n rational bridges, each bridge
    carrying one rational tail; ids are shuffled so contraction order
    depends on the seed, not on the bridge index."""
    names = [f"c{k}" for k in range(2 * n + 2)]
    rng.shuffle(names)
    a, c = names[0], names[1]
    bridges = names[2:n + 2]
    tails = names[n + 2:]
    vertices = [(a, 2), (c, 2)] + [(b, 0) for b in bridges] + [(t, 0) for t in tails]
    chain = [a] + bridges + [c]
    edges = [(f"b{k}", chain[k], chain[k + 1]) for k in range(n + 1)]
    edges += [(f"t{k}", bridges[k], tails[k]) for k in range(n)]
    return Spec(2, tuple(vertices), tuple(edges), (), n)


def star(k: int, rng: random.Random, bumped: int | None = None) -> Spec:
    """k elliptic leaves on one rational hub at m = 2; ``bumped`` raises
    one leaf to genus 2, which no relabeling can undo."""
    vertices = [("hub", 0)] + [(f"L{i}", 2 if i == bumped else 1) for i in range(k)]
    edges = [(f"s{i}", "hub", f"L{i}") for i in range(k)]
    return relabel(Spec(2, tuple(vertices), tuple(edges)), rng)


# -- nodechart -----------------------------------------------------------------


def dumbbell(m: int) -> Spec:
    """Two elliptic curves through one node: one skeleton chain, l = 1."""
    return Spec(m, (("E1", 1), ("E2", 1)), (("n", "E1", "E2"),))


def two_node_chain(m: int) -> Spec:
    """Elliptic pair through an inessential rational bridge: l = 2."""
    return Spec(m, (("E1", 1), ("F", 0), ("E2", 1)),
                (("a", "E1", "F"), ("b", "F", "E2")))


def density_points(rng: random.Random, count: int) -> list[complex]:
    """Points w on the w side of the chart, 0.05 <= |w| <= 0.7."""
    return [cmath.rect(rng.uniform(0.05, 0.7), rng.uniform(0.0, 2 * math.pi))
            for _ in range(count)]


# -- genus 0 -------------------------------------------------------------------


def rigid_configuration() -> tuple[complex, ...]:
    """Four fixed points in the unit disk; weights (1, 1, 1, 1) at m = 2
    leave d = 0, where the mass is exactly one."""
    return (0.3 + 0.1j, -0.25 + 0.35j, -0.4 - 0.2j, 0.35 - 0.45j)


def rational_four_marks() -> Spec:
    """One rational component with four weight-one marks at m = 2: the
    model whose genus-0 mass `measure --estimate-genus0` reports (d = 0)."""
    return Spec(2, (("R", 0),), (), tuple((f"P{i}", "R", 1) for i in range(4)))
