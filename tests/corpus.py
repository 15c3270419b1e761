"""Seeded random model corpora shared by the test modules.

Everything here is deterministic for a fixed seed: generation uses one
``random.Random`` instance and repairs models in a fixed order, so the
corpora are stable across runs and platforms.
"""
from __future__ import annotations

import random

from curvedegen import (
    DualGraphModel,
    arithmetic_genus,
    is_minimal,
    make_model,
    validate,
)


def _random_shape(rng: random.Random, max_components: int, max_genus: int):
    n = rng.randint(1, max_components)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    budget = rng.randint(0, max_genus)
    extra = rng.randint(0, min(2, budget)) if n >= 2 else 0
    for _ in range(extra):
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        edges.append((a, b))
    genera = [0] * n
    remaining = budget - extra
    while remaining > 0:
        genera[rng.randrange(n)] += 1
        remaining -= 1
    return n, edges, genera


def random_minimal_model(rng: random.Random, max_components: int = 12,
                         max_genus: int = 6) -> DualGraphModel:
    """One valid minimal model with m <= 5, <= 12 components, genus <= 6."""
    while True:
        m = rng.randint(2, 5)
        n, edge_pairs, genera = _random_shape(rng, max_components, max_genus)
        names = [f"E{i}" for i in range(n)]
        vertices = list(zip(names, genera))
        edges = [(names[a], names[b]) for a, b in edge_pairs]
        marks = []
        for k in range(rng.randint(0, 4)):
            marks.append((f"P{k}", names[rng.randrange(n)], rng.randint(1, m - 1)))

        def add_mark(host, coeff):
            marks.append((f"Q{len(marks)}", host, coeff))

        model = make_model(m, vertices, edges, marks)
        g = arithmetic_genus(model)

        # repair passes, cheapest first: genus-0 total degree, genus-1
        # marklessness, contractible leaves, all-inessential cycles
        if g == 0:
            while sum(p[2] for p in marks) < 2 * m or len(marks) < 3:
                add_mark(names[rng.randrange(n)], m - 1)
        if g == 1 and not marks:
            add_mark(names[rng.randrange(n)], 1)
        model = make_model(m, vertices, edges, marks)
        for name in names:
            if model.component(name).genus > 0:
                continue
            val = model.valency(name)
            need = 2 * m if val == 0 else (m if val == 1 else 0)
            while model.mark_degree(name) < need:
                add_mark(name, m - 1)
                model = make_model(m, vertices, edges, marks)
        if all(model.component(v).genus == 0 and model.valency(v) == 2
               and model.mark_degree(v) == 0 for v in names):
            add_mark(names[0], 1)
            model = make_model(m, vertices, edges, marks)

        if (validate(model).ok and is_minimal(model)
                and arithmetic_genus(model) <= max_genus):
            return model


def random_model_with_tails(rng: random.Random) -> DualGraphModel:
    """A non-minimal semistable model: minimal core plus contractible tails."""
    core = random_minimal_model(rng, max_components=6, max_genus=5)
    m = core.params.m
    vertices = [(c.id, c.genus, c.multiplicity) for c in core.components]
    edges = [(e.id, *e.endpoints) for e in core.edges]
    marks = [(p.id, p.host, p.coefficient, p.merge_group) for p in core.marks]
    hosts = [c.id for c in core.components]
    for k in range(rng.randint(1, 3)):
        leaf = f"T{k}"
        vertices.append((leaf, 0, 1))
        edges.append((f"te{k}", rng.choice(hosts), leaf))
        for j in range(rng.randint(0, 1)):
            marks.append((f"TP{k}_{j}", leaf, rng.randint(1, m - 1), None))
        hosts.append(leaf)  # tails may sprout from tails
    model = make_model(m, vertices, edges, marks)
    # a tail could accidentally be essential (mark degree >= m); that is
    # fine, minimal_snc_model will simply keep it
    return model


def minimal_corpus(seed: int, count: int) -> list[DualGraphModel]:
    rng = random.Random(seed)
    return [random_minimal_model(rng) for _ in range(count)]


def fixed_examples() -> list[DualGraphModel]:
    """Hand-picked shapes exercising every structural corner."""
    return [
        # two elliptic curves joined by one node
        make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")]),
        # same dumbbell with a mark of coefficient 1
        make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")],
                   [("P1", "E1", 1)]),
        # three-vertex chain with a contractible leaf and mark pileup
        make_model(4, [("E1", 0), ("E2", 0), ("E3", 2)],
                   [("E1", "E2"), ("E2", "E3")],
                   [("P1", "E1", 1), ("P2", "E2", 1), ("P3", "E2", 1)]),
        # genus-2 vertex with one contractible leaf (mark degree m-1)
        make_model(3, [("C", 2), ("L", 0)], [("C", "L")], [("P", "L", 2)]),
        # inessential chain between two elliptic vertices
        make_model(2, [("E1", 1), ("F", 0), ("E2", 1)],
                   [("E1", "F"), ("F", "E2")]),
        # closed inessential chain hanging off a genus-2 vertex
        make_model(2, [("C", 2), ("F1", 0), ("F2", 0), ("F3", 0)],
                   [("C", "F1"), ("F1", "F2"), ("F2", "F3"), ("F3", "C")]),
        # multiplicities 2 and 3 give edge length 1/6
        make_model(2, [("A", 1, 2), ("B", 1, 3)], [("A", "B")],
                   [("P", "A", 1)]),
        # irreducible: single vertices of genus 2 and 3
        make_model(2, [("C", 2)]),
        make_model(3, [("C", 3)]),
        # one-nodal irreducible genus-2 curve: genus-1 vertex, closed chain
        make_model(2, [("C", 1), ("F", 0)], [("C", "F"), ("F", "C")]),
        # genus-0 leaf with mark degree exactly m survives contraction
        make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                   [("P1", "L", 2), ("P2", "L", 1)]),
        # marks sharing a merge-group location
        make_model(4, [("C", 2)], [],
                   [("P1", "C", 1, "pt_E1"), ("P2", "C", 1, "pt_E1"),
                    ("P3", "C", 2, None)]),
        # rational vertex of valency 3 (essential, no sections for m=2)
        make_model(2, [("R", 0), ("A", 1), ("B", 1), ("C", 1)],
                   [("R", "A"), ("R", "B"), ("R", "C")]),
        # genus-0 total fiber: rational vertex with heavy marking
        make_model(2, [("R", 0)], [],
                   [("P1", "R", 1), ("P2", "R", 1), ("P3", "R", 1),
                    ("P4", "R", 1)]),
    ]


def roundtrip_corpus(seed: int = 1105, count: int = 50) -> list[DualGraphModel]:
    fixed = fixed_examples()
    rng = random.Random(seed)
    out = list(fixed)
    while len(out) < count:
        out.append(random_minimal_model(rng))
    return out[:count]


def comb_model(n: int, seed: int = 0) -> DualGraphModel:
    """Genus-2 pair joined by a chain of n rational bridges, each bridge
    carrying one unmarked rational tail (m = 2).  Component ids are
    shuffled, so the contraction order does not follow the chain."""
    rng = random.Random(seed)
    names = [f"c{k}" for k in range(2 * n + 2)]
    rng.shuffle(names)
    ends, bridges, tails = names[:2], names[2:n + 2], names[n + 2:]
    chain = [ends[0], *bridges, ends[1]]
    vertices = [(v, 2) for v in ends] + [(v, 0) for v in bridges + tails]
    edges = [(f"b{k}", chain[k], chain[k + 1]) for k in range(n + 1)]
    edges += [(f"t{k}", bridges[k], tails[k]) for k in range(n)]
    return make_model(2, vertices, edges)


def star_model(k: int, seed: int = 0, bumped: int | None = None) -> DualGraphModel:
    """k elliptic leaves on one rational hub at m = 2, declared in a
    shuffled order under shuffled ids; ``bumped`` raises one leaf to
    genus 2."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(k + 1)]
    rng.shuffle(names)
    hub, leaves = names[0], names[1:]
    vertices = [(hub, 0)] + [(v, 2 if i == bumped else 1)
                             for i, v in enumerate(leaves)]
    edges = [(f"s{i}", hub, v) for i, v in enumerate(leaves)]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return make_model(2, vertices, edges)


def relabeled(model: DualGraphModel, rng: random.Random) -> DualGraphModel:
    """The same marked graph under fresh shuffled ids and declaration order."""
    ids = ([c.id for c in model.components] + [e.id for e in model.edges]
           + [p.id for p in model.marks])
    fresh = [f"R{k}" for k in range(len(ids))]
    rng.shuffle(fresh)
    new = dict(zip(ids, fresh))
    vertices = [(new[c.id], c.genus, c.multiplicity) for c in model.components]
    edges = [(new[e.id], new[e.endpoints[0]], new[e.endpoints[1]])
             for e in model.edges]
    groups = {p.merge_group for p in model.marks if p.merge_group}
    group_names = dict(zip(sorted(groups), (f"G{k}" for k in range(len(groups)))))
    marks = [(new[p.id], new[p.host], p.coefficient,
              group_names.get(p.merge_group)) for p in model.marks]
    for seq in (vertices, edges, marks):
        rng.shuffle(seq)
    return make_model(model.params.m, vertices, edges, marks)
