"""Properties of the exact pipeline over generated models (hypothesis), and
of the bounded grid stage of ``ns_density`` over generated section systems.

Models come from the seeded generators in ``corpus``; hypothesis draws the
seeds and the extra structure (tails, relabelings, perturbations, blowup
chains).  The step-by-step contraction loop and the brute-force canonical
form in ``naive`` serve as oracles; the grid stage is checked against the
full grid of exact pseudonorms.  Runs are derandomized, so every run checks
the same examples.
"""
import cmath
import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import comb_model, random_minimal_model, random_model_with_tails, relabeled
from curvedegen import (
    Atom,
    CCMeasure,
    ComponentPoint,
    EdgePoint,
    LaurentFamily,
    ModelValidationError,
    NumericalConvergenceError,
    ParseError,
    SectionSystem,
    SmoothCollapse,
    arithmetic_genus,
    blowup_node,
    blowup_smooth_point,
    canonical_form,
    compose_maps,
    dimension_summary,
    emit_model,
    is_isomorphic,
    lift_measure,
    make_model,
    minimal_snc_model,
    parse_model,
    pb_limit_measure,
    pushforward_measure,
    total_mark_degree,
)
from curvedegen import density
from naive import brute_force_is_isomorphic, naive_minimal_snc_model, relabelings

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
minimal_models = seeds.map(lambda s: random_minimal_model(random.Random(s)))


def _fits(marks, pid, host, group):
    """False when the mark would make a merge group on ``host`` share its
    name with an ungrouped mark there, which models reject."""
    return not any(h == host and ((group and q == group and g is None)
                                  or (group is None and g == pid))
                   for q, h, _, g in marks)


@st.composite
def tailed_models(draw, groups=False):
    """A minimal core from the corpus plus drawn rational tails: tails may
    hang on tails, carry marks, and collide with the point ids that
    contraction invents (``pt_<tail>`` is sometimes already a mark id, or
    the id of a tail hanging on that tail, which goes first).  With
    ``groups``, tail marks may also sit in merge groups named like those
    ids, and the host of a tail may carry a mark in group ``pt_<tail>``;
    draws that would name a group like an ungrouped mark on the same host
    are skipped."""
    rng = random.Random(draw(seeds))
    if draw(st.booleans()):
        return random_model_with_tails(rng)
    core = random_minimal_model(rng, max_components=6, max_genus=4)
    m = core.params.m
    vertices = [(c.id, c.genus) for c in core.components]
    edges = [(e.id, *e.endpoints) for e in core.edges]
    marks = [(p.id, p.host, p.coefficient, p.merge_group) for p in core.marks]
    hosts = [c.id for c in core.components]
    taken = {x[0] for x in vertices + edges + marks}
    for k in range(draw(st.integers(1, 8))):
        host = hosts[draw(st.integers(0, len(hosts) - 1))]
        leaf = f"T{k}"
        if f"pt_{host}" not in taken and draw(st.booleans()):
            leaf = f"pt_{host}"
        vertices.append((leaf, 0))
        edges.append((f"te{k}", host, leaf))
        taken |= {leaf, f"te{k}"}
        for j in range(draw(st.integers(0, 2))):
            pid = f"pt_T{k + 1}" if draw(st.booleans()) else f"TP{k}_{j}"
            if pid not in taken:
                group = None
                if groups:
                    group = draw(st.sampled_from(
                        [None, f"pt_{leaf}", f"pt_T{k + 1}", f"pt_{host}"]))
                coefficient = draw(st.integers(1, m - 1))
                if _fits(marks, pid, leaf, group):
                    marks.append((pid, leaf, coefficient, group))
                    taken.add(pid)
        if (groups and f"HP{k}" not in taken and draw(st.booleans())
                and _fits(marks, f"HP{k}", host, f"pt_{leaf}")):
            marks.append((f"HP{k}", host, 1, f"pt_{leaf}"))
            taken.add(f"HP{k}")
        hosts.append(leaf)
    return make_model(m, vertices, edges, marks)


def _same_reduction(model):
    """The indexed reduction against the step-by-step loop, byte for byte."""
    reduced, dmap = minimal_snc_model(model)
    expected, expected_map = naive_minimal_snc_model(model)
    assert dmap.steps == expected_map.steps
    assert reduced == expected
    assert emit_model(reduced) == emit_model(expected)
    return reduced, dmap


@PROPERTY
@given(tailed_models(groups=True))
def test_reduction_matches_step_by_step_loop(model):
    try:
        naive_minimal_snc_model(model)
    except Exception as err:  # both must refuse the same models
        try:
            minimal_snc_model(model)
        except type(err) as again:
            assert str(again) == str(err)
            return
        raise AssertionError(f"reduction accepted a model the loop refused: {err}")
    _same_reduction(model)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 60), seeds)
def test_reduction_matches_loop_on_combs(n, seed):
    reduced, dmap = _same_reduction(comb_model(n, seed))
    assert len(dmap.steps) == n
    assert len(reduced.components) == n + 2


@PROPERTY
@given(tailed_models(groups=True))
def test_reduction_is_idempotent(model):
    try:
        reduced, _ = minimal_snc_model(model)
    except ModelValidationError:
        return
    again, dmap = minimal_snc_model(reduced)
    assert dmap.steps == ()
    assert again == reduced
    assert emit_model(again) == emit_model(reduced)


@PROPERTY
@given(tailed_models())
def test_dimension_identity_on_reduced_models(model):
    try:
        reduced, _ = minimal_snc_model(model)
    except ModelValidationError:
        return
    d = dimension_summary(reduced)
    m = reduced.params.m
    expected = (2 * m - 1) * (arithmetic_genus(reduced) - 1) + total_mark_degree(reduced)
    assert d.M == expected == d.skeleton_edges + sum(d.vertex_h0.values())


@PROPERTY
@given(minimal_models, seeds)
def test_push_after_lift_is_identity(model, seed):
    rng = random.Random(seed)
    mu0 = pb_limit_measure(model)
    current, mu, full = model, mu0, None
    for _ in range(rng.randint(1, 4)):
        if current.edges and rng.random() < 0.5:
            eid = rng.choice(sorted(e.id for e in current.edges))
            current, dmap = blowup_node(current, eid)
        else:
            cid = rng.choice(sorted(c.id for c in current.components))
            current, dmap = blowup_smooth_point(current, cid)
        mu = lift_measure(mu, dmap)
        full = dmap if full is None else compose_maps(dmap, full)
    assert lift_measure(mu0, full) == mu
    assert pushforward_measure(mu, full) == mu0


def _collapsed(step, loc) -> bool:
    """True when ``loc`` lies on a stratum that ``step`` collapses."""
    if isinstance(loc, ComponentPoint):
        return loc.component == step.component
    return isinstance(step, SmoothCollapse) and loc.edge == step.edge


@PROPERTY
@given(minimal_models, seeds)
def test_push_keeps_the_mass_of_atoms(model, seed):
    """Atoms at component points (collapse points among them) and interior
    edge points, added to a lifted measure: each one-step push keeps the
    total, and folds the collapsed strata into one atom at the step's point."""
    rng = random.Random(seed)
    current, maps = model, []
    for _ in range(rng.randint(1, 4)):
        if current.edges and rng.random() < 0.5:
            current, dmap = blowup_node(current, rng.choice(sorted(e.id for e in current.edges)))
        else:
            current, dmap = blowup_smooth_point(
                current, rng.choice(sorted(c.id for c in current.components)))
        maps.insert(0, dmap)
    full = maps[0]
    for dmap in maps[1:]:
        full = compose_maps(full, dmap)
    mu = lift_measure(pb_limit_measure(model), full)
    points = [s.point for d in maps for s in d.steps if isinstance(s, SmoothCollapse)]
    atoms = []
    for _ in range(rng.randint(1, 8)):
        mass = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        if rng.random() < 0.5:
            cid = rng.choice(sorted(c.id for c in current.components))
            atoms.append(Atom(rng.choice(points + [ComponentPoint(cid, "q")]), mass))
        else:
            eid = rng.choice(sorted(e.id for e in current.edges))
            x = current.edge_length(eid) * Fraction(rng.randint(1, 4), 5)
            atoms.append(Atom(EdgePoint(eid, x), mass))
    mu = CCMeasure(current, mu.kind, mu.components, mu.edges, tuple(atoms))
    assert pushforward_measure(mu, full).total_mass() == mu.total_mass()
    for dmap in maps:
        (step,) = dmap.steps
        pushed = pushforward_measure(mu, dmap)
        assert pushed.total_mass() == mu.total_mass()
        folded = mu.components[step.component].total + sum(
            (a.mass for a in mu.atoms
             if a.location == step.point or _collapsed(step, a.location)),
            mu.edges[step.edge] if isinstance(step, SmoothCollapse) else Fraction(0))
        at_point = [a.mass for a in pushed.atoms if a.location == step.point]
        assert at_point == ([folded] if folded else [])
        assert not any(_collapsed(step, a.location) for a in pushed.atoms)
        mu = pushed


@PROPERTY
@given(st.one_of(minimal_models, tailed_models(groups=True)), seeds)
def test_canonical_form_invariant_under_relabeling(model, seed):
    other = relabeled(model, random.Random(seed))
    assert canonical_form(other) == canonical_form(model)
    assert is_isomorphic(model, other)


@PROPERTY
@given(minimal_models, seeds)
def test_emit_parse_keeps_the_isomorphism_class(model, seed):
    other = relabeled(model, random.Random(seed))
    text = emit_model(other)
    parsed = parse_model(text).model
    assert is_isomorphic(parsed, model)
    assert emit_model(parsed) == text


_PIECES = re.compile(r"\s+|--|[{}=;]|\w+|\S")
_SPLICED = ["\u00b2", "\u00b3", "\u0663", "0", "-1", "--", "{", "}", ";", "=", "#",
            "model", "vertex", "edge", "mark", "on", "coeff", "group", "genus", "mult",
            "m", "e0", "A", "\u00e9", "\n", "1" * 5000]
edits = st.tuples(st.sampled_from(["drop", "replace", "insert", "swap"]),
                  st.integers(min_value=0), st.sampled_from(_SPLICED))


@settings(PROPERTY, max_examples=200)
@given(st.one_of(minimal_models, tailed_models(groups=True)),
       st.lists(edits, min_size=1, max_size=3))
def test_mutated_model_text_parses_or_fails_at_a_position(model, steps):
    # token-level edits of emitted text: any failure must be a located ParseError
    pieces = _PIECES.findall(emit_model(model))
    for op, where, token in steps:
        words = [i for i, piece in enumerate(pieces) if not piece.isspace()]
        i = words[where % len(words)]
        if op == "drop":
            del pieces[i]
        elif op == "replace":
            pieces[i] = token
        elif op == "insert":
            pieces.insert(i, token + " ")
        else:
            pieces[i:i + 2] = pieces[i + 1:i + 2] + pieces[i:i + 1]
    try:
        parse_model("".join(pieces))
    except ParseError as err:
        assert err.line is not None and err.column is not None


def _perturbed(model, rng):
    """One genus, mark or edge changed; may or may not stay isomorphic."""
    vertices = [(c.id, c.genus, c.multiplicity) for c in model.components]
    edges = [(e.id, *e.endpoints) for e in model.edges]
    marks = [(p.id, p.host, p.coefficient, p.merge_group) for p in model.marks]
    names = [v[0] for v in vertices]
    kind = rng.randrange(5)
    if kind == 0:
        i = rng.randrange(len(vertices))
        vid, g, mult = vertices[i]
        vertices[i] = (vid, g + 1, mult)
        j = rng.randrange(len(vertices))  # and lower another, if it can
        vid, g, mult = vertices[j]
        vertices[j] = (vid, max(g - 1, 0), mult)
    elif kind == 1 and marks:
        i = rng.randrange(len(marks))
        pid, _, coeff, group = marks.pop(i)
        hosts = [v for v in names if _fits(marks, pid, v, group)]
        marks.insert(i, (pid, rng.choice(hosts), coeff, group))
    elif kind == 2 and marks:
        i = rng.randrange(len(marks))
        pid, host, coeff, group = marks[i]
        marks[i] = (pid, host, max(1, coeff + rng.choice((-1, 1))), group)
    elif kind == 3 and edges and len(names) > 2:
        i = rng.randrange(len(edges))
        eid, a, b = edges[i]
        c = rng.choice([v for v in names if v != a])
        edges[i] = (eid, a, c)
    elif len(names) > 1:
        a, b = rng.sample(names, 2)
        edges.append(("extra", a, b))
    return make_model(model.params.m, vertices, edges, marks)


@PROPERTY
@given(st.one_of(minimal_models, tailed_models(groups=True)), seeds)
def test_isomorphism_agrees_with_brute_force(model, seed):
    rng = random.Random(seed)
    for other in (relabeled(model, rng), relabeled(_perturbed(model, rng), rng)):
        if max(relabelings(model), relabelings(other)) > 5040:
            continue
        assert is_isomorphic(model, other) == brute_force_is_isomorphic(model, other)


def _regular_multigraph(n, degree, rng):
    """A random degree-regular multigraph on n elliptic components: every
    vertex has the same color and valency, so only the search can tell
    two of them apart."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in pairs):
            return make_model(2, [(f"V{v}", 1) for v in range(n)],
                              [(f"V{a}", f"V{b}") for a, b in pairs])


@PROPERTY
@given(st.sampled_from([(5, 2), (6, 2), (6, 3), (6, 4), (7, 2)]), seeds)
def test_isomorphism_agrees_with_brute_force_on_regular_graphs(shape, seed):
    rng = random.Random(seed)
    a = _regular_multigraph(*shape, rng)
    b = _regular_multigraph(*shape, rng)
    assert is_isomorphic(a, b) == brute_force_is_isomorphic(a, b)
    assert is_isomorphic(a, relabeled(a, rng))


@PROPERTY
@given(st.sampled_from([(9, 4), (10, 3), (12, 3), (12, 5), (16, 3)]), seeds)
def test_canonical_form_invariant_on_larger_regular_graphs(shape, seed):
    # past brute-force reach: deeper search trees with several distinct
    # leaf certificates, so every pruning step is exercised
    rng = random.Random(seed)
    model = _regular_multigraph(*shape, rng)
    form = canonical_form(model)
    for _ in range(3):
        assert canonical_form(relabeled(model, rng)) == form


@st.composite
def section_systems(draw):
    """A system of M = 2-4 drawn families at m = 2 or 3 and depth logt in
    {12, 1e2, 1e3}, and a point w on its chart.  Each family has a term z^a
    or w^b (a, b <= 2), so it is not zero on every node, and up to two
    terms z^a w^b, which decay like |t|^min(a, b) and make tiny rows.
    Some systems draw real coefficients only: their grid pseudonorms score
    one row of each conjugate pair (``SectionSystem.grid_pn``)."""
    rng = random.Random(draw(seeds))
    m = draw(st.sampled_from([2, 3]))
    logt = draw(st.sampled_from([12.0, 1e2, 1e3]))
    real = draw(st.booleans())

    def coeff():
        return complex(rng.uniform(-1, 1), 0.0 if real else rng.uniform(-1, 1))

    families = []
    for _ in range(draw(st.integers(2, 4))):
        k = rng.randint(0, 2)
        terms = {(k, 0) if rng.random() < 0.5 else (0, k): coeff()}
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = coeff()
        families.append(LaurentFamily.from_dict(m, terms))
    try:
        system = SectionSystem(families, logt)
    except NumericalConvergenceError:
        assume(False)  # the build check refused the grid
    s = rng.uniform(0.0, min(logt, 8.0))
    return system, cmath.rect(math.exp(-s), rng.uniform(0, 2 * math.pi))


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(section_systems())
def test_grid_stage_keeps_the_top_two_rows(drawn):
    system, w = drawn
    v = system.values_at(w)
    assume(v.any())  # else every score is -inf, and ns_density refuses
    C = system.grid()[0]
    bounds = []
    stage_bounds = density._pn_bounds

    def recorded(system, c, part, rest):
        lo, hi = stage_bounds(system, c, part, rest)
        bounds.append((c, lo, hi))
        return lo, hi

    with mock.patch.object(density, "_pn_bounds", recorded):
        rows, scores = density._grid_scores(system, C, None, v)
    # on a real-coefficient system these are the paired pseudonorms
    C, pn = system.grid_pn()
    with np.errstate(divide="ignore"):
        full = (2.0 / system.m) * np.log(np.abs(C @ v)) - np.log(pn)
    # the stage's top two rows hold the full grid's top two scores (rows
    # tied within 1e-13 may trade places)
    top = np.sort(full)[-2:]
    kept = np.sort(full[rows[np.argsort(scores)[-2:]]])
    np.testing.assert_allclose(kept, top, rtol=0, atol=1e-13 * max(1.0, abs(top).max()))
    # at every chunk the bounds hold the pseudonorms of the full grid
    index = {tuple(c): i for i, c in enumerate(C)}
    for c, lo, hi in bounds:
        exact = pn[[index[tuple(r)] for r in c]]
        assert np.all(lo <= exact) and np.all(exact <= hi)
