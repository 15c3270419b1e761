"""The key tree of every JSON view, pinned.

Each row runs one ``--json`` form of the CLI (or one view the CLI cannot
reach) on a small fixed model and compares the nested keys of the output
with a literal.  A view prints its type's dataclass fields, so renaming
a field renames a JSON key; the table makes that rename fail here.
"""
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from curvedegen import (Atom, EdgePoint, blowup_node, blowup_smooth_point,
                        lift_measure, make_model, pb_limit_measure, pushforward_measure)
from curvedegen.cli import main
from curvedegen.jsonio import dumps, map_to_json, measure_to_json
from curvedegen.measures import pb_descriptor

MODELS = {
    # an error that names a mark and a warning that names a component
    "flawed": """\
model {
  m = 2;
  vertex E { genus = 1 };
  vertex F { genus = 1 };
  edge E -- F;
  mark P1 on E coeff 1 group g;
  mark P2 on E coeff 1 group g;
  mark P3 on E coeff 5
}
""",
    # the marked rational tail T collapses onto E2
    "tailed": """\
model {
  m = 2;
  vertex E1 { genus = 1 };
  vertex E2 { genus = 1 };
  vertex T { genus = 0 };
  edge n E1 -- E2;
  edge t E2 -- T;
  mark P1 on T coeff 1
}
""",
    # minimal and unmarked; the bridge R carries the zero measure
    "bridged": """\
model {
  m = 2;
  vertex E1 { genus = 1 };
  vertex R { genus = 0 };
  vertex E2 { genus = 1 };
  edge a E1 -- R;
  edge b R -- E2
}
""",
    "dumbbell": """\
model {
  m = 2;
  vertex E1 { genus = 1 };
  vertex E2 { genus = 1 };
  edge n E1 -- E2
}
""",
    "rational4": """\
model {
  m = 2;
  vertex R { genus = 0 };
  mark P0 on R coeff 1;
  mark P1 on R coeff 1;
  mark P2 on R coeff 1;
  mark P3 on R coeff 1
}
""",
}


def key_tree(doc):
    """Nested keys of ``doc``: an exact rational is "Q", any other scalar
    None, and a list the distinct trees of its items in order."""
    if isinstance(doc, dict):
        if doc.keys() == {"num", "den"}:
            return "Q"
        return {k: key_tree(v) for k, v in doc.items()}
    if isinstance(doc, list):
        trees = []
        for tree in map(key_tree, doc):
            if tree not in trees:
                trees.append(tree)
        return trees
    return None


def node_collapse_map():
    model = make_model(2, [("E1", 1), ("E2", 1, 2)], [("n", "E1", "E2")])
    return map_to_json(blowup_node(model, "n")[1])


def pushed_atoms_of_both_kinds():
    """An atom at a smooth collapse point and one inside an edge."""
    model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
    b1, d1 = blowup_node(model, "n")
    _, d2 = blowup_smooth_point(b1, "exc_n")
    blown = lift_measure(lift_measure(pb_limit_measure(model), d1), d2)
    (smooth,) = d2.steps
    mu = replace(blown, components=dict(blown.components,
                                        **{smooth.component: pb_descriptor(None, 1)}))
    pushed = pushforward_measure(mu, d2)
    pinned = Atom(EdgePoint("n_a", Fraction(1, 4)), Fraction(1, 3))
    return measure_to_json(replace(pushed, atoms=pushed.atoms + (pinned,)))


MODEL_DOC = {"m": None,
             "vertices": [{"id": None, "genus": None, "mult": None}],
             "edges": [{"id": None, "endpoints": [None], "length": "Q"}],
             "marks": []}
BUNDLE = {"component": None, "m": None, "genus": None, "valency": None,
          "mark_degree": None, "degree": None}
PB = {"kind": None, "total": "Q", "bundle": BUNDLE}
ZERO = {"kind": None, "total": "Q"}
NS = {"kind": None, "total": None, "bundle": BUNDLE}
EXPERIMENT = {"name": None, "logt": [None], "observed": [None], "reference": [None],
              "rel_errors": [None], "fitted_exponent": None}
CHAIN_META = {"model_m": None, "chain": None, "chain_nodes": None}

SCHEMAS = [
    ("validate", ["validate", "flawed"], {
        "ok": None,
        "errors": [{"code": None, "message": None, "subject": None}],
        "warnings": [{"code": None, "message": None, "subject": None}]}),
    ("reduce", ["reduce", "tailed"], {
        "source": dict(MODEL_DOC, marks=[{"id": None, "on": None, "coeff": None}]),
        "target": dict(MODEL_DOC, marks=[{"id": None, "on": None, "coeff": None,
                                          "group": None}]),
        "steps": [{"type": None, "component": None, "edge": None, "host": None,
                   "location": None, "moved_marks": [None]}]}),
    ("reduce-node-collapse", node_collapse_map, {
        "source": MODEL_DOC,
        "target": MODEL_DOC,
        "steps": [{"type": None, "component": None, "edges": [None],
                   "merged_edge": None, "lengths": ["Q"]}]}),
    ("stable-graph", ["stable-graph", "tailed"], {
        "m": None,
        "vertices": [{"id": None, "genus": None, "mark_degree": None}],
        "chains": [{"id": None, "endpoints": [None], "edges": [None],
                    "interior": [], "length": "Q"}]}),
    ("skeleton", ["skeleton", "bridged"], {
        "model": MODEL_DOC, "is_essential_skeleton": None,
        "edge_lengths": {"a": "Q", "b": "Q"}, "total_length": "Q"}),
    ("dims", ["dims", "bridged"], {
        "m": None, "genus": None, "mark_degree": None, "dimension": None,
        "skeleton_edges": None, "vertex_h0": {"E1": None, "R": None, "E2": None}}),
    ("measure-pb", ["measure", "bridged", "--kind", "pb"], {
        "space": None, "kind": None, "total": "Q", "atoms": [],
        "components": {"E1": PB, "R": ZERO, "E2": PB},
        "edges": {"a": "Q", "b": "Q"}}),
    ("measure-ns", ["measure", "bridged", "--kind", "ns", "--push", "cc"], {
        "space": None, "kind": None, "total": None, "atoms": [],
        "components": {"E1": NS, "R": ZERO, "E2": NS},
        "edges": {"a": "Q", "b": "Q"}}),
    ("measure-hyb", ["measure", "bridged", "--kind", "pb", "--push", "hyb"], {
        "space": None, "kind": None, "total": "Q", "on_essential_skeleton": None,
        "vertex_atoms": {"E1": "Q", "R": "Q", "E2": "Q"},
        "edges": {"a": "Q", "b": "Q"}}),
    ("measure-fiber", ["measure", "bridged", "--kind", "pb", "--push", "fiber"], {
        "space": None, "kind": None, "total": "Q",
        "components": {"E1": PB, "R": ZERO, "E2": PB},
        "node_atoms": {"a": "Q", "b": "Q"}}),
    ("measure-pushed-atoms", pushed_atoms_of_both_kinds, {
        "space": None, "kind": None, "total": "Q",
        "components": {"E1": PB, "E2": PB, "exc_n": ZERO},
        "edges": {"n_a": "Q", "n_b": "Q"},
        "atoms": [{"location": {"component": None, "point": None}, "mass": "Q"},
                  {"location": {"edge": None, "position": "Q"}, "mass": "Q"}]}),
    ("measure-estimate", ["measure", "rational4", "--kind", "ns", "--estimate-genus0"], {
        "space": None, "kind": None, "atoms": [], "edges": {},
        "total": {"estimate": None, "error": None},
        "components": {"R": {"kind": None, "total": {"estimate": None, "error": None},
                             "bundle": BUNDLE}}}),
    ("limit-fixed-B", ["limit", "bridged", "--mode", "fixed-B"], {
        "space": None, "kind": None, "total": "Q", "on_essential_skeleton": None,
        "vertex_atoms": {"E1": "Q", "R": "Q", "E2": "Q"}, "edges": {}}),
    ("limit-fixed-QB", ["limit", "bridged", "--mode", "fixed-QB"], {
        "space": None, "kind": None, "total": "Q", "on_essential_skeleton": None,
        "vertex_atoms": {"E1": "Q", "R": "Q", "E2": "Q"}, "edges": {}}),
    ("stable-measure", ["stable-measure", "bridged"], {
        "space": None, "kind": None, "total": None,
        "components": {"E1": NS, "E2": NS},
        "node_atoms": {"ch0": "Q"}}),
    ("verify-norm", ["verify", "--experiment", "norm", "--model", "dumbbell",
                     "--logt", "10,100"], dict(EXPERIMENT, metadata=dict(
                         CHAIN_META, m=None, chain_length=None, truncation=[None],
                         residue={"re": None, "im": None}))),
    ("verify-pairing", ["verify", "--experiment", "pairing", "--model", "dumbbell",
                        "--logt", "10,100"], [
        dict(EXPERIMENT, metadata=dict(CHAIN_META, m=None, member=None,
                                       n_families=None, truncation=[None])),
        dict(EXPERIMENT, metadata=dict(CHAIN_META, m=None, pair=[None],
                                       n_families=None))]),
]


@pytest.mark.parametrize("call, keys", [row[1:] for row in SCHEMAS],
                         ids=[row[0] for row in SCHEMAS])
def test_json_key_tree(call, keys, tmp_path, capsys):
    if callable(call):
        doc = json.loads(dumps(call()))
    else:
        argv = []
        for arg in call:
            if arg in MODELS:
                path = tmp_path / f"{arg}.cdm"
                path.write_text(MODELS[arg])
                arg = str(path)
            argv.append(arg)
        main(argv + ["--json"])
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
    assert key_tree(doc) == keys
