"""Command line front end.

Exit codes: 0 success, 1 input or validation problem, 2 internal
consistency failure, 3 numerical non-convergence.  All output is
deterministic for fixed inputs, so reruns are byte-identical: the numeric
grids take no options.  ``verify --seed`` is accepted and ignored.
"""
from __future__ import annotations

import argparse
import json
import sys

from .dotio import emit_dot, emit_stable_dot
from .dsl import ModelDocument, emit_model, parse_model
from .errors import (CurveDegenError, InternalConsistencyError,
                     NumericalConvergenceError, ParseError)
from .experiments import (norm_asymptotics_experiment, pairing_experiments,
                          region_mass_experiment)
from .jsonio import (dumps, graph_to_json, map_to_json, measure_to_json,
                     report_to_json, skeleton_to_json, summary_to_json,
                     to_jsonable)
from .laurent import LaurentFamily
from .limits import (dimension_summary, large_m_limit_fixed_divisor,
                     large_m_limit_fixed_qdivisor, ns_limit_measure,
                     pb_limit_measure, pushforward_to_fiber, pushforward_to_hyb,
                     stable_curve_ns_measure)
from .model import DualGraphModel, validate
from .reduction import (StableDualGraph, essential_skeleton, minimal_snc_model,
                        stable_dual_graph)

__all__ = ["main"]


def _document(path: str) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _load(path: str) -> DualGraphModel:
    return _document(path).model


def _write(path: str | None, text: str):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(args) -> int:
    doc = _document(args.file)
    report = validate(doc.model)
    if args.json:
        sys.stdout.write(dumps(report_to_json(report)))
    else:
        if report.ok:
            print("ok")
        for kind, found in (("error", report.errors), ("warning", report.warnings)):
            for v in found:
                # point at the declaration of the id the violation names
                loc = doc.location_of(v.subject)
                where = f"{args.file}:{loc[0]}:{loc[1]}: " if loc else ""
                print(f"{where}{kind}[{v.code}] {v.subject}: {v.message}")
    return 0 if report.ok else 1


def _cmd_reduce(args) -> int:
    model = _load(args.file)
    reduced, dom = minimal_snc_model(model)
    if args.json:
        sys.stdout.write(dumps(map_to_json(dom)))
    else:
        for step in dom.steps:
            print(f"# collapse {step.component} into {step.host} at {step.location}")
        sys.stdout.write(emit_model(reduced))
    _write(args.dot, emit_dot(reduced))
    _write(args.emit, emit_model(reduced))
    return 0


def _cmd_stable_graph(args) -> int:
    model = _load(args.file)
    graph = stable_dual_graph(model)
    if args.json:
        sys.stdout.write(dumps(graph_to_json(graph)))
    else:
        for v in sorted(graph.vertices):
            print(f"vertex {v} genus={graph.genus[v]} marks={graph.mark_degree[v]}")
        for ch in sorted(graph.chains, key=lambda c: c.id):
            a, b = ch.endpoints
            print(f"chain {ch.id} {a} -- {b} length={ch.length} via={','.join(ch.model_edges)}")
    _write(args.dot, emit_stable_dot(graph))
    return 0


def _cmd_skeleton(args) -> int:
    model = _load(args.file)
    skel = essential_skeleton(model)
    if args.json:
        sys.stdout.write(dumps(skeleton_to_json(skel)))
    else:
        for eid, length in sorted(skel.edge_lengths().items()):
            print(f"edge {eid} length={length}")
        print(f"total {skel.total_length()}")
    return 0


def _cmd_dims(args) -> int:
    model = _load(args.file)
    summary = dimension_summary(model)
    if args.json:
        sys.stdout.write(dumps(summary_to_json(summary)))
    else:
        print(f"m={summary.m} genus={summary.genus} mark_degree={summary.mark_degree}")
        print(f"dimension M={summary.M} = {summary.skeleton_edges} chain(s)"
              f" + sum h0 = {sum(summary.vertex_h0.values())}")
        for cid, h in sorted(summary.vertex_h0.items()):
            print(f"h0[{cid}] = {h}")
    return 0


def _cmd_measure(args) -> int:
    model = _load(args.file)
    if args.kind == "ns":
        measure = ns_limit_measure(model, estimate_genus0=args.estimate_genus0)
    else:
        measure = pb_limit_measure(model)
    if args.push == "hyb":
        out = pushforward_to_hyb(measure)
    elif args.push == "fiber":
        out = pushforward_to_fiber(measure)
    else:
        out = measure
    sys.stdout.write(dumps(measure_to_json(out)))
    _write(args.dot, emit_dot(model, measure=measure))
    return 0


def _cmd_limit(args) -> int:
    model = _load(args.file)
    if args.mode == "fixed-B":
        out = large_m_limit_fixed_divisor(model)
    else:
        out = large_m_limit_fixed_qdivisor(model)
    sys.stdout.write(dumps(measure_to_json(out)))
    return 0


def _cmd_stable_measure(args) -> int:
    model = _load(args.file)
    graph = stable_dual_graph(model)
    out = stable_curve_ns_measure(graph)
    sys.stdout.write(dumps(measure_to_json(out)))
    return 0


def _pick_chain(graph: StableDualGraph, chain_id: str | None):
    chains = sorted(graph.chains, key=lambda c: c.id)
    if not chains:
        raise ParseError("the model has no skeleton chains to verify against")
    if chain_id is None:
        return chains[0]
    for ch in chains:
        if ch.id == chain_id:
            return ch
    raise ParseError(f"no chain named {chain_id!r}; have {[c.id for c in chains]}")


def _numbers(option: str, text: str, count: int | None = None) -> tuple[float, ...]:
    """The comma-separated numbers given to ``option``, exactly ``count``
    of them if it is given; ParseError names the option otherwise."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        values = ()
    if not values or (count is not None and len(values) != count):
        what = "two comma-separated numbers a,b" if count == 2 else "comma-separated numbers"
        raise ParseError(f"{option} takes {what}; got {text!r}")
    return values


def _cmd_verify(args) -> int:
    model = _load(args.file)
    graph = stable_dual_graph(model)
    chain = _pick_chain(graph, args.chain)
    m = model.params.m
    l = len(chain.model_edges)
    logt_grid = _numbers("--logt", args.logt)

    base = LaurentFamily.from_w_powers(m, {0: 1.0, 1: args.correction}, chain_length=l)
    if args.experiment == "norm":
        results = [norm_asymptotics_experiment(base, logt_grid)]
    else:
        if l != 1:
            raise ParseError("pairing and region experiments need a single-node "
                             f"chain; {chain.id} crosses {l} nodes")
        second = LaurentFamily.from_w_powers(m, {1: 1.0})
        if args.experiment == "region-mass":
            results = [region_mass_experiment([base, second],
                                              _numbers("--region", args.region, 2),
                                              logt_grid=logt_grid)]
        else:
            # bare "pairing" reports the diagonal growth and the cross-term decay
            diag, off = pairing_experiments([base, second], member=0, pair=(0, 1),
                                            logt_grid=logt_grid)
            results = {"pairing": [diag, off], "pairing-diag": [diag],
                       "pairing-offdiag": [off]}[args.experiment]
    for r in results:
        r.metadata.update({"model_m": m, "chain": chain.id, "chain_nodes": l})
    text = "".join(r.to_columns() for r in results)
    if args.json:
        docs = [{
            "name": r.name,
            "logt": list(r.logt_grid),
            "observed": list(r.observed),
            "reference": list(r.reference),
            "rel_errors": list(r.rel_errors),
            "fitted_exponent": r.fitted_exponent,
            "metadata": r.metadata,
        } for r in results]
        sys.stdout.write(dumps(docs[0] if len(docs) == 1 else docs))
    else:
        sys.stdout.write(text)
    _write(args.columns, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedegen",
        description="Limit measures of degenerating one-parameter families of curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        q = sub.add_parser(name, help=help_text)
        q.set_defaults(fn=fn)
        return q

    q = add("validate", _cmd_validate, "check a model file")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")

    q = add("reduce", _cmd_reduce, "contract to the minimal snc model")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.add_argument("--dot", metavar="PATH")
    q.add_argument("--emit", metavar="PATH")

    q = add("stable-graph", _cmd_stable_graph, "stable dual graph with chain lengths")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.add_argument("--dot", metavar="PATH")

    q = add("skeleton", _cmd_skeleton, "essential skeleton edge lengths")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")

    q = add("dims", _cmd_dims, "section space dimension split over the graph")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")

    q = add("measure", _cmd_measure, "limit measure on the metrized curve complex")
    q.add_argument("file")
    q.add_argument("--kind", choices=["ns", "pb"], required=True)
    q.add_argument("--push", choices=["cc", "hyb", "fiber"], default="cc")
    q.add_argument("--estimate-genus0", action="store_true",
                   help="numerically estimate genus-0 vertex masses")
    q.add_argument("--json", action="store_true")
    q.add_argument("--dot", metavar="PATH", help="DOT file of the curve-complex masses")

    q = add("limit", _cmd_limit, "large-m limit of normalized vertex masses")
    q.add_argument("file")
    q.add_argument("--mode", choices=["fixed-B", "fixed-QB"], required=True)
    q.add_argument("--json", action="store_true")

    q = add("stable-measure", _cmd_stable_measure,
            "limit measure of an unmarked stable curve")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")

    q = add("verify", _cmd_verify, "run a convergence experiment on node charts")
    q.add_argument("--experiment", required=True,
                   choices=["norm", "region-mass", "pairing",
                            "pairing-diag", "pairing-offdiag"])
    q.add_argument("--model", dest="file", required=True)
    q.add_argument("--chain", default=None)
    q.add_argument("--logt", default="100,1000,10000",
                   help="comma separated log(1/|t|) grid")
    q.add_argument("--seed", type=int, default=2024,
                   help="accepted and ignored: the coefficient grids are fixed")
    q.add_argument("--correction", type=float, default=0.3,
                   help="first-order correction coefficient of the test family")
    q.add_argument("--region", default="0.2,0.4",
                   help="edge subinterval for region-mass")
    q.add_argument("--columns", metavar="PATH",
                   help="also write the column table to this file")
    q.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalConsistencyError as err:
        print(f"internal consistency error: {err}", file=sys.stderr)
        return 2
    except NumericalConvergenceError as err:
        print(f"numerical convergence failure: {err}", file=sys.stderr)
        details = {"best": err.best, "diagnostics": err.diagnostics}
        print(json.dumps(to_jsonable(details), sort_keys=True), file=sys.stderr)
        return 3
    except (CurveDegenError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
