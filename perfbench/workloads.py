"""The three workloads.  Each builds its inputs from the seed in its
constructor (the set-up) and runs one whole round of operations per call
to ``round``; every round attempts the same operations (on
``exact-corpus`` the fresh calls take the eight subcommands in turn), so
the share of failed operations is the same in every run.

An operation is one timed call sequence into the program, timed in CPU
seconds (``bootstrap.cpu_seconds``).  Its answer is checked against
``oracles`` after the clock stops.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import inputs
import oracles
from bootstrap import cpu_seconds

FAILED = object()


class Tally:
    """Timings, attempt/failure counts and oracle verdicts of one run."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.op_times: dict[str, list[float]] = {}
        self.cli_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def span(self, name, op=None):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, op)

    def op(self, key, fn, *args):
        """Time fn(*args); an exception counts the operation as failed."""
        self.attempted += 1
        with self.span("bench.op", key):
            start = cpu_seconds()
            try:
                out = fn(*args)
            except Exception as err:  # any raise is a failed operation
                self.failed += 1
                self.failures.append(f"{key}: {type(err).__name__}: {err}")
                return FAILED
            elapsed = cpu_seconds() - start
        self.op_times.setdefault(key, []).append(elapsed)
        return out

    def cli(self, key, args, workdir: Path):
        """One fresh `curvedegen` process; returns its parsed JSON output."""
        self.attempted += 1
        with self.span("cli.fresh_call", key):
            start = cpu_seconds()
            proc = subprocess.run([sys.executable, "-m", "curvedegen", *args],
                                  cwd=workdir, capture_output=True, text=True,
                                  timeout=150)
            elapsed = cpu_seconds() - start
        if proc.returncode != 0:
            self.failed += 1
            self.failures.append(f"{key}: exit {proc.returncode}: {proc.stderr.strip()}")
            return FAILED
        self.cli_times.append(elapsed)
        return json.loads(proc.stdout)

    def check(self, where, fails):
        self.wrong.extend(f"{where}: {msg}" for msg in fails)


def _write(workdir: Path, name: str, spec: inputs.Spec) -> str:
    path = workdir / name
    path.write_text(inputs.spec_text(spec), encoding="utf-8")
    return str(path)


def _build(cd, spec: inputs.Spec):
    return cd.make_model(spec.m, spec.vertices, spec.edges, spec.marks)


def _chain_masses(measure, graph):
    return [sum((measure.edges[e] for e in ch.model_edges), 0)
            for ch in graph.chains]


# -- exact-corpus --------------------------------------------------------------


class ExactCorpus:
    """Seeded small models through the whole exact pipeline in process,
    with fresh `curvedegen` processes on two sample files among them."""

    CLI_PER_ROUND = 3

    def __init__(self, cd, seed: int, workdir: Path):
        self.cd = cd
        rng = random.Random(seed)
        specs = inputs.corpus(seed) + [inputs.over_cap_model()]
        self.items = []
        for i, spec in enumerate(specs):
            self.items.append({
                "spec": spec,
                "model": _build(cd, spec),
                "relabeled": _build(cd, inputs.relabel(spec, rng)),
                "chain_seed": rng.randrange(2 ** 32),
                "fixed_b": oracles.fixed_b_total(spec) is not None,
                "fixed_qb": oracles.fixed_qb_total(spec) is not None,
            })
        self.tails = next(s for s in specs if s.tails and s.marks)
        self.stable = inputs.stable_model(rng)
        self.workdir = workdir
        self.calls = self._cli_calls(_write(workdir, "tails.cdm", self.tails),
                                     _write(workdir, "stable.cdm", self.stable))
        self.next_call = 0

    def _blowup_roundtrip(self, model, mu0, rng):
        cd = self.cd
        current, mu, maps = model, mu0, []
        for _ in range(rng.randint(1, 3)):
            if current.edges and rng.random() < 0.5:
                eid = rng.choice(sorted(e.id for e in current.edges))
                current, dmap = cd.blowup_node(current, eid)
            else:
                cid = rng.choice(sorted(c.id for c in current.components))
                current, dmap = cd.blowup_smooth_point(current, cid)
            mu = cd.lift_measure(mu, dmap)
            maps.append(dmap)
        full = maps[0]
        for dmap in maps[1:]:
            full = cd.compose_maps(dmap, full)
        return (cd.pushforward_measure(cd.lift_measure(mu0, full), full) == mu0
                and cd.pushforward_measure(mu, full) == mu0)

    def _pipeline(self, item):
        cd = self.cd
        text = cd.emit_model(item["model"])
        parsed = cd.parse_model(text).model
        valid = cd.validate(parsed).ok
        stable = cd.emit_model(parsed) == text
        reduced, dom = cd.minimal_snc_model(parsed)
        _, again = cd.minimal_snc_model(reduced)
        graph = cd.stable_dual_graph(reduced)
        summary = cd.dimension_summary(reduced)
        pb = cd.pb_limit_measure(reduced)
        ns = cd.ns_limit_measure(reduced)
        hyb = cd.pushforward_to_hyb(pb)
        fiber = cd.pushforward_to_fiber(pb)
        fixed_b = (cd.large_m_limit_fixed_divisor(reduced).total_mass()
                   if item["fixed_b"] else None)
        fixed_qb = (cd.large_m_limit_fixed_qdivisor(reduced).total_mass()
                    if item["fixed_qb"] else None)
        identity = self._blowup_roundtrip(reduced, pb, random.Random(item["chain_seed"]))
        iso = cd.is_isomorphic(parsed, item["relabeled"])
        return {
            "valid": valid, "emit_stable": stable,
            "contractions": len(dom.steps),
            "reduced_components": len(reduced.components),
            "rereduce_steps": len(again.steps),
            "dimension": summary.M,
            "split": summary.skeleton_edges + sum(summary.vertex_h0.values()),
            "pb_total": pb.total_mass(), "hyb_total": hyb.total_mass(),
            "fiber_total": fiber.total_mass(),
            "pb_chain_masses": _chain_masses(pb, graph),
            "ns_chain_masses": _chain_masses(ns, graph),
            "fixed_b_total": fixed_b, "fixed_qb_total": fixed_qb,
            "push_lift_identity": identity, "isomorphic": iso,
        }

    def round(self, tally: Tally):
        # One pass over the models with CLI_PER_ROUND fresh calls spread
        # through it; the calls take the eight subcommands in turn, so
        # every run starts them in the same order.
        stops = {len(self.items) * (k + 1) // (self.CLI_PER_ROUND + 1)
                 for k in range(self.CLI_PER_ROUND)}
        for i, item in enumerate(self.items):
            if i in stops:
                self._next_cli(tally)
            out = tally.op(f"model-{i}", self._pipeline, item)
            if out is not FAILED:
                tally.check(f"model {i}", oracles.check_corpus_model(item["spec"], out))

    def _next_cli(self, tally: Tally):
        key, args, read = self.calls[self.next_call % len(self.calls)]
        self.next_call += 1
        doc = tally.cli(f"cli-{key}", args, self.workdir)
        if doc is not FAILED:
            tally.check(f"cli {key}",
                        oracles.check_corpus_cli(self.tails, self.stable, read(doc)))

    @staticmethod
    def _cli_calls(t: str, s: str):
        """(key, arguments, reader of the oracle fields from its JSON)."""
        frac = oracles.fraction_of
        return [
            ("validate", ["validate", t, "--json"],
             lambda doc: {"validate_ok": doc["ok"]}),
            ("reduce", ["reduce", t, "--json"],
             lambda doc: {"reduce_steps": len(doc["steps"])}),
            ("skeleton", ["skeleton", t, "--json"],
             lambda doc: {"skeleton_total": frac(doc["total_length"])}),
            ("dims", ["dims", s, "--json"],
             lambda doc: {"dims_M": doc["dimension"]}),
            ("stable-graph", ["stable-graph", s, "--json"],
             lambda doc: {"chain_lengths": [frac(ch["length"]) for ch in doc["chains"]]}),
            ("measure", ["measure", s, "--kind", "pb", "--push", "hyb", "--json"],
             lambda doc: {"pb_hyb_total": frac(doc["total"])}),
            ("limit", ["limit", s, "--mode", "fixed-B", "--json"],
             lambda doc: {"fixed_b_total": frac(doc["total"])}),
            ("stable-measure", ["stable-measure", s, "--json"],
             lambda doc: {"node_atoms": [frac(v) for v in doc["node_atoms"].values()]}),
        ]


# -- exact-large ---------------------------------------------------------------


class ExactLarge:
    """comb(n) reductions and brute-force canonical forms on stars."""

    def __init__(self, cd, seed: int, workdir: Path):
        self.cd = cd
        rng = random.Random(seed)
        self.combs = [(n, _build(cd, inputs.comb(n, rng))) for n in inputs.COMB_SIZES]
        self.stars = []
        for k in inputs.STAR_SIZES:
            bumped = rng.randrange(k)
            self.stars.append((k, _build(cd, inputs.star(k, rng)),
                               _build(cd, inputs.star(k, rng)),
                               _build(cd, inputs.star(k, rng, bumped))))
        k = inputs.STAR_OVER_CAP
        self.over_cap = (_build(cd, inputs.star(k, rng)), _build(cd, inputs.star(k, rng)))
        self.workdir = workdir
        self.comb_file = _write(workdir, "comb.cdm", inputs.comb(inputs.COMB_SIZES[0], rng))

    def _comb(self, model):
        cd = self.cd
        reduced, dom = cd.minimal_snc_model(model)
        graph = cd.stable_dual_graph(reduced)
        skeleton = cd.essential_skeleton(reduced)
        summary = cd.dimension_summary(reduced)
        pb = cd.pb_limit_measure(reduced)
        ns = cd.ns_limit_measure(reduced)
        return {
            "contractions": len(dom.steps),
            "reduced_components": len(reduced.components),
            "dimension": summary.M,
            "skeleton_length": skeleton.total_length(),
            "chain_lengths": [ch.length for ch in graph.chains],
            "pb_total": pb.total_mass(),
            "pb_chain_mass": _chain_masses(pb, graph)[0],
            "ns_chain_mass": _chain_masses(ns, graph)[0],
        }

    def _comb_op(self, tally, n, model):
        out = tally.op(f"comb-{n}", self._comb, model)
        if out is not FAILED:
            tally.check(f"comb({n})", oracles.check_comb(n, out))

    def _star(self, base, relabeled, bumped):
        """Isomorphic to a relabeling, not to a genus-bumped copy.  The
        bumped check is skipped past the cap (9! relabelings, seconds)."""
        same = self.cd.is_isomorphic(base, relabeled)
        other = False if bumped is None else self.cd.is_isomorphic(base, bumped)
        return {"relabeled": same, "bumped": other}

    def round(self, tally: Tally):
        # Four passes over comb(100), the stars and one fresh call, with
        # comb(300), comb(200) and the over-cap star between them, so each
        # operation is timed several times across the round.
        small, mid, large = self.combs
        for step in range(4):
            self._comb_op(tally, *small)
            for k, base, relabeled, bumped in self.stars:
                out = tally.op(f"star-{k}", self._star, base, relabeled, bumped)
                if out is not FAILED:
                    tally.check(f"star({k})", oracles.check_star(out))
            self._cli(tally, ("reduce", "skeleton")[step % 2])
            if step % 2 == 0:
                self._comb_op(tally, *large)
            else:
                self._comb_op(tally, *mid)
        self._over_cap(tally)

    def _over_cap(self, tally: Tally):
        # Past the 500,000-relabeling cap canonical_form raises ValueError:
        # this operation fails in every round until that limit is lifted.
        k = inputs.STAR_OVER_CAP
        out = tally.op(f"star-{k}", self._star, *self.over_cap, None)
        if out is not FAILED:
            tally.check(f"star({k})", oracles.check_star(out))

    def _cli(self, tally: Tally, command: str):
        n = inputs.COMB_SIZES[0]
        doc = tally.cli(f"cli-{command}", [command, self.comb_file, "--json"],
                        self.workdir)
        if doc is FAILED:
            return
        if command == "reduce":
            fields = {"contractions": len(doc["steps"]),
                      "reduced_components": len(doc["target"]["vertices"])}
        else:
            fields = {"skeleton_length": oracles.fraction_of(doc["total_length"])}
        tally.check(f"cli {command} comb", oracles.check_comb_cli(n, fields))


# -- nodechart -----------------------------------------------------------------


class NodeChart:
    """`verify` experiments through the in-process CLI entry point, direct
    pseudonorm, pairing-matrix and density evaluations, and the genus-0
    mass of the rigid 4-point configuration."""

    NORMS = (("dumbbell2.cdm", 1), ("dumbbell3.cdm", 1), ("chain2.cdm", 2))
    HEAVY = (("pairing", "pairing-diag"), ("region-mass", "ns-density"), ("pb-density",))
    POLES = ((2, 1), (3, 1), (2, 2))  # (m, chain length)
    DENSITY_LOGT = 1e3

    def __init__(self, cd, seed: int, workdir: Path):
        import curvedegen.cli
        self.cd = cd
        self.main = curvedegen.cli.main
        rng = random.Random(seed)
        self.workdir = workdir
        self.files = {
            "dumbbell2.cdm": _write(workdir, "dumbbell2.cdm", inputs.dumbbell(2)),
            "dumbbell3.cdm": _write(workdir, "dumbbell3.cdm", inputs.dumbbell(3)),
            "chain2.cdm": _write(workdir, "chain2.cdm", inputs.two_node_chain(2)),
            "rational4.cdm": _write(workdir, "rational4.cdm", inputs.rational_four_marks()),
        }
        self.opt_seed = rng.randrange(2 ** 31)
        self.optimizer = cd.OptimizerSpec(seed=self.opt_seed)
        self.families = (cd.LaurentFamily.pole(2),
                         cd.LaurentFamily.from_w_powers(2, {1: 1.0}))
        self.members = (0, 1)  # w-powers of the two families
        self.ns_point, self.pb_point = inputs.density_points(rng, 2)
        self.grid = ",".join(f"{L:g}" for L in inputs.LOGT_GRID)
        self.rigid = inputs.rigid_configuration()

    def _verify(self, experiment, path, tally):
        span = "cli.verify_" + experiment.replace("-", "_")
        args = ["verify", "--experiment", experiment, "--model", path,
                "--logt", self.grid, "--seed", str(self.opt_seed), "--json"]
        buf = io.StringIO()
        with tally.span(span), contextlib.redirect_stdout(buf):
            code = self.main(args)
        if code != 0:
            raise RuntimeError(f"verify {experiment} exited {code}")
        doc = json.loads(buf.getvalue())
        return doc if isinstance(doc, list) else [doc]

    def _experiment(self, tally, experiment, name="dumbbell2.cdm", chain_length=1):
        docs = tally.op(f"verify-{experiment}-{name}", self._verify,
                        experiment, self.files[name], tally)
        if docs is not FAILED:
            tally.check(f"verify {experiment} {name}",
                        oracles.check_verify(experiment, docs, chain_length=chain_length))

    def _poles(self):
        cd = self.cd
        return [[cd.pseudonorm([(1.0, cd.LaurentFamily.pole(m, l))], L)
                 for L in inputs.LOGT_GRID] for m, l in self.POLES]

    def _light(self, tally: Tally):
        """The sub-second operations."""
        cd = self.cd
        for name, l in self.NORMS:
            self._experiment(tally, "norm", name, l)
        norms = tally.op("pole-pseudonorms", self._poles)
        if norms is not FAILED:
            for (m, l), values in zip(self.POLES, norms):
                tally.check(f"pole m={m} l={l}",
                            oracles.check_pole_norms(m, l, inputs.LOGT_GRID, values))
        A = tally.op("pairing-matrix", cd.pairing_matrix, self.families,
                     self.DENSITY_LOGT)
        if A is not FAILED:
            tally.check("pairing matrix", oracles.check_pairing_matrix(
                [[complex(x) for x in row] for row in A]))
        mass = tally.op("mass-rigid-4", cd.ns_mass_genus0, self.rigid, (1, 1, 1, 1), 2,
                        None, self.optimizer)
        if mass is not FAILED:
            tally.check("rigid 4-point mass", oracles.check_rigid_mass(mass.value))

    def _heavy(self, tally: Tally, name: str):
        cd = self.cd
        if name == "ns-density":
            w = self.ns_point
            value = tally.op("ns-density", cd.ns_density, self.families,
                             self.DENSITY_LOGT, w, None, self.optimizer)
            if value is not FAILED:
                tally.check(f"ns_density at {w:.4f}", oracles.check_density(
                    2, self.DENSITY_LOGT, w, self.members, value))
        elif name == "pb-density":
            value = tally.op("pb-density", cd.pb_density, self.families,
                             self.DENSITY_LOGT, self.pb_point, None, self.optimizer)
            if value is not FAILED:
                tally.check("pb_density", oracles.check_pb_density(value))
        else:
            self._experiment(tally, name)

    def round(self, tally: Tally):
        # The sub-second operations run three times, once before each group
        # of heavy ones, so each is timed three times across the round;
        # fresh `verify` and genus-0 `measure` calls alternate before each
        # group and at the end.
        for step, group in enumerate(self.HEAVY):
            (self._cli_genus0 if step % 2 else self._cli_norm)(tally)
            self._light(tally)
            for name in group:
                self._heavy(tally, name)
        self._cli_genus0(tally)

    def _cli_norm(self, tally: Tally):
        doc = tally.cli("cli-verify-norm",
                        ["verify", "--experiment", "norm", "--model",
                         self.files["dumbbell2.cdm"], "--logt", self.grid, "--json"],
                        self.workdir)
        if doc is not FAILED:
            tally.check("cli verify norm", oracles.check_verify("norm", [doc]))

    def _cli_genus0(self, tally: Tally):
        doc = tally.cli("cli-measure-genus0",
                        ["measure", self.files["rational4.cdm"], "--kind", "ns",
                         "--estimate-genus0", "--json"], self.workdir)
        if doc is not FAILED:
            tally.check("cli genus-0 mass", oracles.check_rigid_mass(
                doc["components"]["R"]["total"]["estimate"]))


WORKLOADS = {
    "exact-corpus": ExactCorpus,
    "exact-large": ExactLarge,
    "nodechart": NodeChart,
}
