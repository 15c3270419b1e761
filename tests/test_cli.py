"""End-to-end command line runs, in process."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedegen
from curvedegen.cli import main
from curvedegen.errors import InternalConsistencyError, NumericalConvergenceError

DUMBBELL = """\
model {
  m = 2;
  vertex E1 { genus = 1 };
  vertex E2 { genus = 1 };
  edge n E1 -- E2
}
"""

FIGURE_CHAIN = """\
model {
  m = 4;
  vertex E1 { genus = 0 };
  vertex E2 { genus = 0 };
  vertex C { genus = 2 };
  edge E1 -- E2;
  edge E2 -- C;
  mark P1 on E1 coeff 1;
  mark P2 on E1 coeff 1;
  mark P3 on E1 coeff 1
}
"""

EXCLUDED = """\
model {
  m = 2;
  vertex E { genus = 1 }
}
"""

LOOPED = """\
model {
  m = 2;
  vertex E { genus = 1 };
  edge E -- E
}
"""

RATIONAL_FOUR_MARKS = """\
model {
  m = 2;
  vertex R { genus = 0 };
  mark P0 on R coeff 1;
  mark P1 on R coeff 1;
  mark P2 on R coeff 1;
  mark P3 on R coeff 1
}
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("dumbbell", DUMBBELL), ("chain", FIGURE_CHAIN),
                       ("excluded", EXCLUDED), ("looped", LOOPED),
                       ("rational4", RATIONAL_FOUR_MARKS)]:
        p = tmp_path / f"{name}.cdm"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestValidate:
    def test_valid_model(self, files, capsys):
        assert main(["validate", files["dumbbell"]]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_model(self, files, capsys):
        assert main(["validate", files["excluded"]]) == 1
        out = capsys.readouterr().out
        assert "error[excluded-family]" in out

    def test_json_report(self, files, capsys):
        assert main(["validate", files["dumbbell"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_parse_error(self, files, capsys):
        assert main(["validate", files["looped"]]) == 1
        assert "loop forbidden" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/path.cdm"]) == 1
        assert "error" in capsys.readouterr().err

    def test_group_named_like_ungrouped_mark(self, tmp_path, capsys):
        path = tmp_path / "clash.cdm"
        path.write_text("model {\n  m = 3;\n  vertex C { genus = 2 };\n"
                        "  mark Q on C coeff 1;\n  mark P on C coeff 1 group Q\n}\n")
        assert main(["validate", str(path)]) == 1
        assert "mark P: merge group Q on C" in capsys.readouterr().err

    def test_violation_points_at_declaration(self, tmp_path, capsys):
        path = tmp_path / "range.cdm"
        path.write_text("model {\n  m = 3;\n  vertex C { genus = 2 };\n"
                        "  mark P on C coeff 5\n}\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"{path}:4:8: error[mark-coefficient-range] P: mark P: "
            "coefficient 5 outside [1, 2]\n")


class TestReduce:
    def test_collapse_narration(self, files, capsys):
        assert main(["reduce", files["chain"]]) == 0
        out = capsys.readouterr().out
        assert "# collapse E1" in out
        assert "# collapse E2" in out
        assert "vertex C" in out

    def test_emit_roundtrip(self, files, tmp_path, capsys):
        target = tmp_path / "reduced.cdm"
        assert main(["reduce", files["chain"], "--emit", str(target)]) == 0
        capsys.readouterr()
        assert main(["validate", str(target)]) == 0

    def test_dot_output(self, files, tmp_path, capsys):
        target = tmp_path / "reduced.dot"
        assert main(["reduce", files["chain"], "--dot", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("graph")
        assert "g=2" in text

    def test_json_steps(self, files, capsys):
        assert main(["reduce", files["chain"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["component"] for s in doc["steps"]] == ["E1", "E2"]


class TestGraphCommands:
    def test_stable_graph_output(self, files, tmp_path, capsys):
        p = tmp_path / "mid.cdm"
        p.write_text("model { m = 2;\n vertex E1 { genus = 1 };"
                     " vertex F { genus = 0 }; vertex E2 { genus = 1 };\n"
                     " edge a E1 -- F; edge b F -- E2 }\n")
        assert main(["stable-graph", str(p)]) == 0
        out = capsys.readouterr().out
        assert "vertex E1 genus=1" in out
        assert "length=2" in out
        assert "via=a,b" in out

    def test_skeleton(self, files, capsys):
        assert main(["skeleton", files["dumbbell"]]) == 0
        out = capsys.readouterr().out
        assert "edge n length=1" in out
        assert "total 1" in out

    def test_dims(self, files, capsys):
        assert main(["dims", files["dumbbell"]]) == 0
        out = capsys.readouterr().out
        assert "dimension M=3" in out
        assert "h0[E1] = 1" in out

    def test_dims_json(self, files, capsys):
        assert main(["dims", files["dumbbell"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 3
        assert doc["vertex_h0"] == {"E1": 1, "E2": 1}

    def test_dims_rejects_non_minimal_model(self, tmp_path, capsys):
        # genus-2 vertex with one unmarked rational tail at m = 3
        p = tmp_path / "tail.cdm"
        p.write_text("model { m = 3;\n vertex C { genus = 2 };"
                     " vertex T { genus = 0 };\n edge C -- T }\n")
        assert main(["dims", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not minimal" in captured.err
        assert "minimal_snc_model" in captured.err


class TestMeasures:
    def test_pb_measure_total(self, files, capsys):
        assert main(["measure", files["dumbbell"], "--kind", "pb"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == {"num": 3, "den": 1}
        assert doc["edges"]["n"] == {"num": 1, "den": 1}

    def test_ns_measure(self, files, capsys):
        assert main(["measure", files["dumbbell"], "--kind", "ns"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "ns"
        assert doc["edges"]["n"] == {"num": 1, "den": 1}

    def test_hyb_pushforward(self, files, capsys):
        assert main(["measure", files["dumbbell"], "--kind", "pb",
                     "--push", "hyb"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["space"] == "hybrid-skeleton"

    def test_fiber_pushforward(self, files, capsys):
        assert main(["measure", files["dumbbell"], "--kind", "pb",
                     "--push", "fiber"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["space"] == "limit-fiber"

    def test_measure_dot(self, files, tmp_path, capsys):
        target = tmp_path / "measure.dot"
        assert main(["measure", files["dumbbell"], "--kind", "pb",
                     "--dot", str(target)]) == 0
        assert "mass=" in target.read_text()

    @pytest.mark.parametrize("push", ["hyb", "fiber"])
    def test_measure_dot_for_every_push(self, files, tmp_path, capsys, push):
        # the DOT file shows the curve-complex masses whatever --push is
        cc, pushed = tmp_path / "cc.dot", tmp_path / f"{push}.dot"
        assert main(["measure", files["dumbbell"], "--kind", "pb",
                     "--dot", str(cc)]) == 0
        assert main(["measure", files["dumbbell"], "--kind", "pb", "--push", push,
                     "--dot", str(pushed)]) == 0
        assert pushed.read_text() == cc.read_text()

    def test_limit_fixed_b(self, files, capsys):
        assert main(["limit", files["dumbbell"], "--mode", "fixed-B"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == {"num": 2, "den": 1}

    def test_limit_fixed_qb(self, files, capsys):
        assert main(["limit", files["dumbbell"], "--mode", "fixed-QB"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == {"num": 2, "den": 1}

    def test_stable_measure(self, files, capsys):
        # genus-1 pieces keep an unresolved continuous part; the node
        # atom is pinned to 1
        assert main(["stable-measure", files["dumbbell"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["node_atoms"]["ch0"] == {"num": 1, "den": 1}
        assert doc["total"] == "unknown"

    @pytest.mark.parametrize("text, kinds, nodes, total", [
        # C's cycle through three inessential rational vertices is one closed chain
        ("model { m = 2; vertex C { genus = 2 }; vertex F1 { genus = 0 };"
         " vertex F2 { genus = 0 }; vertex F3 { genus = 0 };"
         " edge C -- F1; edge F1 -- F2; edge F2 -- F3; edge F3 -- C }",
         {"C": "ns"}, 1, "unknown"),
        # theta graph: two rational vertices joined by three edges
        ("model { m = 2; vertex A { genus = 0 }; vertex B { genus = 0 };"
         " edge A -- B; edge A -- B; edge A -- B }",
         {"A": "zero", "B": "zero"}, 3, {"num": 3, "den": 1}),
    ], ids=["closed-chain", "theta"])
    def test_stable_measure_graphs(self, tmp_path, capsys, text, kinds, nodes, total):
        path = tmp_path / "graph.cdm"
        path.write_text(text)
        assert main(["stable-measure", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {v: c["kind"] for v, c in doc["components"].items()} == kinds
        one = {"num": 1, "den": 1}
        assert doc["node_atoms"] == {f"ch{i}": one for i in range(nodes)}
        assert doc["total"] == total

    def test_stable_measure_refuses_rational_tail(self, tmp_path, capsys):
        path = tmp_path / "tail.cdm"
        path.write_text(TAILED)
        assert main(["stable-measure", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"{path}:1:1: error: vertex T: rational components of a "
                       "stable curve need at least three nodes\n")

    def test_genus0_estimate(self, files, capsys):
        # four weight-one marks at m = 2 leave one section, so the mass is 1
        assert main(["measure", files["rational4"], "--kind", "ns",
                     "--estimate-genus0", "--json"]) == 0
        total = json.loads(capsys.readouterr().out)["components"]["R"]["total"]
        assert sorted(total) == ["error", "estimate"]
        assert abs(total["estimate"] - 1.0) <= 1e-3


class TestValidatesOnce:
    @pytest.mark.parametrize("argv", [
        ["reduce"], ["stable-graph"], ["skeleton"], ["dims"],
        ["measure", "--kind", "ns"], ["measure", "--kind", "pb"],
        ["limit", "--mode", "fixed-B"], ["limit", "--mode", "fixed-QB"],
        ["stable-measure"],
    ])
    def test_one_validation_per_command(self, files, monkeypatch, capsys, argv):
        import curvedegen.model as model_mod

        calls = []
        check = model_mod.validate

        def counted(model):
            calls.append(model)
            return check(model)

        monkeypatch.setattr(model_mod, "validate", counted)
        assert main([argv[0], files["dumbbell"], *argv[1:]]) == 0
        assert len(calls) == 1

    def test_invalid_model_reported_once(self, files, capsys):
        assert main(["dims", files["excluded"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{files['excluded']}:1:1: error[excluded-family]")
        assert err.count("excluded-family") == 1


COMMANDS = [["validate"], ["reduce"], ["stable-graph"], ["skeleton"], ["dims"],
            ["measure", "--kind", "ns"], ["measure", "--kind", "pb"],
            ["limit", "--mode", "fixed-B"], ["limit", "--mode", "fixed-QB"],
            ["stable-measure"], ["verify", "--experiment", "norm", "--model"]]

# the genus is not a number: a parse error at 3:22
UNPARSABLE = "model {\n  m = 2\n  vertex A { genus = x }\n}\n"

# a mark out of range (it names P, declared at 4:8) on a disconnected model
# (a violation naming no id, placed at the model keyword)
SPLIT = """\
model {
  m = 3;
  vertex A { genus = 2 }; vertex B { genus = 2 };
  mark P on A coeff 5
}
"""

# a genus-2 vertex with one unmarked rational tail at m = 3: valid, not minimal
TAILED = "model { m = 3;\n vertex C { genus = 2 }; vertex T { genus = 0 };\n edge C -- T }\n"


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c[:2]))
class TestDiagnostics:
    """Every subcommand prints each model-file failure once, at its
    path:line:col, in one format."""

    def run(self, tmp_path, capsys, command, text):
        path = tmp_path / "family.cdm"
        path.write_text(text)
        code = main([*command, str(path), "--logt", "10,100"] if command[0] == "verify"
                    else [*command, str(path)])
        out, err = capsys.readouterr()
        return code, out, err, str(path)

    def test_parse_error(self, tmp_path, capsys, command):
        code, out, err, path = self.run(tmp_path, capsys, command, UNPARSABLE)
        assert (code, out) == (1, "")
        assert err == f"{path}:3:22: error: expected an integer genus\n"

    @pytest.mark.parametrize("text, lines", [
        (EXCLUDED, ["1:1: error[excluded-family]: genus-1 fibers without marks "
                    "admit no sections for any m"]),
        (SPLIT, ["4:8: error[mark-coefficient-range] P: mark P: coefficient 5 "
                 "outside [1, 2]",
                 "1:1: error[disconnected]: model must be connected"]),
    ], ids=["excluded-family", "mark-range-and-disconnected"])
    def test_violations(self, tmp_path, capsys, command, text, lines):
        code, out, err, path = self.run(tmp_path, capsys, command, text)
        report = "".join(f"{path}:{line}\n" for line in lines)
        assert code == 1
        assert (out, err) == ((report, "") if command == ["validate"] else ("", report))
        assert "None" not in out + err

    def test_refusal_without_report(self, tmp_path, capsys, command):
        # only the commands that need a minimal or stable model refuse it
        code, out, err, path = self.run(tmp_path, capsys, command, TAILED)
        refused = command[0] in ("dims", "measure", "limit", "stable-measure")
        assert code == (1 if refused else 0)
        if refused:
            assert out == ""
            assert err.startswith(f"{path}:1:1: error: ")
            assert err.count("\n") == 1
        else:
            assert err == ""

    def test_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "family.cdm"
        path.write_text(DUMBBELL)
        with pytest.raises(SystemExit) as info:
            main([*command, str(path), "--no-such-flag"])
        assert info.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: curvedegen")
        assert err.endswith("error: unrecognized arguments: --no-such-flag\n")


class TestVerify:
    def test_norm_experiment_runs(self, files, capsys):
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "10,100"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("# experiment: norm-asymptotics")
        assert "# chain: ch0" in out

    def test_reruns_byte_identical(self, files, capsys):
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "10,100", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_json_document(self, files, capsys):
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "10,100", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "norm-asymptotics"
        assert doc["metadata"]["model_m"] == 2
        assert doc["metadata"]["chain"] == "ch0"
        assert len(doc["observed"]) == 2

    def test_pairing_reports_both_tables(self, files, capsys):
        argv = ["verify", "--experiment", "pairing", "--model",
                files["dumbbell"], "--logt", "20,60", "--json"]
        assert main(argv) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["name"] for d in docs] == ["pairing-diag", "pairing-offdiag"]

    def test_pairing_builds_each_matrix_once(self, files, monkeypatch, capsys):
        import curvedegen.experiments as experiments

        depths = []
        build = experiments.pairing_matrix

        def counted(families, logt, **kwargs):
            depths.append(logt)
            return build(families, logt, **kwargs)

        monkeypatch.setattr(experiments, "pairing_matrix", counted)
        argv = ["verify", "--experiment", "pairing", "--model",
                files["dumbbell"], "--logt", "20,60"]
        assert main(argv) == 0
        assert depths == [20.0, 60.0]
        assert capsys.readouterr().out.count("# experiment: pairing-") == 2

    def test_columns_file(self, files, tmp_path, capsys):
        target = tmp_path / "table.txt"
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "10,100", "--columns", str(target)]
        assert main(argv) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_unknown_chain(self, files, capsys):
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--chain", "zz"]
        assert main(argv) == 1
        assert "no chain named" in capsys.readouterr().err

    def test_model_without_chains_refused_at_its_keyword(self, tmp_path, capsys):
        p = tmp_path / "single.cdm"
        p.write_text("# one genus-2 component\nmodel { m = 2; vertex C { genus = 2 } }\n")
        argv = ["verify", "--experiment", "norm", "--model", str(p)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"{p}:2:1: error: the model has no skeleton chains to verify against\n")

    def test_multi_node_chain_rejected_for_pairing(self, tmp_path, capsys):
        p = tmp_path / "mid.cdm"
        p.write_text("model { m = 2;\n vertex E1 { genus = 1 };"
                     " vertex F { genus = 0 }; vertex E2 { genus = 1 };\n"
                     " edge a E1 -- F; edge b F -- E2 }\n")
        argv = ["verify", "--experiment", "pairing-diag", "--model", str(p),
                "--logt", "10,100"]
        assert main(argv) == 1
        assert "single-node" in capsys.readouterr().err

    def test_bad_grid(self, files, capsys):
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "100,10"]
        assert main(argv) == 1
        assert "increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("option, text, expected", [
        # these once printed the bare unpacking or float() message
        ("--region", "0.2", "--region takes two comma-separated numbers a,b; got '0.2'"),
        ("--region", "0.2,0.3,0.5",
         "--region takes two comma-separated numbers a,b; got '0.2,0.3,0.5'"),
        ("--logt", "100,abc", "--logt takes comma-separated numbers; got '100,abc'"),
    ])
    def test_malformed_option_named(self, files, capsys, option, text, expected):
        argv = ["verify", "--experiment", "region-mass", "--model", files["dumbbell"],
                "--logt", "100", option, text]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {expected}\n"
        assert out == ""

    @pytest.mark.parametrize("experiment", ["norm", "pairing"])
    @pytest.mark.parametrize("depths", ["100,inf", "nan,100"])
    def test_non_finite_depth_refused(self, files, capsys, experiment, depths):
        # logt = inf once printed "inf nan inf nan" as a result row
        argv = ["verify", "--experiment", experiment, "--model", files["dumbbell"],
                "--logt", depths]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "finite" in err
        assert out == ""

    @pytest.mark.parametrize("correction", ["nan", "inf"])
    def test_non_finite_correction_refused(self, files, capsys, correction):
        # a NaN correction once failed the build check (exit 3, best "nan")
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--correction", correction]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == (f"error: non-finite coefficient ({correction}+0j) "
                       "at exponent pair (0, 1)\n")
        assert out == ""

    @pytest.mark.parametrize("correction", ["1e154", "1e160"])
    def test_overflowing_correction_refused(self, files, capsys, correction):
        # 1e160 once failed the build check (exit 3) and 1e154 warned of an
        # overflow in the ring merge: squared, such coefficients overflow
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--correction", correction, "--logt", "100,1000"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == (f"error: coefficient ({float(correction)!r}+0j) at exponent pair "
                       "(0, 1) exceeds 1e+150 in modulus: its square overflows a float\n")
        assert out == ""

    @pytest.mark.parametrize("option, value", [
        ("--logt", "-1e2,1e3"), ("--region", "-0.1,0.3"),
        ("--correction", "-inf"), ("--correction", "-nan"),
    ])
    def test_minus_sign_value_matches_equals_form(self, files, capsys, option, value):
        # argparse once read these as options and exited 64 with
        # "expected one argument"; they belong to the option's own check
        argv = ["verify", "--experiment", "region-mass", "--model", files["dumbbell"],
                "--logt", "100,1000"]
        assert main(argv + [option, value]) == 1
        apart = capsys.readouterr()
        assert main(argv + [f"{option}={value}"]) == 1
        assert capsys.readouterr() == apart
        assert apart.out == "" and apart.err.startswith("error: ")

    @pytest.mark.parametrize("correction", ["-1e-3", "-2.5E+1", "-.5e0"])
    def test_negative_exponent_is_a_value(self, files, capsys, correction):
        # argparse once read "-1e-3" as an unknown option and exited 64
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "100,1000"]
        assert main(argv + ["--correction", correction]) == 0
        apart = capsys.readouterr()
        assert main(argv + [f"--correction={correction}"]) == 0
        assert capsys.readouterr() == apart
        assert apart.err == "" and apart.out.startswith("# experiment: norm-asymptotics")


class TestStartup:
    def test_import_loads_no_scipy(self):
        # every command pays the package import; numpy is the one dependency
        src = Path(curvedegen.__file__).resolve().parents[1]
        code = ("import sys, curvedegen, curvedegen.cli; "
                "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", [
        (["measure", "{dumbbell}"], "the following arguments are required: --kind"),
        (["limit", "{dumbbell}"], "the following arguments are required: --mode"),
        (["skeleton", "{dumbbell}", "--dot", "x.dot"], "unrecognized arguments: --dot x.dot"),
        ([], "the following arguments are required: command"),
        (["verify", "--experiment", "norm", "--model", "{dumbbell}", "--correction", "-e3"],
         "argument --correction: expected one argument"),
        (["verify", "--experiment", "norm", "--model", "{dumbbell}", "--bogus", "-1e-3"],
         "unrecognized arguments: --bogus -1e-3"),
        (["verify", "--experiment", "norm", "--model", "{dumbbell}", "--correction", "-x"],
         "argument --correction: expected one argument"),
    ], ids=["no-kind", "no-mode", "unknown-flag", "no-subcommand", "flag-as-value",
            "unknown-flag-then-number", "letter-after-minus"])
    def test_usage_error_maps_to_sixty_four(self, files, capsys, argv, message):
        # EX_USAGE: no other failure uses it, so a typo is told from a bug
        with pytest.raises(SystemExit) as info:
            main([a.format(**files) for a in argv])
        assert info.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: curvedegen")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["measure", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: curvedegen")

    def test_internal_error_maps_to_two(self, files, monkeypatch, capsys):
        import curvedegen.cli as cli_mod

        def boom(model):
            raise InternalConsistencyError("induced map disagrees")

        monkeypatch.setattr(cli_mod, "minimal_snc_model", boom)
        assert main(["reduce", files["dumbbell"]]) == 2
        assert "internal consistency" in capsys.readouterr().err

    def test_numerical_error_maps_to_three(self, files, monkeypatch, capsys):
        import curvedegen.cli as cli_mod

        def slow(*a, **k):
            raise NumericalConvergenceError(
                "did not stabilize", best=0.5,
                diagnostics={"iterates": [0.25, 0.5], "region": (0.2, 0.4),
                             "w": 0.5 + 0.25j})

        monkeypatch.setattr(cli_mod, "norm_asymptotics_experiment", slow)
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"]]
        assert main(argv) == 3
        message, details = capsys.readouterr().err.splitlines()
        assert "convergence" in message
        assert json.loads(details) == {
            "best": 0.5,
            "diagnostics": {"iterates": [0.25, 0.5], "region": [0.2, 0.4],
                            "w": {"re": 0.5, "im": 0.25}}}

    def test_genus0_non_convergence_maps_to_three(self, files, monkeypatch, capsys):
        import curvedegen.limits as limits

        def stuck(*a, **k):
            raise NumericalConvergenceError("mass did not settle", best=1.5,
                                            diagnostics={"points": 4})

        monkeypatch.setattr(limits, "ns_mass_genus0", stuck)
        argv = ["measure", files["rational4"], "--kind", "ns", "--estimate-genus0"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "numerical convergence failure: mass did not settle",
            '{"best": 1.5, "diagnostics": {"points": 4}}']

    def test_non_finite_details_are_strict_json(self, files, monkeypatch, capsys):
        # an envelope that turns NaN at level 1 fails the build check; the
        # details line must still parse without NaN or Infinity literals
        import curvedegen.density as density

        real, calls = density._envelope, []

        def nan_at_level_one(S, weights, m):
            calls.append(m)
            return real(S, weights, m) if len(calls) == 1 else math.nan

        def refuse(name):
            raise ValueError(f"non-strict JSON constant {name}")

        monkeypatch.setattr(density, "_envelope", nan_at_level_one)
        argv = ["verify", "--experiment", "norm", "--model", files["dumbbell"],
                "--logt", "100,1000"]
        assert main(argv) == 3
        details = json.loads(capsys.readouterr().err.splitlines()[1],
                             parse_constant=refuse)
        assert details["best"] == "nan"
        assert details["diagnostics"]["iterates"][1] == "nan"
        assert details["diagnostics"]["logt"] == 100.0
