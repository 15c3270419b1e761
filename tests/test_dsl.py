"""Model file parsing, emission, and diagnostics."""
import pytest

from corpus import roundtrip_corpus
from curvedegen import (
    ModelDocument,
    ParseError,
    emit_model,
    is_isomorphic,
    make_model,
    parse_model,
)

DUMBBELL = ("model { m = 2; vertex E1 { genus = 1 }; "
            "vertex E2 { genus = 1 }; edge E1 -- E2 }")


class TestParsing:
    def test_one_line_dumbbell(self):
        doc = parse_model(DUMBBELL)
        assert isinstance(doc, ModelDocument)
        model = doc.model
        assert model.params.m == 2
        assert [c.genus for c in model.components] == [1, 1]
        (edge,) = model.edges
        assert edge.endpoints == ("E1", "E2")

    def test_semicolons_optional_and_comments_ignored(self):
        doc = parse_model("""
        # a dumbbell, spelled loosely
        model {
          m = 2
          vertex E1 { genus = 1 }   # left vertex
          vertex E2 { genus = 1 }
          edge n E1 -- E2
        }
        """)
        assert len(doc.model.edges) == 1

    def test_mark_statement(self):
        doc = parse_model("""
        model { m = 3
          vertex E1 { genus = 2 }
          mark P1 on E1 coeff 1
        }""")
        (mark,) = doc.model.marks
        assert (mark.id, mark.host, mark.coefficient) == ("P1", "E1", 1)
        assert mark.merge_group is None

    def test_mark_group_roundtrips(self):
        text = """model { m = 4
          vertex C { genus = 2 }
          mark P1 on C coeff 1 group pt_E1
          mark P2 on C coeff 1 group pt_E1
        }"""
        model = parse_model(text).model
        assert {p.merge_group for p in model.marks} == {"pt_E1"}
        again = parse_model(emit_model(model)).model
        assert again == model

    def test_multiplicity_parsed(self):
        doc = parse_model("""model { m = 2
          vertex A { genus = 1; mult = 2 }
          vertex B { genus = 1 }
          edge A -- B
          mark P on A coeff 1
        }""")
        assert doc.model.component("A").multiplicity == 2

    def test_auto_edge_ids_deterministic(self):
        doc = parse_model("""model { m = 2
          vertex A { genus = 1 }
          vertex B { genus = 1 }
          edge A -- B
          edge A -- B
        }""")
        assert [e.id for e in doc.model.edges] == ["e0", "e1"]

    def test_auto_ids_skip_taken_names(self):
        doc = parse_model("""model { m = 2
          vertex A { genus = 1 }
          vertex B { genus = 1 }
          edge e0 A -- B
          edge A -- B
        }""")
        assert [e.id for e in doc.model.edges] == ["e0", "e1"]

    def test_location_map(self):
        doc = parse_model("model {\n  m = 2\n  vertex E1 { genus = 1 }\n"
                          "  vertex E2 { genus = 1 }\n  edge n E1 -- E2\n}")
        assert doc.location_of("E1") == (3, 10)
        assert doc.location_of("n") == (5, 8)
        assert doc.location_of("nothing") is None
        assert doc.location_of("model") == (1, 1)


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ParseError) as info:
            parse_model(text)
        return info.value

    def test_loop_forbidden_with_location(self):
        err = self.err("model { m = 2\n  vertex E1 { genus = 1 }\n"
                       "  edge E1 -- E1\n}")
        assert "loop forbidden" in str(err)
        assert err.line == 3

    def test_duplicate_id(self):
        err = self.err("model { m = 2\n vertex A { genus = 1 }\n"
                       " vertex A { genus = 2 }\n}")
        assert "duplicate" in str(err)
        assert err.line == 3

    def test_unknown_vertex_in_edge(self):
        err = self.err("model { m = 2\n vertex A { genus = 1 }\n"
                       " edge A -- Z\n}")
        assert "unknown vertex" in str(err)

    def test_mark_before_vertex_declaration(self):
        err = self.err("model { m = 2\n mark P on A coeff 1\n"
                       " vertex A { genus = 1 }\n}")
        assert "unknown vertex" in str(err)
        assert err.line == 2

    def test_keyword_cannot_be_id(self):
        err = self.err("model { m = 2\n vertex edge { genus = 1 }\n}")
        assert "keyword" in str(err)

    def test_m_only_once(self):
        assert "already" in str(self.err("model { m = 2; m = 3\n"
                                         " vertex A { genus = 1 }\n}"))

    def test_m_required(self):
        assert "m" in str(self.err("model { vertex A { genus = 1 } }"))

    def test_vertex_required(self):
        assert "vertices" in str(self.err("model { m = 2 }"))

    def test_nonpositive_coeff(self):
        err = self.err("model { m = 3\n vertex A { genus = 1 }\n"
                       " mark P on A coeff 0\n}")
        assert "positive" in str(err)

    def test_trailing_input(self):
        assert "trailing" in str(self.err(DUMBBELL + " extra"))

    def test_unclosed_block(self):
        self.err("model { m = 2\n vertex A { genus = 1 }")

    def test_garbage_statement(self):
        err = self.err("model { m = 2\n vertex A { genus = 1 }\n shrub\n}")
        assert "unexpected" in str(err)

    @pytest.mark.parametrize("text, message, line, column", [
        ("model m", "expected '{', found 'm'", 1, 7),
        ("model {\n  m = x\n}", "expected an integer for m", 2, 7),
        ("model { m = 2\n vertex { genus = 1 } }", "expected a vertex id", 2, 9),
        ("model {\n  m = 0\n}", "m must be positive", 2, 7),
        ("model { m = 2; vertex A { genus = 1",
         "expected '}' closing the vertex block, at end of input", 1, 36),
        ("model { m = 2\n vertex A { mult = 0 } }", "multiplicity must be positive",
         2, 20),
        ("model { m = 2\n vertex A { colour = 1 } }",
         "unexpected 'colour' in vertex block", 2, 13),
    ])
    def test_message_and_position(self, text, message, line, column):
        err = self.err(text)
        assert (err.message, err.line, err.column) == (message, line, column)

    @pytest.mark.parametrize("text, message, line, column", [
        # digits outside ASCII once reached int() and raised a bare ValueError
        ("model {\n  m = \u00b2\n}", "expected an integer for m", 2, 7),
        ("model { m = 2\n vertex A { genus = \u00b3 } }", "expected an integer genus",
         2, 21),
        ("model { m = 3\n vertex A { genus = 1 }\n mark P on A coeff \u00b2 }",
         "expected an integer coefficient", 3, 20),
        ("model { m = " + "1" * 5000 + " }", "integer for m is too long", 1, 13),
    ], ids=["superscript-m", "superscript-genus", "superscript-coeff", "overlong-m"])
    def test_every_integer_failure_is_located(self, text, message, line, column):
        err = self.err(text)
        assert (err.message, err.line, err.column) == (message, line, column)

    @pytest.mark.parametrize("text, message", [
        ("model { m = 2 }", "the model block declared no vertices"),
        ("model { vertex A { genus = 1 } }", "the model block never set m"),
        # the model rejects a merge group named like an ungrouped mark on its host
        ("model { m = 3; vertex C { genus = 2 }\n mark Q on C coeff 1\n"
         " mark P on C coeff 1 group Q }",
         "mark P: merge group Q on C is named like the ungrouped mark Q there"),
    ])
    def test_block_errors_point_at_the_model_keyword(self, text, message):
        err = self.err(text)
        assert (err.message, err.line, err.column) == (message, 1, 1)
        err = self.err("# leading comment\n\n  " + text)
        assert (err.message, err.line, err.column) == (message, 3, 3)

    @pytest.mark.parametrize("text, line, column", [
        ("", 1, 1),
        ("model", 1, 6),
        ("model { m = 2\n vertex A { genus = 1 }\n", 2, 24),
        ("model { m = 2\n edge  # a comment\n\n", 2, 6),
    ])
    def test_end_of_input_points_just_past_the_last_token(self, text, line, column):
        err = self.err(text)
        assert err.message.endswith(", at end of input")
        assert (err.line, err.column) == (line, column)
        assert str(err).endswith(f"at line {line}, column {column}")


class TestEmission:
    def test_emit_is_stable_under_reparse(self):
        model = parse_model(DUMBBELL).model
        text = emit_model(model)
        assert emit_model(parse_model(text).model) == text

    def test_roundtrip_on_corpus(self):
        for model in roundtrip_corpus():
            text = emit_model(model)
            rebuilt = parse_model(text).model
            assert is_isomorphic(rebuilt, model)
            assert emit_model(rebuilt) == text

    def test_emitted_multiplicity_only_when_nontrivial(self):
        model = make_model(2, [("A", 1, 2), ("B", 1)], [("A", "B")],
                           [("P", "A", 1)])
        text = emit_model(model)
        assert "mult = 2" in text
        assert text.count("mult") == 1
