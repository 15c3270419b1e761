"""Plain-text model files.

Grammar (``#`` starts a line comment, semicolons between statements are
accepted everywhere and required nowhere):

    model {
      m = 3
      vertex E1 { genus = 1 }
      vertex E2 { genus = 0; mult = 2 }
      edge e1 E1 -- E2
      edge E1 -- E2            # id assigned automatically
      mark P1 on E1 coeff 2
      mark Q on E2 coeff 1 group pt_E0
    }

Vertices, edges and marks share one id namespace and must be declared
before use.  ``group`` records that a mark sits at a shared location with
every other mark carrying the same group label, which is how reduced
models remember merged marks; emit/parse round-trips preserve it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .model import Component, DualGraphModel, Edge, MarkedPoint, ModelParams

__all__ = ["ModelDocument", "parse_model", "emit_model"]

_TOKEN_RE = re.compile(r"--|[{}=;]|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
_KEYWORDS = {"model", "vertex", "edge", "mark", "on", "coeff", "group",
             "genus", "mult", "m"}


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int

    @property
    def is_int(self) -> bool:
        return self.text.isdigit()

    @property
    def is_name(self) -> bool:
        return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.text))


def _tokenize(text: str) -> list[_Token]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in _TOKEN_RE.finditer(body):
            out.append(_Token(match.group(), lineno, match.start() + 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _fail(self, message: str, token: _Token | None = None):
        tok = token if token is not None else self.peek()
        if tok is None:  # end of input: point just past the last token
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError(f"{message}, at end of input",
                             line=last.line, column=last.col + len(last.text))
        raise ParseError(message, line=tok.line, column=tok.col)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            self._fail(f"expected {text!r}" + (f", found {tok.text!r}" if tok else ""))
        return self.take()

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.peek()
        if tok is None or not tok.is_int:
            self._fail(f"expected an integer {what}")
        return int(self.take().text), tok

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None or not tok.is_name or tok.is_int:
            self._fail(f"expected {what}")
        return self.take()

    def skip_semis(self):
        while (tok := self.peek()) is not None and tok.text == ";":
            self.take()


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model file.

    Keeps a map from every declared id to the (line, column) of its
    declaration, so later diagnostics can point back into the file the user
    actually wrote.
    """

    model: DualGraphModel
    locations: dict[str, tuple[int, int]]

    def location_of(self, ident: str) -> tuple[int, int] | None:
        return self.locations.get(ident)


def parse_model(text: str) -> ModelDocument:
    """Parse one model file (no validation run)."""
    p = _Parser(text)
    p.expect("model")
    p.expect("{")

    m_value: int | None = None
    namespace: dict[str, str] = {}
    locations: dict[str, tuple[int, int]] = {}
    vertices: list[Component] = []
    edges: list[Edge] = []
    marks: list[MarkedPoint] = []
    auto_edge = 0

    def declare(tok: _Token, kind: str):
        if tok.text in _KEYWORDS:
            p._fail(f"{tok.text!r} is a keyword and cannot be an id", tok)
        if tok.text in namespace:
            p._fail(f"duplicate id {tok.text!r} (already a {namespace[tok.text]})", tok)
        namespace[tok.text] = kind
        locations[tok.text] = (tok.line, tok.col)

    def known_vertex(tok: _Token) -> str:
        if namespace.get(tok.text) != "vertex":
            p._fail(f"unknown vertex {tok.text!r}", tok)
        return tok.text

    while True:
        p.skip_semis()
        tok = p.peek()
        if tok is None:
            p._fail("expected '}' closing the model block")
        if tok.text == "}":
            p.take()
            break
        if tok.text == "m":
            p.take()
            p.expect("=")
            value, vtok = p.expect_int("for m")
            if m_value is not None:
                p._fail("m was already set", tok)
            if value < 1:
                p._fail("m must be positive", vtok)
            m_value = value
        elif tok.text == "vertex":
            p.take()
            name = p.expect_name("a vertex id")
            declare(name, "vertex")
            genus, mult = 0, 1
            p.expect("{")
            while True:
                p.skip_semis()
                inner = p.peek()
                if inner is None:
                    p._fail("expected '}' closing the vertex block")
                if inner.text == "}":
                    p.take()
                    break
                if inner.text == "genus":
                    p.take()
                    p.expect("=")
                    genus, _ = p.expect_int("genus")
                elif inner.text == "mult":
                    p.take()
                    p.expect("=")
                    mult, mtok = p.expect_int("multiplicity")
                    if mult < 1:
                        p._fail("multiplicity must be positive", mtok)
                else:
                    p._fail(f"unexpected {inner.text!r} in vertex block", inner)
            vertices.append(Component(name.text, genus, mult))
        elif tok.text == "edge":
            p.take()
            first = p.expect_name("an edge id or vertex id")
            nxt = p.peek()
            if nxt is not None and nxt.text == "--":
                eid = f"e{auto_edge}"
                while eid in namespace:
                    auto_edge += 1
                    eid = f"e{auto_edge}"
                auto_edge += 1
                namespace[eid] = "edge"
                locations[eid] = (first.line, first.col)
                a_tok = first
            else:
                eid = first.text
                declare(first, "edge")
                a_tok = p.expect_name("a vertex id")
            a = known_vertex(a_tok)
            p.expect("--")
            b_tok = p.expect_name("a vertex id")
            b = known_vertex(b_tok)
            if a == b:
                p._fail(f"loop forbidden: {a} cannot be both endpoints", b_tok)
            edges.append(Edge(eid, (a, b)))
        elif tok.text == "mark":
            p.take()
            name = p.expect_name("a mark id")
            declare(name, "mark")
            p.expect("on")
            host = known_vertex(p.expect_name("a vertex id"))
            p.expect("coeff")
            coeff, ctok = p.expect_int("coefficient")
            if coeff < 1:
                p._fail("mark coefficient must be positive", ctok)
            group = None
            nxt = p.peek()
            if nxt is not None and nxt.text == "group":
                p.take()
                group = p.expect_name("a group label").text
            marks.append(MarkedPoint(name.text, host, coeff, group))
        else:
            p._fail(f"unexpected {tok.text!r} in model block", tok)

    p.skip_semis()
    if p.peek() is not None:
        p._fail("trailing input after the model block")
    if m_value is None:
        raise ParseError("the model block never set m")
    if not vertices:
        raise ParseError("the model block declared no vertices")
    model = DualGraphModel(ModelParams(m_value), tuple(vertices), tuple(edges),
                           tuple(marks))
    return ModelDocument(model, locations)


def emit_model(model: DualGraphModel) -> str:
    """Canonical text for a model; parse(emit(M)) reproduces M."""
    lines = ["model {", f"  m = {model.params.m};"]
    for c in sorted(model.components, key=lambda c: c.id):
        attrs = f"genus = {c.genus};"
        if c.multiplicity != 1:
            attrs += f" mult = {c.multiplicity};"
        lines.append(f"  vertex {c.id} {{ {attrs} }}")
    for e in sorted(model.edges, key=lambda e: e.id):
        lines.append(f"  edge {e.id} {e.endpoints[0]} -- {e.endpoints[1]};")
    for mk in sorted(model.marks, key=lambda mk: mk.id):
        grp = f" group {mk.merge_group}" if mk.merge_group else ""
        lines.append(f"  mark {mk.id} on {mk.host} coeff {mk.coefficient}{grp};")
    lines.append("}")
    return "\n".join(lines) + "\n"
