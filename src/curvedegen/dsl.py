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

The scanner decides each token's kind once, by the named group that
matches it (``int``, ``name`` or ``sym``).  Every ``parse_model`` failure
is a ``ParseError`` with a line and column: the token at fault, the point
just past the last token at end of input, or the ``model`` keyword for the
checks over the whole block, whose place ``ModelDocument.locations`` keeps
under the key ``model`` (a keyword, so no id can take it).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .model import Component, DualGraphModel, Edge, MarkedPoint, ModelParams

__all__ = ["ModelDocument", "parse_model", "emit_model"]

# the named group that matches is the token's kind
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>--|\S)")
_KEYWORDS = frozenset("model vertex edge mark on coeff group genus mult m".split())


class _Parser:
    """A cursor over (kind, text, line, column) token tuples."""

    def __init__(self, text: str):
        self.tokens = [(match.lastgroup, match.group(), lineno, match.start() + 1)
                       for lineno, line in enumerate(text.splitlines(), start=1)
                       for match in _TOKEN_RE.finditer(line.split("#", 1)[0])]
        self.pos = 0

    def fail(self, message: str, token: tuple | None = None):
        tok = token or self.peek()
        if tok is None:  # end of input: point just past the last token
            _, text, line, col = self.tokens[-1] if self.tokens else ("", "", 1, 1)
            raise ParseError(f"{message}, at end of input", line=line, column=col + len(text))
        raise ParseError(message, line=tok[2], column=tok[3])

    def peek(self) -> tuple | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, message: str) -> tuple:
        """The next token if it is of ``kind``; fails with ``message`` otherwise."""
        tok = self.peek()
        if tok is None or tok[0] != kind:
            self.fail(message)
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.peek()
        if tok is None or tok[1] != text:
            self.fail(f"expected {text!r}" + (f", found {tok[1]!r}" if tok else ""))
        self.pos += 1
        return tok

    def integer(self, what: str, positive: str = "") -> int:
        """The next token as an integer, checked positive when ``positive``
        names the quantity."""
        tok = self.take("int", f"expected an integer {what}")
        try:
            value = int(tok[1])
        except ValueError:  # more digits than int() converts
            self.fail(f"integer {what} is too long", tok)
        if positive and value < 1:
            self.fail(f"{positive} must be positive", tok)
        return value

    def at(self, text: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos][1] == text

    def skip_semis(self):
        while self.at(";"):
            self.pos += 1

    def statements(self, block: str):
        """The first token of each statement in a block whose '{' was read,
        consumed; the closing '}' ends the block."""
        while True:
            self.skip_semis()
            tok = self.peek()
            if tok is None:
                self.fail(f"expected '}}' closing the {block} block")
            self.pos += 1
            if tok[1] == "}":
                return
            yield tok


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model file.

    Keeps a map from every declared id, and from the keyword ``model``, to
    the (line, column) of its declaration, so later diagnostics can point
    back into the file the user actually wrote.
    """

    model: DualGraphModel
    locations: dict[str, tuple[int, int]]


def parse_model(text: str) -> ModelDocument:
    """Parse one model file (no validation run)."""
    p = _Parser(text)
    head = p.expect("model")
    p.expect("{")

    m_value: int | None = None
    namespace: dict[str, str] = {}
    locations = {"model": head[2:]}
    vertices: list[Component] = []
    edges: list[Edge] = []
    marks: list[MarkedPoint] = []
    auto_edge = 0

    def declare(tok: tuple, kind: str) -> str:
        ident = tok[1]
        if ident in _KEYWORDS:
            p.fail(f"{ident!r} is a keyword and cannot be an id", tok)
        if ident in namespace:
            p.fail(f"duplicate id {ident!r} (already a {namespace[ident]})", tok)
        namespace[ident] = kind
        locations[ident] = tok[2:]
        return ident

    def known_vertex(tok: tuple) -> str:
        if namespace.get(tok[1]) != "vertex":
            p.fail(f"unknown vertex {tok[1]!r}", tok)
        return tok[1]

    for tok in p.statements("model"):
        word = tok[1]
        if word == "m":
            p.expect("=")
            vtok = p.peek()
            value = p.integer("for m")
            if m_value is not None:
                p.fail("m was already set", tok)
            if value < 1:
                p.fail("m must be positive", vtok)
            m_value = value
        elif word == "vertex":
            name = declare(p.take("name", "expected a vertex id"), "vertex")
            genus, mult = 0, 1
            p.expect("{")
            for inner in p.statements("vertex"):
                if inner[1] not in ("genus", "mult"):
                    p.fail(f"unexpected {inner[1]!r} in vertex block", inner)
                p.expect("=")
                if inner[1] == "genus":
                    genus = p.integer("genus")
                else:
                    mult = p.integer("multiplicity", "multiplicity")
            vertices.append(Component(name, genus, mult))
        elif word == "edge":
            first = p.take("name", "expected an edge id or vertex id")
            if p.at("--"):  # no id given: the first free e<k>, placed at ``first``
                while f"e{auto_edge}" in namespace:
                    auto_edge += 1
                eid = declare(("name", f"e{auto_edge}", *first[2:]), "edge")
                a_tok = first
            else:
                eid = declare(first, "edge")
                a_tok = p.take("name", "expected a vertex id")
            a = known_vertex(a_tok)
            p.expect("--")
            b_tok = p.take("name", "expected a vertex id")
            if a == known_vertex(b_tok):
                p.fail(f"loop forbidden: {a} cannot be both endpoints", b_tok)
            edges.append(Edge(eid, (a, b_tok[1])))
        elif word == "mark":
            name = declare(p.take("name", "expected a mark id"), "mark")
            p.expect("on")
            host = known_vertex(p.take("name", "expected a vertex id"))
            p.expect("coeff")
            coeff = p.integer("coefficient", "mark coefficient")
            group = None
            if p.at("group"):
                p.pos += 1
                group = p.take("name", "expected a group label")[1]
            marks.append(MarkedPoint(name, host, coeff, group))
        else:
            p.fail(f"unexpected {word!r} in model block", tok)

    p.skip_semis()
    if p.peek() is not None:
        p.fail("trailing input after the model block")
    # checks over the whole block point at the model keyword
    if m_value is None:
        p.fail("the model block never set m", head)
    if not vertices:
        p.fail("the model block declared no vertices", head)
    try:
        model = DualGraphModel(ModelParams(m_value), tuple(vertices), tuple(edges),
                               tuple(marks))
    except ValueError as err:  # a merge group named like an ungrouped mark
        p.fail(str(err), head)
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
