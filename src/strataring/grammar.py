"""Text and JSON formats for graphs, decorations and formal sums.

Graph text form (whitespace-insensitive)::

    graph g=4 n=1 { v0: genus=3; v1: genus=1;
                    edge(v0.0, v1.0); leg(1, v0.1);
                    psi(v0.0)=2; kappa(v0)=[1:2, 2:1]; }

Half-edges are named ``v<i>.<slot>`` with per-vertex slot numbers; each
slot is declared by exactly one ``edge`` end or ``leg``.  A JSON object
with the same field names is accepted wherever the text form is.

Formal-sum files hold one ``<p/q> * <graph ...>`` term per line, with
``#`` comments and blank lines ignored.  Malformed input of either form,
the graph data included, raises :class:`ParseError` and nothing else.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import DecoratedGraph, FormalSum
from .graphs import GraphError, StableGraph


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(
            f"{message} (line {line}, column {column})" if line else message
        )
        self.line = line
        self.column = column


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>-?\d+)
  | (?P<punct>[{}()\[\]=:;,./*])
    """,
    re.VERBOSE,
)


class _Scanner:
    def __init__(self, text: str, line_offset: int = 1):
        self.text = text
        self.pos = 0
        self.line_offset = line_offset

    def _linecol(self, pos: int) -> tuple[int, int]:
        before = self.text[:pos]
        line = before.count("\n") + self.line_offset
        col = pos - (before.rfind("\n") + 1) + 1
        return line, col

    def error(self, message: str) -> ParseError:
        line, col = self._linecol(self.pos)
        return ParseError(message, line, col)

    def next(self) -> str | None:
        while self.pos < len(self.text):
            m = _TOKEN.match(self.text, self.pos)
            if m is None:
                raise self.error(f"unexpected character {self.text[self.pos]!r}")
            self.pos = m.end()
            if m.lastgroup != "ws":
                return m.group()
        return None

    def peek(self) -> str | None:
        save = self.pos
        tok = self.next()
        self.pos = save
        return tok

    def expect(self, token: str) -> str:
        got = self.next()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}")
        return got

    def expect_int(self) -> int:
        got = self.next()
        if got is None or not re.fullmatch(r"-?\d+", got):
            raise self.error(f"expected an integer, got {got!r}")
        return int(got)


def _parse_slot(sc: _Scanner) -> tuple[int, int]:
    tok = sc.next()
    if tok is None or not tok.startswith("v"):
        raise sc.error(f"expected v<i>.<slot>, got {tok!r}")
    try:
        v = int(tok[1:])
    except ValueError:
        raise sc.error(f"expected v<i>.<slot>, got {tok!r}") from None
    sc.expect(".")
    return v, sc.expect_int()


def parse_decorated(text: str, line_offset: int = 1) -> DecoratedGraph:
    """Parse the text (or JSON) form of a decorated graph."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(text, decorated_from_json)
    sc = _Scanner(text, line_offset)
    sc.expect("graph")
    sc.expect("g")
    sc.expect("=")
    g_declared = sc.expect_int()
    sc.expect("n")
    sc.expect("=")
    n_declared = sc.expect_int()
    sc.expect("{")
    genera: dict[int, int] = {}
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    legs: list[tuple[int, tuple[int, int]]] = []
    psi: dict[tuple[int, int], int] = {}
    kappa: dict[int, list[tuple[int, int]]] = {}
    while True:
        tok = sc.next()
        if tok == "}":
            break
        if tok is None:
            raise sc.error("unterminated graph block")
        if tok == ";":
            continue
        if tok.startswith("v") and re.fullmatch(r"v\d+", tok):
            v = int(tok[1:])
            sc.expect(":")
            sc.expect("genus")
            sc.expect("=")
            if v in genera:
                raise sc.error(f"vertex v{v} declared twice")
            genera[v] = sc.expect_int()
        elif tok == "edge":
            sc.expect("(")
            a = _parse_slot(sc)
            sc.expect(",")
            b = _parse_slot(sc)
            sc.expect(")")
            edges.append((a, b))
        elif tok == "leg":
            sc.expect("(")
            label = sc.expect_int()
            sc.expect(",")
            slot = _parse_slot(sc)
            sc.expect(")")
            legs.append((label, slot))
        elif tok == "psi":
            sc.expect("(")
            slot = _parse_slot(sc)
            sc.expect(")")
            sc.expect("=")
            psi[slot] = sc.expect_int()
        elif tok == "kappa":
            sc.expect("(")
            vtok = sc.next()
            if vtok is None or not re.fullmatch(r"v\d+", vtok):
                raise sc.error(f"expected v<i>, got {vtok!r}")
            v = int(vtok[1:])
            sc.expect(")")
            sc.expect("=")
            sc.expect("[")
            entries = []
            if sc.peek() != "]":
                while True:
                    j = sc.expect_int()
                    sc.expect(":")
                    entries.append((j, sc.expect_int()))
                    if sc.peek() == ",":
                        sc.next()
                    else:
                        break
            sc.expect("]")
            kappa[v] = entries
        else:
            raise sc.error(f"unexpected token {tok!r}")
    if sc.peek() is not None:
        raise sc.error("unexpected text after the graph block")
    return _assemble(g_declared, n_declared, genera, edges, legs, psi, kappa)


def _assemble(g_declared, n_declared, genera, edges, legs, psi, kappa) -> DecoratedGraph:
    if sorted(genera) != list(range(len(genera))):
        raise ParseError("vertices must be v0..v{k} without gaps")
    nv = len(genera)
    slot_to_halfedge: dict[tuple[int, int], int] = {}
    vertex_of: list[int] = []
    partner: list[int] = []

    def new_halfedge(slot):
        v, _ = slot
        if not (0 <= v < nv):
            raise ParseError(f"reference to undeclared vertex v{v}")
        if slot in slot_to_halfedge:
            raise ParseError(f"half-edge v{slot[0]}.{slot[1]} used twice")
        h = len(vertex_of)
        slot_to_halfedge[slot] = h
        vertex_of.append(v)
        partner.append(h)
        return h

    for a, b in edges:
        h1 = new_halfedge(a)
        h2 = new_halfedge(b)
        partner[h1], partner[h2] = h2, h1
    leg_list = []
    for label, slot in legs:
        leg_list.append((label, new_halfedge(slot)))
    try:
        graph = StableGraph(
            tuple(genera[v] for v in range(nv)),
            tuple(vertex_of),
            tuple(partner),
            tuple(leg_list),
        )
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    if graph.genus != g_declared:
        raise ParseError(f"declared g={g_declared} but the graph has genus {graph.genus}")
    if graph.n_legs != n_declared:
        raise ParseError(f"declared n={n_declared} but the graph has {graph.n_legs} legs")
    psi_arr = [0] * graph.n_halfedges
    for slot, e in psi.items():
        if slot not in slot_to_halfedge:
            raise ParseError(f"psi on unknown half-edge v{slot[0]}.{slot[1]}")
        if e < 0:
            raise ParseError("psi exponents must be nonnegative")
        psi_arr[slot_to_halfedge[slot]] = e
    kappa_arr = [()] * nv
    for v, entries in kappa.items():
        if not (0 <= v < nv):
            raise ParseError(f"kappa on undeclared vertex v{v}")
        for j, f in entries:
            if j < 1:
                raise ParseError("kappa index must be >= 1 (kappa_0 is a scalar)")
            if f < 1:
                raise ParseError("kappa exponents must be positive")
        kappa_arr[v] = entries
    return DecoratedGraph(graph, tuple(psi_arr), tuple(kappa_arr))


def parse_graph(text: str) -> StableGraph:
    return parse_decorated(text).graph


# -- serialization -------------------------------------------------------


def _slot_names(g: StableGraph) -> dict[int, tuple[int, int]]:
    counters = [0] * g.n_vertices
    names: dict[int, tuple[int, int]] = {}
    for h in range(g.n_halfedges):
        v = g.vertex_of[h]
        names[h] = (v, counters[v])
        counters[v] += 1
    return names


def decorated_to_text(d: DecoratedGraph) -> str:
    g = d.graph
    names = _slot_names(g)
    parts = [f"v{v}: genus={g.genera[v]};" for v in range(g.n_vertices)]
    for h1, h2 in g.edges:
        a, b = names[h1], names[h2]
        parts.append(f"edge(v{a[0]}.{a[1]}, v{b[0]}.{b[1]});")
    for label, h in g.legs:
        a = names[h]
        parts.append(f"leg({label}, v{a[0]}.{a[1]});")
    for h in range(g.n_halfedges):
        if d.psi[h]:
            a = names[h]
            parts.append(f"psi(v{a[0]}.{a[1]})={d.psi[h]};")
    for v in range(g.n_vertices):
        if d.kappa[v]:
            body = ", ".join(f"{j}:{f}" for j, f in d.kappa[v])
            parts.append(f"kappa(v{v})=[{body}];")
    return f"graph g={g.genus} n={g.n_legs} {{ " + " ".join(parts) + " }"


def graph_to_text(g: StableGraph) -> str:
    return decorated_to_text(DecoratedGraph(g))


def sum_to_text(s: FormalSum) -> str:
    lines = []
    for coeff, d in s.items():
        lines.append(f"{coeff} * {decorated_to_text(d)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_sum(text: str, g: int | None = None, n: int | None = None) -> FormalSum:
    """Parse a formal-sum file body (text or JSON)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(text, sum_from_json)
    out: FormalSum | None = None
    if g is not None and n is not None:
        out = FormalSum(g, n)
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "*" not in body:
            raise ParseError("expected '<coeff> * <graph>'", lineno, 1)
        coeff_text, graph_text = body.split("*", 1)
        try:
            coeff = Fraction(coeff_text.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient {coeff_text.strip()!r}", lineno, 1) from None
        try:
            d = parse_decorated(graph_text, line_offset=lineno)
        except ParseError as exc:
            if exc.line:
                raise
            raise ParseError(str(exc), lineno, 1) from None
        if out is None:
            out = FormalSum(d.graph.genus, d.graph.n_legs)
        elif (d.graph.genus, d.graph.n_legs) != (out.g, out.n):
            raise ParseError(
                f"term on g={d.graph.genus} n={d.graph.n_legs} in a sum on g={out.g} n={out.n}",
                lineno,
                1,
            )
        out._add(coeff, d)
    if out is None:
        raise ParseError("empty formal-sum file (space unknown)")
    return out


def load_sum(path: str) -> FormalSum:
    with open(path) as fh:
        return parse_sum(fh.read())


# -- JSON mirror ---------------------------------------------------------


def decorated_to_json(d: DecoratedGraph) -> dict:
    g = d.graph
    names = _slot_names(g)
    return {
        "g": g.genus,
        "n": g.n_legs,
        "vertices": [{"genus": gv} for gv in g.genera],
        "edges": [[list(names[h1]), list(names[h2])] for h1, h2 in g.edges],
        "legs": [[label, list(names[h])] for label, h in g.legs],
        "psi": [[list(names[h]), d.psi[h]] for h in range(g.n_halfedges) if d.psi[h]],
        "kappa": [[v, [list(p) for p in d.kappa[v]]] for v in range(g.n_vertices) if d.kappa[v]],
    }


def _from_json(text: str, build):
    """``build`` applied to the JSON in ``text``; bad JSON and malformed
    data (a missing field, a value of the wrong type or shape) raise
    :class:`ParseError`."""
    try:
        return build(json.loads(text))
    except ParseError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from None


def decorated_from_json(obj: dict) -> DecoratedGraph:
    genera = {v: rec["genus"] for v, rec in enumerate(obj["vertices"])}
    edges = [(tuple(a), tuple(b)) for a, b in obj.get("edges", [])]
    legs = [(label, tuple(slot)) for label, slot in obj.get("legs", [])]
    psi = {tuple(slot): e for slot, e in obj.get("psi", [])}
    kappa = {v: [tuple(p) for p in entries] for v, entries in obj.get("kappa", [])}
    return _assemble(obj["g"], obj["n"], genera, edges, legs, psi, kappa)


def sum_to_json(s: FormalSum) -> dict:
    return {
        "g": s.g,
        "n": s.n,
        "terms": [
            {"coeff": str(coeff), "graph": decorated_to_json(d)} for coeff, d in s.items()
        ],
    }


def sum_from_json(obj: dict) -> FormalSum:
    out = FormalSum(obj["g"], obj["n"])
    for term in obj["terms"]:
        out._add(Fraction(term["coeff"]), decorated_from_json(term["graph"]))
    return out
