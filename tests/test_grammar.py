from __future__ import annotations

import json
from contextlib import suppress
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strataring.algebra import DecoratedGraph, FormalSum, multiply
from strataring.enumeration import decorated_basis, stable_graphs
from strataring.grammar import (
    ParseError,
    decorated_from_json,
    decorated_to_json,
    decorated_to_text,
    parse_decorated,
    parse_graph,
    parse_sum,
    sum_from_json,
    sum_to_json,
    sum_to_text,
)
from conftest import dec


SAMPLE = """graph g=4 n=1 { v0: genus=3; v1: genus=1;
               edge(v0.0, v1.0); leg(1, v0.1);
               psi(v0.0)=2; kappa(v1)=[1:2, 3:1]; }"""


def test_parse_basic_graph():
    d = parse_decorated(SAMPLE)
    assert d.graph.genus == 4 and d.graph.n_legs == 1
    assert d.codim == 1 + 2 + 2 + 3
    assert d.kappa[1] == ((1, 2), (3, 1))


def test_text_roundtrip():
    for sample in [
        dec([2]),
        dec([3], [(0, 0)], kappa={0: ((2, 1),)}),
        dec([0, 0, 0, 2], [(0, 0), (1, 1), (0, 2), (1, 2), (2, 3)], psi={9: 1}),
        dec([1, 1, 1], [(0, 1), (1, 2)], legs={1: 1}, psi={1: 1}),
    ]:
        assert parse_decorated(decorated_to_text(sample)) == sample


def test_json_roundtrip():
    sample = dec([2, 1], [(0, 1)], legs={1: 0}, psi={0: 1}, kappa={1: ((1, 1),)})
    assert decorated_from_json(decorated_to_json(sample)) == sample
    assert parse_decorated(json.dumps(decorated_to_json(sample))) == sample


def test_sum_roundtrip_text_and_json():
    s = FormalSum.unit(dec([1, 1], [(0, 1)], psi={0: 1})).scale(F(-7, 5)) + FormalSum.unit(
        dec([2], kappa={0: ((1, 1),)})
    )
    assert parse_sum(sum_to_text(s)) == s
    assert sum_from_json(sum_to_json(s)) == s
    assert parse_sum(json.dumps(sum_to_json(s))) == s


def test_comments_and_blank_lines():
    text = "# heading\n\n1 * graph g=2 n=0 { v0: genus=2; }  # trailing\n"
    s = parse_sum(text)
    assert len(s) == 1 and s.g == 2


def test_kappa_zero_rejected():
    with pytest.raises(ParseError):
        parse_decorated("graph g=2 n=0 { v0: genus=2; kappa(v0)=[0:1]; }")
    with pytest.raises(ParseError) as err:
        parse_sum("1 * graph g=2 n=0 { v0: genus=2; }\n1 * graph g=2 n=0 { v0: genus=2; kappa(v0)=[0:1]; }")
    assert err.value.line == 2


def test_declared_genus_checked():
    with pytest.raises(ParseError):
        parse_decorated("graph g=3 n=0 { v0: genus=2; }")


def test_error_carries_line_and_column():
    text = "1 * graph g=2 n=0 { v0: genus=2; }\n1 * graph g=2 n=0 { v0 genus=2; }\n"
    with pytest.raises(ParseError) as err:
        parse_sum(text)
    assert err.value.line == 2
    assert "expected" in str(err.value)


def test_duplicate_halfedge_slot_rejected():
    with pytest.raises(ParseError):
        parse_decorated(
            "graph g=2 n=0 { v0: genus=1; v1: genus=1; edge(v0.0, v1.0); edge(v0.0, v1.1); }"
        )


@pytest.mark.parametrize(
    "parse, text",
    [
        # graph data that used to escape as GraphError or ValueError
        (parse_decorated, "graph g=0 n=0 { v0: genus=0; }"),
        (parse_decorated, "graph g=2 n=1 { v0: genus=2; leg(0, v0.0); }"),
        (parse_decorated, "graph g=2 n=0 { v0: genus=1; v1: genus=1; }"),
        (parse_decorated, "graph g=2 n=0 { v0: genus=2; kappa(v0)=[1:0]; }"),
        # text after the block used to be ignored
        (parse_decorated, "graph g=2 n=0 { v0: genus=2; } v1"),
        # a term on another space used to raise SpaceMismatch
        (parse_sum, "1 * graph g=2 n=0 { v0: genus=2; }\n1 * graph g=3 n=0 { v0: genus=3; }"),
        # JSON that used to raise JSONDecodeError, KeyError or TypeError
        (parse_sum, '{"g": 2, "n": 0, "terms": ['),
        (parse_sum, '{"g": 2, "n": 0}'),
        (parse_sum, '{"g": 2, "n": 0, "terms": [{"coeff": "1)", "graph": {}}]}'),
        (parse_decorated, '{"g": 2, "n": 0, "vertices": [{"genus": "2"}]}'),
        (parse_decorated, '{"g": 2, "n": 0, "vertices": 7}'),
    ],
)
def test_malformed_input_raises_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_graph_strips_decorations():
    g = parse_graph("graph g=2 n=0 { v0: genus=2; kappa(v0)=[1:1]; }")
    assert g.genus == 2


# -- properties ------------------------------------------------------------


@lru_cache(maxsize=None)
def _graph_pool(g, n):
    return [G for e in range(4) for G in stable_graphs(g, n, e)]


_SPACES = [(2, 0), (1, 2), (2, 1), (0, 5), (3, 0), (1, 3)]


@st.composite
def _decorated(draw, g, n):
    G = draw(st.sampled_from(_graph_pool(g, n)))
    psi = draw(st.lists(st.integers(0, 3), min_size=G.n_halfedges, max_size=G.n_halfedges))
    kappa = draw(
        st.lists(
            st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=2),
            min_size=G.n_vertices,
            max_size=G.n_vertices,
        )
    )
    d = DecoratedGraph(G, psi, [tuple(k.items()) for k in kappa])
    hperm = draw(st.permutations(range(G.n_halfedges)))
    vperm = draw(st.permutations(range(G.n_vertices)))
    return d.relabeled(dict(enumerate(hperm)), dict(enumerate(vperm)))


@st.composite
def _sums(draw):
    g, n = draw(st.sampled_from(_SPACES))
    terms = draw(st.lists(st.tuples(st.fractions(), _decorated(g, n)), min_size=1, max_size=5))
    return FormalSum(g, n, terms)


@settings(max_examples=150, deadline=None, database=None)
@given(_sums())
def test_text_and_json_round_trips_of_random_sums(s):
    assert parse_sum(sum_to_text(s), s.g, s.n) == s
    assert sum_from_json(sum_to_json(s)) == s
    assert parse_sum(json.dumps(sum_to_json(s)), s.g, s.n) == s
    for _, d in s.terms.values():
        assert parse_decorated(decorated_to_text(d)) == d
        assert decorated_from_json(decorated_to_json(d)) == d


@lru_cache(maxsize=None)
def _genus_two_classes():
    return [d for k in (1, 2) for d in decorated_basis(2, 1, k, "mbar")]


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_round_trips_of_products(data):
    classes = _genus_two_classes()
    x = FormalSum(2, 1, data.draw(st.lists(st.tuples(st.fractions(), st.sampled_from(classes)), max_size=3)))
    y = FormalSum.unit(data.draw(st.sampled_from(classes)))
    product = multiply(x, y)
    assert parse_sum(sum_to_text(product), 2, 1) == product
    assert sum_from_json(json.loads(json.dumps(sum_to_json(product)))) == product


@st.composite
def _corrupted(draw, text):
    """``text`` cut short, or with characters replaced, inserted or deleted."""
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = draw(st.one_of(st.sampled_from(list("{}()[]=:;,./*#-0123456789gnv \n")), st.characters()))
        if op == "insert":
            chars.insert(at, new)
        elif at < len(chars):
            if op == "replace":
                chars[at] = new
            else:
                del chars[at]
    return "".join(chars)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_corrupted_text_raises_parse_error_only(data):
    s = data.draw(_sums())
    assume(len(s) > 0)
    text = data.draw(st.sampled_from([sum_to_text(s), json.dumps(sum_to_json(s))]))
    with suppress(ParseError):
        parse_sum(data.draw(_corrupted(text)))
    d = data.draw(st.sampled_from([d for _, d in s.terms.values()]))
    text = data.draw(st.sampled_from([decorated_to_text(d), json.dumps(decorated_to_json(d))]))
    with suppress(ParseError):
        parse_decorated(data.draw(_corrupted(text)))
