"""The memo stores of layers 2 and 3: what fills them, who empties them,
and what the engine keeps in them."""

from __future__ import annotations

import pytest

from strataring import stores, structures
from strataring.algebra import FormalSum, multiply
from strataring.enumeration import decorated_basis
from strataring.grammar import load_sum
from strataring.pairing import gram, integrate_product, rank_table, verify_relation


def _fill():
    """Fill every store with one fused pairing and one product of two
    genus-3 classes."""
    x, y = decorated_basis(3, 1, 2, "ct")[:2]
    integrate_product(FormalSum.unit(x), FormalSum.unit(y), "ct")
    multiply(FormalSum.unit(x), FormalSum.unit(y))
    assert all(stores.sizes().values()), stores.sizes()


def test_every_store_is_owned_and_a_lone_pairing_keeps_them():
    stores.clear()
    assert stores.sizes() == {
        "contractions": 0, "structures": 0, "pairs": 0, "splits": 0, "orbits": 0
    }
    _fill()
    stores.clear()
    assert not any(stores.sizes().values())


def test_the_top_level_calls_empty_the_stores(fixtures_dir):
    _fill()
    first = gram(3, 1, 2, "ct")
    assert not any(stores.sizes().values())
    _fill()
    assert rank_table(2, 1, "mbar") == [1, 3, 5, 3, 1]
    assert not any(stores.sizes().values())
    _fill()
    assert verify_relation(load_sum(str(fixtures_dir / "m21_relation.sum")), 2, 1, "ct").passed
    assert not any(stores.sizes().values())
    # also when the call raises
    _fill()
    with pytest.raises(ValueError):
        gram(3, 1, 99, "ct")
    assert not any(stores.sizes().values())
    # a fill from cold stores gives the same matrix
    second = gram(3, 1, 2, "ct")
    assert (second.rows, second.cols) == (first.rows, first.cols)
    assert second.entries == first.entries


def _count_built(monkeypatch) -> list:
    built = []

    def counted(cls):
        return lambda *args: built.append(cls) or cls(*args)

    for name in ("GStructure", "PairStructure"):
        monkeypatch.setattr(structures, name, counted(getattr(structures, name)))
    return built


def test_rank_tables_build_no_g_structure(monkeypatch):
    # the engine keeps structures as edge codes and alpha tuples; only the
    # public listings build GStructure and PairStructure objects
    built = _count_built(monkeypatch)
    stores.clear()
    assert rank_table(3, 1, "mbar") == [1, 5, 16, 29, 29, 16, 5, 1]
    assert built == []
    # the same counters do see the public listing
    G = decorated_basis(3, 1, 1, "mbar")[-1].graph
    assert structures.enumerate_generic_pairs(G, G) and built


def test_multiply_builds_no_g_structure(monkeypatch, fixtures_dir):
    # the automorphisms of a carrier are read from its compact structures
    built = _count_built(monkeypatch)
    stores.clear()
    relation = load_sum(str(fixtures_dir / "m21_relation.sum"))
    assert len(multiply(relation, relation)) > 0
    assert stores.sizes()["orbits"] > 0
    assert built == []
