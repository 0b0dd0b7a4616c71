"""The memo stores of layers 2 and 3, and their one owner.

A pairing or a product fills five stores on demand:

* ``structures._contraction_cache``: the contractions of each carrier;
* ``structures._structure_cache``: the structures of a graph on a carrier,
  in their compact form;
* ``algebra._pair_cache``: the carriers and mask partners of a pair of
  graphs;
* ``pairing._split_cache``: the ``hodge_split`` of a carrier per
  evaluation class;
* ``algebra._orbit_cache``: per carrier of a ``multiply``, its
  automorphisms and the canonical key of each decorated class met on it.

Each holds the graphs of its keys, so a store grows until it is cleared.
:func:`gram`, :func:`rank_table` and :func:`verify_relation` clear all five
when they return (:func:`clearing`); a lone ``multiply`` or
``integrate_product`` keeps them, so that a sequence of products reuses
them.  ``integrals._tau_cache`` and ``integrals._kappa_cache`` hold vertex
integrals, which do not depend on a graph, and stay.
"""

from __future__ import annotations

from functools import wraps


def _stores() -> dict[str, dict]:
    # looked up at call time: a module may rebind its store
    from . import algebra, pairing, structures

    return {
        "contractions": structures._contraction_cache,
        "structures": structures._structure_cache,
        "pairs": algebra._pair_cache,
        "splits": pairing._split_cache,
        "orbits": algebra._orbit_cache,
    }


def sizes() -> dict[str, int]:
    """The number of entries of each store, by name."""
    return {name: len(store) for name, store in _stores().items()}


def clear() -> None:
    """Empty every store."""
    for store in _stores().values():
        store.clear()


def clearing(fn):
    """``fn``, clearing every store when it returns or raises."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            clear()

    return wrapper
