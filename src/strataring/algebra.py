"""Decorated boundary strata and their graded algebra.

A decorated graph is a stable graph with a psi exponent on every
half-edge (legs included) and a kappa monomial on every vertex.  Formal
rational combinations of decorated graphs, with isomorphic terms merged
through canonical keys, carry the product

    [G] . [H] = sum over carrying graphs A of
                (1 / |Aut A|) * sum over raw generic (G, H)-structures of
                the expansion of F_A(G, H) as decorations on A,

where F transports psi exponents through the half-edge embeddings,
expands each kappa class over the fiber of its vertex multinomially, and
multiplies by ``(-psi' - psi'')`` for every common edge.  A term ``[T]``
of a sum stands for the unnormalized pushforward of its decoration; the
class conventionally written with a ``1/|Aut|`` in front is produced by
:func:`sigma`.

That expansion depends only on the value key of a structure (the carrier,
the transported decorations and the common edges).  One pipeline,
:func:`_product_terms`, counts the pair structures per key over all term
pairs from tallies of each side's structures, without building a pair,
expands each key once and sums the raw decorations per carrier.  Its two
consumers differ only in the last step: :func:`multiply` adds each
distinct raw decoration to the result, and ``pairing.integrate_product``
integrates it once, and names the top degree of each carrier vertex, so
that only the raw terms of those degrees, the only ones whose integral
can be nonzero, are built.

Two decorations of one carrier ``A`` are isomorphic exactly when an
automorphism of ``A`` exchanges them, so :func:`multiply` runs one
canonical search per ``Aut(A)``-orbit of raw terms: it keys a memo by
the orbit minimum, in a compact encoding, and only a miss searches.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import factorial, lcm
from operator import add, gt, itemgetter

from . import canon
from .graphs import StableGraph, intern
from .structures import _automorphisms, _generic_carriers, _on


class SpaceMismatch(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


class UnknownVertex(ValueError):
    pass


class UnknownHalfEdge(ValueError):
    pass


class LabelCollision(ValueError):
    pass


def _monomial(items) -> tuple:
    """A kappa monomial as sorted ``(index, power)`` pairs, one per index:
    the powers of a repeated index are added."""
    powers: dict[int, int] = {}
    for j, f in items:
        if j < 1 or f < 1:
            raise ValueError("kappa indices and exponents must be positive")
        powers[j] = powers.get(j, 0) + f
    return tuple(sorted(powers.items()))


class DecoratedGraph:
    """A stable graph with psi exponents per half-edge and kappa exponents
    per vertex (stored as sorted ``(index, power)`` pairs, indices >= 1,
    one pair per index)."""

    __slots__ = ("graph", "psi", "kappa", "__dict__")

    def __init__(self, graph: StableGraph, psi=None, kappa=None):
        self.graph = graph
        self.psi = tuple(psi) if psi is not None else (0,) * graph.n_halfedges
        if kappa is None:
            kappa = ((),) * graph.n_vertices
        self.kappa = tuple(_monomial(k) for k in kappa)
        if len(self.psi) != graph.n_halfedges or len(self.kappa) != graph.n_vertices:
            raise ValueError("decoration shape does not match the graph")
        if any(e < 0 for e in self.psi):
            raise ValueError("psi exponents must be nonnegative")

    def vertex_codim(self, v: int) -> int:
        c = sum(j * f for j, f in self.kappa[v])
        c += sum(self.psi[h] for h in self.graph.halfedges_at[v])
        return c

    @cached_property
    def codim(self) -> int:
        return self.graph.n_edges + sum(
            self.vertex_codim(v) for v in range(self.graph.n_vertices)
        )

    @cached_property
    def _canon(self):
        """``(canonical key, automorphism order)``; nothing reads the vertex
        order of a decorated graph, so it is not kept."""
        return canon.canonical_data(self.graph, self.psi, self.kappa)[:2]

    @property
    def canonical_key(self):
        return self._canon[0]

    @cached_property
    def _interned(self):
        """``(representative, (psi items, kappa items))``: the decoration
        moved onto the interned representative of the graph (see
        :func:`graphs.intern`), as ``(half-edge, exponent)`` items of its
        nonzero psi exponents and ``(vertex, j, f)`` items of its kappa
        monomials, in half-edge and vertex order."""
        rep, hmap, vmap = intern(self.graph)
        psi = sorted((hmap[h], e) for h, e in enumerate(self.psi) if e)
        kappa = sorted(
            (vmap[v], j, f) for v, monomial in enumerate(self.kappa) for j, f in monomial
        )
        return rep, (tuple(psi), tuple(kappa))

    @property
    def aut_order(self) -> int:
        """Automorphisms preserving the decorations."""
        return self._canon[1]

    def relabeled(self, hmap, vmap) -> "DecoratedGraph":
        g2 = self.graph.relabeled(hmap, vmap)
        psi = [0] * len(self.psi)
        for h, e in enumerate(self.psi):
            psi[hmap[h]] = e
        kappa = [()] * self.graph.n_vertices
        for v, k in enumerate(self.kappa):
            kappa[vmap[v]] = k
        return DecoratedGraph(g2, tuple(psi), tuple(kappa))

    def __eq__(self, other):
        if not isinstance(other, DecoratedGraph):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self):
        return hash(self.canonical_key)

    def __repr__(self):
        from . import grammar

        return grammar.decorated_to_text(self)


def kappa_apply(a: int, v: int, d: DecoratedGraph) -> DecoratedGraph:
    """Multiply the decoration at vertex ``v`` by kappa_a."""
    if a < 1:
        raise ValueError("kappa index must be >= 1 (kappa_0 is a scalar)")
    if not (0 <= v < d.graph.n_vertices):
        raise UnknownVertex(f"no vertex {v}")
    k = dict(d.kappa[v])
    k[a] = k.get(a, 0) + 1
    kappa = list(d.kappa)
    kappa[v] = tuple(sorted(k.items()))
    return DecoratedGraph(d.graph, d.psi, tuple(kappa))


def psi_apply(h: int, d: DecoratedGraph) -> DecoratedGraph:
    """Add one arrowhead on half-edge ``h``."""
    if not (0 <= h < d.graph.n_halfedges):
        raise UnknownHalfEdge(f"no half-edge {h}")
    psi = list(d.psi)
    psi[h] += 1
    return DecoratedGraph(d.graph, tuple(psi), d.kappa)


class FormalSum:
    """Rational combination of decorated graphs on a fixed (g, n)."""

    __slots__ = ("g", "n", "terms")

    def __init__(self, g: int, n: int, terms=None):
        self.g = g
        self.n = n
        self.terms: dict[object, tuple[Fraction, DecoratedGraph]] = {}
        for coeff, d in terms or ():
            self._add(Fraction(coeff), d)

    def _add(self, coeff: Fraction, d: DecoratedGraph) -> None:
        if d.graph.genus != self.g or d.graph.n_legs != self.n:
            raise SpaceMismatch("term lives on a different moduli space")
        key = d.canonical_key
        if key in self.terms:
            c = self.terms[key][0] + coeff
            if c == 0:
                del self.terms[key]
            else:
                self.terms[key] = (c, self.terms[key][1])
        elif coeff != 0:
            self.terms[key] = (coeff, d)

    @classmethod
    def unit(cls, d: DecoratedGraph) -> "FormalSum":
        return cls(d.graph.genus, d.graph.n_legs, [(Fraction(1), d)])

    def items(self):
        return [self.terms[k] for k in sorted(self.terms)]

    def coefficient(self, d: DecoratedGraph) -> Fraction:
        entry = self.terms.get(d.canonical_key)
        return entry[0] if entry else Fraction(0)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if (self.g, self.n) != (other.g, other.n):
            raise SpaceMismatch("sums live on different moduli spaces")
        out = FormalSum(self.g, self.n)
        for c, d in self.terms.values():
            out._add(c, d)
        for c, d in other.terms.values():
            out._add(c, d)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, c) -> "FormalSum":
        c = Fraction(c)
        out = FormalSum(self.g, self.n)
        if c != 0:
            for coeff, d in self.terms.values():
                out._add(coeff * c, d)
        return out

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        if (self.g, self.n) != (other.g, other.n):
            return False
        return {k: v[0] for k, v in self.terms.items()} == {
            k: v[0] for k, v in other.terms.items()
        }

    def __repr__(self):
        from . import grammar

        return grammar.sum_to_text(self)

    def codimensions(self) -> set[int]:
        return {d.codim for _, d in self.terms.values()}


def homogeneous_codim(s: FormalSum) -> int:
    cods = s.codimensions()
    if len(cods) != 1:
        raise DegreeMismatch(f"sum is not homogeneous: codimensions {sorted(cods)}")
    return next(iter(cods))


def sigma(d: DecoratedGraph) -> FormalSum:
    """The stratum class with its conventional ``1/|Aut|`` normalization,
    taken with respect to the underlying (undecorated) graph."""
    return FormalSum.unit(d).scale(Fraction(1, d.graph.aut_order))


def kappa_pullback(a: int, s: FormalSum) -> FormalSum:
    """Multiplication by kappa_a: each term is summed over placements of
    one extra kappa_a on its vertices."""
    out = FormalSum(s.g, s.n)
    for coeff, d in s.terms.values():
        for v in range(d.graph.n_vertices):
            out._add(coeff, kappa_apply(a, v, d))
    return out


def normalize(s: FormalSum) -> FormalSum:
    """Drop terms in which some vertex decoration exceeds the dimension of
    its vertex moduli space; such classes vanish."""
    out = FormalSum(s.g, s.n)
    for coeff, d in s.terms.values():
        ok = all(
            d.vertex_codim(v) <= 3 * d.graph.genera[v] - 3 + d.graph.degree(v)
            for v in range(d.graph.n_vertices)
        )
        if ok:
            out._add(coeff, d)
    return out


# -- multiplication ----------------------------------------------------

_pair_cache: dict[tuple[object, object], list] = {}


def _generic_pairs_interned(RG: StableGraph, RH: StableGraph):
    key = (RG.canonical_key, RH.canonical_key)
    if key not in _pair_cache:
        _pair_cache[key] = _generic_carriers(RG, RH)
    return _pair_cache[key]


def _compositions(total: int, parts: int, caps=None):
    """Weak compositions of ``total`` into ``parts`` slots, with slot ``i``
    at most ``caps[i]`` when ``caps`` is given."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    cap = total if caps is None else min(total, caps[0])
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    rest_caps = None if caps is None else caps[1:]
    for first in range(cap + 1):
        for rest in _compositions(total - first, parts - 1, rest_caps):
            yield (first,) + rest


def _multinomial(total: int, counts) -> int:
    out = factorial(total)
    for c in counts:
        out //= factorial(c)
    return out


def _expand_structure_raw(A: StableGraph, base_psi, kappa_jobs, common_edges, targets=None):
    """Expansion of the contribution of a structure with these transported
    decorations (see :func:`_side_groups`) and common edges, as a list of raw
    ``(signed integer coefficient, psi tuple, kappa item tuples)`` terms on
    ``A``, without the ``1/|Aut A|`` weight.

    Each kappa job ``(fibre, j, f)`` spreads kappa_j^f over its fibre in
    every weak composition of ``f``, with its multinomial coefficient; each
    common edge ``(h, h')`` contributes ``(-psi_h - psi_h')``.  The terms
    come in the order of ``itertools.product``: over the spreads (first
    job outermost), then over the psi bumps (first common edge outermost).

    ``targets``, one degree per vertex of ``A``, keeps only the terms of
    exactly those vertex degrees, in the same order.  A vertex's gap is its
    target less its transported psi.  A key with a negative gap, or whose
    kappa degree and common edges do not add up to the gaps, has no such
    term; otherwise only the compositions that fit under the gaps are
    spread, and only the bumps that close every remaining gap are taken.
    """
    gaps = None
    if targets is not None:
        vertex_of = A.vertex_of
        gaps = list(targets)
        for h, e in enumerate(base_psi):
            gaps[vertex_of[h]] -= e
        excess = sum(j * f for _, j, f in kappa_jobs) + len(common_edges)
        if min(gaps) < 0 or sum(gaps) != excess:
            return []
        # the bumps grouped by the degree they add to each vertex
        closing: dict[tuple, list] = {}
        for bumps in product(*common_edges):
            added = [0] * A.n_vertices
            for h in bumps:
                added[vertex_of[h]] += 1
            closing.setdefault(tuple(added), []).append(bumps)
    spreads = [
        [
            (_multinomial(f, counts), [(x, j, c) for x, c in zip(fiber, counts) if c])
            for counts in _compositions(
                f, len(fiber), None if gaps is None else [gaps[x] // j for x in fiber]
            )
        ]
        for fiber, j, f in kappa_jobs
    ]
    sign = (-1) ** len(common_edges)
    out = []
    for choice in product(*spreads):
        coeff = sign
        kappa = [{} for _ in range(A.n_vertices)]
        for c, placement in choice:
            coeff *= c
            for x, j, p in placement:
                kappa[x][j] = kappa[x].get(j, 0) + p
        if gaps is None:
            bump_choices = product(*common_edges)
        else:
            rest = tuple(gap - sum(j * p for j, p in k.items()) for gap, k in zip(gaps, kappa))
            bump_choices = closing.get(rest, ())
        kappa = tuple(tuple(sorted(k.items())) for k in kappa)
        for bumps in bump_choices:
            psi = list(base_psi)
            for h in bumps:
                psi[h] += 1
            out.append((coeff, tuple(psi), kappa))
    return out


def _side_groups(R: StableGraph, A: StableGraph, masks, deco, degrees=None) -> dict:
    """The structures of ``R`` on ``A`` with a mask in ``masks``, grouped
    per mask by the psi of every ``A``-half-edge and the kappa jobs
    ``(fibre, j, f)`` they transport from ``deco`` (the sparse items of
    :attr:`DecoratedGraph._interned`): ``{mask: [(first, count, psi,
    jobs)]}``.  ``first``, ``(sort key, index)`` of the first structure,
    orders all masks' structures as ``enumerate_generic_pairs`` does: sort
    keys tie only within one contraction.  Groups whose psi exceeds
    ``degrees`` are dropped.

    A psi exponent on a leg stays on the leg of its label; one on an edge
    half moves to the half-edge of ``A`` that the edge code in the
    structure's key names (see ``structures._Entry``).  A kappa job takes
    its fibre from the structure's fibres."""
    psi_items, kappa_items = deco
    entry = _on(R, A)
    if not psi_items and not kappa_items:  # one group per mask, which fits any degrees
        blank = (0,) * A.n_halfedges
        out = {}
        for m in masks:
            c = entry.built(m)
            out[m] = [((c.keys[0], 0), len(c.keys), blank, ())]
        return out
    where, low, halves = entry.where, entry.low, entry.halves
    vertex_of = A.vertex_of
    base = [0] * len(vertex_of)
    # the load of the legs' psi on each vertex, if groups are to be checked
    fixed_load = [0] * len(degrees) if degrees is not None and psi_items else None
    moving = []  # (shift, side, exponent) of the psi on edge halves
    for h, e in psi_items:
        w = where[h]
        if w < 0:
            base[~w] += e
            if fixed_load is not None:
                fixed_load[vertex_of[~w]] += e
        else:
            moving.append((w >> 1, w & 1, e))
    fixed_psi = tuple(base)
    out = {}
    for m in masks:
        c = entry.built(m)
        groups = {}
        last = None
        psi, jobs = fixed_psi, ()
        for i, (key, fibres) in enumerate(zip(c.keys, c.fibres)):
            if moving:
                psi = base.copy()
                for shift, side, e in moving:
                    psi[halves[(key >> shift & low) ^ side]] += e
                psi = tuple(psi)
            if kappa_items and fibres is not last:
                last = fibres
                jobs = tuple((fibres[u], j, f) for u, j, f in kappa_items)
            group = groups.get((psi, jobs))
            if group is None:
                groups[psi, jobs] = [(key, i), 1]
            else:
                group[1] += 1
        out[m] = kept = []
        for (psi, jobs), (first, count) in groups.items():
            if fixed_load is not None:
                load = fixed_load.copy()
                for shift, side, e in moving:
                    load[vertex_of[halves[(first[0] >> shift & low) ^ side]]] += e
                if any(map(gt, load, degrees)):
                    continue
            kept.append((first, count, psi, jobs))
    return out


def _key_tally(A: StableGraph, partners, RG, decoG, RH, decoH, degrees=None) -> dict:
    """``{value key: [count, jobs]}`` of the generic pairs on ``A`` with the
    mask partners ``partners``.  Side groups of two partner masks stand for
    ``count_G * count_H`` pairs of one key: the sum of their psi, their jobs
    in sorted order and the common edges.  Taken in the order of their first
    pairs, they list the keys as the pairs of ``enumerate_generic_pairs``
    first meet them, with the jobs (left first) of that pair."""
    groups_G = _side_groups(RG, A, [m for m, _ in partners], decoG, degrees)
    groups_H = _side_groups(RH, A, {n for _, ns in partners for n, _ in ns}, decoH, degrees)
    combos = [
        (first_G, first_H, count_G * count_H, psi_G, psi_H, jobs_G + jobs_H, common)
        for m, ns in partners
        for n, common in ns
        for first_G, count_G, psi_G, jobs_G in groups_G[m]
        for first_H, count_H, psi_H, jobs_H in groups_H[n]
    ]
    combos.sort(key=itemgetter(0, 1))
    tally: dict[tuple, list] = {}
    for _, _, count, psi_G, psi_H, jobs, common in combos:
        key = (tuple(map(add, psi_G, psi_H)), tuple(sorted(jobs)), common)
        tally.setdefault(key, [0, jobs])[0] += count
    return tally


def _product_terms(term_pairs, targets=None):
    """The raw terms of a product, carrier by carrier.

    ``term_pairs`` yields ``(coeff, x, y)``: a ``Fraction`` and two
    decorated graphs.  The pairs on each carrier ``A`` are counted per
    value key (:func:`_key_tally`), the counts weighted by ``coeff / |Aut
    A|`` are summed over the term pairs, and each key with a nonzero weight
    is expanded once, with the kappa jobs of its first pair.  ``targets``,
    if given, maps each carrier to one degree per vertex when it is first
    met, and only the raw terms of those degrees are built.

    Yields ``(A, {(psi, kappa): coeff})`` per carrier, in the order in
    which the carriers first occur: the raw decorations on ``A`` with a
    nonzero coefficient, in the order in which they first occur.
    """
    # id(carrier) -> (carrier, {value key: [weight, jobs]}, degrees);
    # holding the carrier keeps its id from being reused during the call
    carriers: dict[int, tuple] = {}
    for c, x, y in term_pairs:
        RG, decoG = x._interned
        RH, decoH = y._interned
        for A, partners in _generic_pairs_interned(RG, RH):
            if id(A) not in carriers:
                carriers[id(A)] = (A, {}, None if targets is None else targets(A))
            _, keyed, degrees = carriers[id(A)]
            weight = c / A.aut_order
            for key, (count, jobs) in _key_tally(A, partners, RG, decoG, RH, decoH, degrees).items():
                seen = keyed.get(key)
                if seen is None:
                    keyed[key] = [weight * count, jobs]
                else:
                    seen[0] += weight * count
    for A, keyed, degrees in carriers.values():
        # the raw terms are summed as integer multiples of one denominator
        # per carrier, so that a raw term costs no Fraction arithmetic
        denominator = lcm(*(weight.denominator for weight, _ in keyed.values()))
        raw: dict[tuple, int] = {}
        for (base_psi, _, common_edges), (weight, jobs) in keyed.items():
            scale = weight.numerator * (denominator // weight.denominator)
            if scale:
                terms = _expand_structure_raw(A, base_psi, jobs, common_edges, degrees)
                for coeff, psi, kappa in terms:
                    deco = (psi, kappa)
                    raw[deco] = raw.get(deco, 0) + scale * coeff
        keyed.clear()  # the keys are spent; free them before the consumer runs
        yield A, {deco: Fraction(n, denominator) for deco, n in raw.items() if n}


# id(carrier) -> (carrier, gathers, {orbit code: (canonical key, aut order)})
_orbit_cache: dict[int, tuple] = {}


def _orbits(A: StableGraph) -> tuple[list, dict]:
    """The gathers of ``Aut(A)`` and the memo of the decorated classes on
    ``A`` met so far.  A gather is an ``itemgetter`` over ``psi + kappa``
    that reads them through one automorphism, so the gathers of a
    decoration list its ``Aut(A)``-orbit; a carrier with no automorphism
    but the identity has none.  The memo is keyed by :func:`_orbit_code`
    of the orbit minimum."""
    hit = _orbit_cache.get(id(A))
    if hit is None:
        nh = A.n_halfedges
        auts = _automorphisms(A)
        gathers = [itemgetter(*hmap, *(nh + x for x in vmap)) for hmap, vmap in auts]
        hit = _orbit_cache[id(A)] = (A, gathers if len(auts) > 1 else [], {})
    return hit[1], hit[2]


def _orbit_code(psi, kappa):
    """A compact memo key for a decoration of a fixed carrier: the psi
    exponents as bytes, then each vertex's kappa monomial as ``j, f``
    bytes closed by a 0 byte (``j, f >= 1``), left out when no vertex has
    one.  An exponent or index above 255 does not fit a byte; that
    decoration is keyed by its tuple, which equals no ``bytes``."""
    try:
        if any(kappa):
            return bytes(psi) + bytes(chain.from_iterable(chain(*m, (0,)) for m in kappa))
        return bytes(psi)
    except ValueError:
        return psi, kappa


def multiply(x: FormalSum, y: FormalSum) -> FormalSum:
    """Product in the graded algebra of decorated graphs.

    The raw terms of every carrier come from :func:`_product_terms`, and
    enter the result in the order in which they first occur within their
    carrier.  Raw terms that an automorphism of the carrier exchanges are
    one class, so a canonical search runs once per ``Aut(A)``-orbit: each
    raw term is read through every automorphism (:func:`_orbits`), and the
    ``(key, aut order)`` of the smallest reading is memoized across calls.
    A :class:`DecoratedGraph` is built only for a raw term that starts a
    class of the result; the others add to its coefficient.
    """
    if (x.g, x.n) != (y.g, y.n):
        raise SpaceMismatch("factors live on different moduli spaces")
    out = FormalSum(x.g, x.n)
    term_pairs = (
        (cG * cH, dG, dH) for cG, dG in x.terms.values() for cH, dH in y.terms.values()
    )
    for A, raw in _product_terms(term_pairs):
        gathers, memo = _orbits(A)
        nh = A.n_halfedges
        for (psi, kappa), coeff in raw.items():
            if gathers:
                least = min([gather(psi + kappa) for gather in gathers])
                code = _orbit_code(least[:nh], least[nh:])
            else:
                code = _orbit_code(psi, kappa)
            known = memo.get(code)
            if known is None:
                known = memo[code] = canon.canonical_data(A, psi, kappa)[:2]
            entry = out.terms.get(known[0])
            if entry is None:
                d = DecoratedGraph(A, psi, kappa)
                d.__dict__["_canon"] = known
            else:  # the class's representative; only the coefficient changes
                d = entry[1]
            out._add(coeff, d)
    return out


# -- gluing ------------------------------------------------------------


def _leg(G: StableGraph, label: int) -> int:
    try:
        return G.leg_of_label[label]
    except KeyError as exc:
        raise UnknownHalfEdge(f"missing leg label {exc}") from exc


def _glued(s: FormalSum, join, relabel) -> FormalSum:
    """The sum of the terms of ``s``, each glued by ``join``.  ``join(d)``
    gives the genera, vertex map and involution of the glued graph, its
    legs as ``(side, label, half-edge)`` and its psi and kappa; a leg is
    renamed through ``relabel`` by ``(side, label)`` or else by ``label``.
    Joining legs leaves every vertex stable, so the graph can only fail on
    its labels, with ``graphs.LegLabelError``."""
    relabel = dict(relabel or {})
    out = None
    for coeff, d in s.terms.values():
        genera, vertex_of, partner, sided, psi, kappa = join(d)
        legs = [(relabel.get((side, l), relabel.get(l, l)), h) for side, l, h in sided]
        labels = sorted(label for label, _ in legs)
        if len(set(labels)) != len(labels):
            raise LabelCollision(f"leg labels collide after relabeling: {labels}")
        graph = StableGraph(genera, vertex_of, partner, legs)
        if out is None:
            out = FormalSum(graph.genus, graph.n_legs)
        out._add(coeff, DecoratedGraph(graph, psi, kappa))
    if out is None:
        raise ValueError("cannot graft an empty sum (target space unknown)")
    return out


def graft(
    piece: FormalSum,
    host: DecoratedGraph,
    piece_leg: int,
    host_leg: int,
    relabel=None,
) -> FormalSum:
    """Glue a designated leg of every term of ``piece`` to a leg of
    ``host``, forming one new edge.  Remaining legs are renamed through
    ``relabel`` (keys may be plain labels or ``("host"|"piece", label)``).
    """
    hg = host.graph
    off_v, off_h = hg.n_vertices, hg.n_halfedges

    def join(d):
        pg = d.graph
        h_host, h_piece = _leg(hg, host_leg), _leg(pg, piece_leg) + off_h
        partner = list(hg.partner) + [h + off_h for h in pg.partner]
        partner[h_host], partner[h_piece] = h_piece, h_host
        vertex_of = hg.vertex_of + tuple(v + off_v for v in pg.vertex_of)
        legs = [("host", label, h) for label, h in hg.legs if label != host_leg]
        legs += [("piece", label, h + off_h) for label, h in pg.legs if label != piece_leg]
        psi, kappa = host.psi + d.psi, host.kappa + d.kappa
        return hg.genera + pg.genera, vertex_of, partner, legs, psi, kappa

    return _glued(piece, join, relabel)


def graft_loop(s: FormalSum, leg_a: int, leg_b: int, relabel=None) -> FormalSum:
    """Join two legs of each term of ``s`` to each other, forming a loop
    edge (or an edge between two vertices of the same term)."""

    def join(d):
        g = d.graph
        ha, hb = _leg(g, leg_a), _leg(g, leg_b)
        partner = list(g.partner)
        partner[ha], partner[hb] = hb, ha
        legs = [(None, label, h) for label, h in g.legs if label not in (leg_a, leg_b)]
        return g.genera, g.vertex_of, partner, legs, d.psi, d.kappa

    return _glued(s, join, relabel)
