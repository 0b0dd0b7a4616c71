"""Exact top intersection numbers on moduli of stable curves.

Pure psi integrals come from the genus-0 closed form and the KdV/Virasoro
recursion with string/dilaton shortcuts.  kappa classes are removed by
the forgetful-map pushforward, which adds one point of exponent
``b + 1 + sum(S)`` per chosen subset ``S`` of the remaining kappa indices
with alternating sign.  Evaluations against the Hodge classes use closed
formulas: the top-lambda integral is a multinomial coefficient times

    b_g = (2^(2g-1) - 1) / 2^(2g-1) * |B_2g| / (2g)!,

and the lambda_g lambda_{g-1} socle evaluation is

    (2g-3+n)! |B_2g| / (2^(2g-1) (2g)! prod (2 d_i - 1)!!).

A decorated term integrates as the product of its vertex integrals over
its :func:`hodge_split`, in one loop (:func:`_vertex_product`) that
``integrate_graph``, ``integrate_sum`` and ``pairing.integrate_product``
share.  Each kappa-free integral is memoized once, in ``_tau_cache`` under
``(genus, exponents in decreasing order, vertex kind)``; this is the table
``--cache`` saves.  Integrals with kappa classes are memoized in
``_kappa_cache``.  Everything is a ``fractions.Fraction``; no value is
ever approximated.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction
from itertools import product
from math import comb, factorial

from .algebra import DecoratedGraph, FormalSum, _multinomial
from .enumeration import space_admits, top_degree
from .graphs import StableGraph


class EvaluationKind(Enum):
    """Which class the socle pairing integrates against.  The value is the
    kind code of the cache file format."""

    fundamental = 0
    lambda_g = 1
    lambda_g_lambda_g_minus_1 = 2

    @property
    def space(self) -> str:
        """The space whose socle this class evaluates: ``mbar``, ``ct`` or ``rt``."""
        return _SPACE_OF_KIND[self]


FUNDAMENTAL = EvaluationKind.fundamental
LAMBDA_TOP = EvaluationKind.lambda_g
LAMBDA_PAIR = EvaluationKind.lambda_g_lambda_g_minus_1

_SPACE_OF_KIND = {FUNDAMENTAL: "mbar", LAMBDA_TOP: "ct", LAMBDA_PAIR: "rt"}
_KIND_ALIASES = {
    name: kind for kind, space in _SPACE_OF_KIND.items() for name in (kind.name, space)
}


def evaluation_kind(name) -> EvaluationKind:
    if isinstance(name, EvaluationKind):
        return name
    try:
        return _KIND_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown evaluation kind {name!r}") from None


class DimensionMismatch(ValueError):
    pass


# -- small arithmetic helpers -------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """The Bernoulli number B_m (even index; odd indices >= 3 vanish)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    k = m // 2
    while len(_bernoulli_cache) <= k:
        n = 2 * len(_bernoulli_cache)
        s = Fraction(n + 1, 1) * Fraction(-1, 2)  # B_1 term
        for j in range(len(_bernoulli_cache)):
            s += comb(n + 1, 2 * j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-s / (n + 1))
    return _bernoulli_cache[k]


def double_factorial(m: int) -> int:
    """(m)!! with the convention (-1)!! = 1."""
    if m <= 0:
        return 1
    out = 1
    while m > 0:
        out *= m
        m -= 2
    return out


# -- memo tables --------------------------------------------------------

ZERO = Fraction(0)

# (genus, psi exponents in decreasing order, vertex kind) -> psi integral
_tau_cache: dict[tuple[int, tuple[int, ...], EvaluationKind], Fraction] = {}
# (genus, decreasing psi, decreasing nonempty kappa indices, kind) -> integral
_kappa_cache: dict[tuple[int, tuple[int, ...], tuple[int, ...], EvaluationKind], Fraction] = {}

_CHECKSUM = "# sha256 "


def _digest(lines: list[str]) -> str:
    import hashlib  # imported here: it loads libcrypto, which only --cache needs

    return hashlib.sha256("".join(lines).encode()).hexdigest()


def cache_clear() -> None:
    _tau_cache.clear()
    _kappa_cache.clear()


def cache_snapshot(path: str) -> int:
    """Write the psi-integral memo table, one ``v1 g d kind value`` line per
    entry and a final ``# sha256`` line over them; returns the number of
    entries."""
    entries = sorted((g, d, kind.value, value) for (g, d, kind), value in _tau_cache.items())
    lines = [
        f"v1 {g} {','.join(map(str, d)) or '-'} {code} {value.numerator}/{value.denominator}\n"
        for g, d, code, value in entries
    ]
    # a private temporary file in the target directory, so that concurrent
    # snapshots never write into one another's file before the rename
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
            fh.write(f"{_CHECKSUM}{_digest(lines)}\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return len(lines)


def cache_load(path: str) -> int:
    """Load a snapshot; returns the number of entries loaded.

    A file whose last line is a checksum that does not match the lines
    before it loads nothing.  Otherwise corrupt lines are skipped.  Both
    warn, and what was not loaded is recomputed when needed.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError:
        return 0
    if lines and lines[-1].startswith(_CHECKSUM):
        digest = lines.pop()[len(_CHECKSUM) :].strip()
        if _digest(lines) != digest:
            print(f"warning: ignoring cache {path}: checksum mismatch", file=sys.stderr)
            return 0
    loaded = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tag, gs, dstr, code, frac = line.split()
            if tag != "v1":
                raise ValueError("bad version tag")
            g = int(gs)
            d = () if dstr == "-" else tuple(sorted(map(int, dstr.split(",")), reverse=True))
            kind = EvaluationKind(int(code))
            if _vertex_kind(g, kind) is not kind:
                raise ValueError("the engine keys this integral under another kind")
            if not _on_dimension(g, d, kind):
                raise ValueError("the engine never stores an off-dimension integral")
            num, den = frac.split("/")
            value = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            print(f"warning: ignoring corrupt cache line {lineno} in {path}", file=sys.stderr)
            continue
        _tau_cache[g, d, kind] = value
        loaded += 1
    return loaded


# -- psi integrals ---------------------------------------------------------


def _vertex_kind(g: int, kind: EvaluationKind) -> EvaluationKind:
    """The class a genus-``g`` vertex is integrated against under ``kind``.
    lambda_0 = 1, so genus 0 takes the fundamental class under every kind,
    and genus 1 under lambda_g lambda_{g-1} takes lambda_1."""
    if g == 0:
        return FUNDAMENTAL
    if g == 1 and kind is LAMBDA_PAIR:
        return LAMBDA_TOP
    return kind


def _on_dimension(g: int, d: tuple[int, ...], kind: EvaluationKind) -> bool:
    """Whether the psi monomial ``d`` (exponents in decreasing order) lies on
    a stable genus-``g`` vertex and has the top degree of ``kind``: the only
    integrals that can be nonzero, and the only ones ``_tau_cache`` holds."""
    n = len(d)
    if g < 0 or (d and d[-1] < 0) or 2 * g - 2 + n <= 0:
        return False
    return sum(d) == top_degree(kind.space, g, n)


def _psi_integral(g: int, d: tuple[int, ...], kind: EvaluationKind) -> Fraction:
    """The psi monomial ``d`` (exponents in decreasing order) integrated
    against ``kind``; zero off dimension.  Values are memoized under the
    vertex kind of ``g``, off-dimension zeros are not."""
    key = (g, d, kind)
    hit = _tau_cache.get(key)
    if hit is not None:
        return hit
    vkind = _vertex_kind(g, kind)
    if vkind is not kind:
        return _psi_integral(g, d, vkind)
    if not _on_dimension(g, d, kind):
        return ZERO
    n = len(d)
    if g == 0:
        value = Fraction(_multinomial(n - 3, d))
    elif kind is LAMBDA_TOP:
        b_g = Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * abs(bernoulli(2 * g))
        value = _multinomial(2 * g - 3 + n, d) * b_g / factorial(2 * g)
    elif d and d[-1] == 0:
        # the string equation; the lambda_g lambda_{g-1} closed form below
        # holds for positive exponents only
        rest = d[:-1]
        value = ZERO
        for j in range(len(rest)):
            if rest[j] >= 1:
                value += hodge_psi(g, rest[:j] + (rest[j] - 1,) + rest[j + 1 :], kind)
    elif kind is FUNDAMENTAL:
        value = _wk_recurse(g, d)
    else:
        denom = 2 ** (2 * g - 1) * factorial(2 * g)
        for x in d:
            denom *= double_factorial(2 * x - 1)
        value = Fraction(factorial(2 * g - 3 + n)) * abs(bernoulli(2 * g)) / denom
    _tau_cache[key] = value
    return value


def wk_tau(g: int, exponents) -> Fraction:
    """The correlator <tau_{d_1} ... tau_{d_n}>_g; zero off dimension."""
    return _psi_integral(g, tuple(sorted(exponents, reverse=True)), FUNDAMENTAL)


def hodge_psi(g: int, exponents, kind) -> Fraction:
    """Integral of a psi monomial against the evaluation class: the
    fundamental class, lambda_g (compact-type socle) or lambda_g
    lambda_{g-1} (rational-tails socle); zero off dimension."""
    return _psi_integral(g, tuple(sorted(exponents, reverse=True)), evaluation_kind(kind))


def _wk_recurse(g: int, d: tuple[int, ...]) -> Fraction:
    """<tau_d>_g for g >= 1 on dimension and positive exponents, by the
    dilaton equation or the KdV recursion on the largest exponent."""
    n = len(d)
    if g == 1 and d == (1,):
        return Fraction(1, 24)
    if d[-1] == 1 and n >= 2:
        # dilaton equation
        rest = d[:-1]
        return (2 * g - 2 + n - 1) * wk_tau(g, rest)

    # KdV recursion on the largest exponent
    k = d[0]
    rest = d[1:]
    total = ZERO
    for j in range(len(rest)):
        dj = rest[j]
        coeff = Fraction(
            double_factorial(2 * (k + dj) - 1), double_factorial(2 * dj - 1)
        )
        total += coeff * wk_tau(g, rest[:j] + (k + dj - 1,) + rest[j + 1 :])
    half = ZERO
    for a in range(k - 1):
        b = k - 2 - a
        w = double_factorial(2 * a + 1) * double_factorial(2 * b + 1)
        half += w * wk_tau(g - 1, rest + (a, b))
        for sub, comp, mult in _submultisets(rest):
            for g1 in range(g + 1):
                left = wk_tau(g1, sub + (a,))
                if left:
                    half += w * mult * left * wk_tau(g - g1, comp + (b,))
    total += Fraction(1, 2) * half
    return total / double_factorial(2 * k + 1)


def _submultisets(values: tuple[int, ...]):
    """Every sub-multiset of ``values`` as ``(sub, complement,
    multiplicity)``: a product over the distinct values of how many copies
    to take, where taking ``t`` of the ``m`` copies of a value is realized
    by ``comb(m, t)`` subsets of the points.  ``sub`` and ``complement``
    list their values in increasing order."""
    counts = sorted(Counter(values).items())
    for takes in product(*(range(m + 1) for _, m in counts)):
        sub, complement, multiplicity = [], [], 1
        for (v, m), t in zip(counts, takes):
            sub += [v] * t
            complement += [v] * (m - t)
            multiplicity *= comb(m, t)
        yield tuple(sub), tuple(complement), multiplicity


# -- kappa pushforward ------------------------------------------------------


def kappa_reduce(g: int, psi_exponents, kappa_indices, kind=FUNDAMENTAL) -> Fraction:
    """Integral of a psi/kappa monomial with the chosen Hodge factor.

    One kappa index is removed per step by pushing forward along the map
    that forgets one extra point; lambda classes pull back along it, so
    the same recursion applies to all three evaluation kinds.  A
    kappa-free monomial is the psi integral of ``_tau_cache``; the others
    are memoized under ``(g, sorted psi, sorted kappa, kind)``.
    """
    kind = evaluation_kind(kind)
    psi = tuple(sorted(psi_exponents, reverse=True))
    kap = tuple(sorted(kappa_indices, reverse=True))
    if not kap:
        return _psi_integral(g, psi, kind)
    key = (g, psi, kap, kind)
    hit = _kappa_cache.get(key)
    if hit is not None:
        return hit
    if kap[-1] < 1:
        raise ValueError("kappa indices must be >= 1")
    b1 = kap[0]
    rest = kap[1:]
    total = ZERO
    for sub, comp, mult in _submultisets(rest):
        new_point = b1 + 1 + sum(sub)
        total += (-1) ** len(sub) * mult * kappa_reduce(g, psi + (new_point,), comp, kind)
    _kappa_cache[key] = total
    return total


# -- integration of decorated graphs --------------------------------------


def hodge_split(G: StableGraph, kind: EvaluationKind):
    """How the evaluation class splits over the vertices of ``G``.

    ``None`` when the class vanishes on the stratum of ``G``: the top
    lambda class vanishes on graphs with a cycle, and the lambda_g
    lambda_{g-1} evaluation vanishes unless the graph is a tree whose
    unique positive-genus vertex carries the full genus.  Otherwise one
    ``(genus, vertex kind, top degree)`` triple per vertex, the vertex
    kind from :func:`_vertex_kind`; only decorations of exactly the
    vertex's top degree integrate to a nonzero value.
    """
    if not space_admits(G, kind.space):
        return None
    split = []
    for v, gv in enumerate(G.genera):
        vkind = _vertex_kind(gv, kind)
        split.append((gv, vkind, top_degree(vkind.space, gv, G.degree(v))))
    return split


# a raw term of a fused pairing: the decoration of a carrier, read by
# _vertex_value like a DecoratedGraph without building one
RawTerm = namedtuple("RawTerm", "graph psi kappa")


def _vertex_value(d: DecoratedGraph | RawTerm, v: int, kind: EvaluationKind) -> Fraction:
    """The integral of vertex ``v`` of ``d`` against the vertex kind
    ``kind``.  It reads only ``d.graph`` (``genera``, ``halfedges_at``),
    ``d.psi`` (one exponent per half-edge) and ``d.kappa`` (one monomial of
    ``(index, power)`` pairs per vertex), which a :class:`RawTerm` has too;
    the benchmark's tracer wraps it by this name and signature."""
    g = d.graph.genera[v]
    psi = tuple(d.psi[h] for h in d.graph.halfedges_at[v])
    kap = tuple(j for j, f in d.kappa[v] for _ in range(f))
    return kappa_reduce(g, psi, kap, kind)


def _vertex_product(d: DecoratedGraph | RawTerm, split, value: Fraction) -> Fraction:
    """``value`` times the integral of every vertex of ``d`` against its
    vertex kind in ``split`` (:func:`hodge_split`); zero at the first
    vertex that integrates to zero.  The one loop over vertex integrals:
    :func:`integrate_graph`, :func:`integrate_sum` and
    ``pairing.integrate_product`` all end here."""
    for v, (_, vkind, _) in enumerate(split):
        factor = _vertex_value(d, v, vkind)
        if factor == 0:
            return ZERO
        value *= factor
    return value


def integrate_graph(d: DecoratedGraph, kind) -> Fraction:
    """Integral of a decorated graph against the evaluation class.

    The value is the product of the vertex integrals; no automorphism
    factor is applied (terms of a :class:`FormalSum` stand for bare
    pushforwards).  The Hodge-splitting rules are those of
    :func:`hodge_split`.
    """
    kind = evaluation_kind(kind)
    top = top_degree(kind.space, d.graph.genus, d.graph.n_legs)
    if d.codim != top:
        raise DimensionMismatch(f"codimension {d.codim} is not the top degree {top}")
    return _integrate_checked(d, kind)


def _integrate_checked(d: DecoratedGraph, kind: EvaluationKind) -> Fraction:
    split = hodge_split(d.graph, kind)
    if split is None or any(d.vertex_codim(v) != top for v, (_, _, top) in enumerate(split)):
        return ZERO
    return _vertex_product(d, split, Fraction(1))


def integrate_sum(s: FormalSum, kind) -> Fraction:
    """Linear extension of :func:`integrate_graph`; terms off the top
    degree contribute zero."""
    kind = evaluation_kind(kind)
    top = top_degree(kind.space, s.g, s.n)
    total = ZERO
    for coeff, d in s.terms.values():
        if d.codim != top:
            continue
        total += coeff * _integrate_checked(d, kind)
    return total
