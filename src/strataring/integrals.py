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

Everything is a ``fractions.Fraction``; no value is ever approximated.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import Counter
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


# -- memo cache ---------------------------------------------------------

ZERO = Fraction(0)

# TauKey -> value; TauKey = (genus, sorted psi exponents, kind code)
_tau_cache: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
_kappa_cache: dict[tuple, Fraction] = {}


def cache_get(g: int, exponents, kind) -> Fraction | None:
    kind = evaluation_kind(kind)
    return _tau_cache.get((g, tuple(sorted(exponents)), kind.value))


def cache_put(g: int, exponents, kind, value: Fraction) -> None:
    kind = evaluation_kind(kind)
    _tau_cache[(g, tuple(sorted(exponents)), kind.value)] = Fraction(value)


def cache_clear() -> None:
    _tau_cache.clear()
    _kappa_cache.clear()


def cache_snapshot(path: str) -> int:
    """Write the psi-integral memo table; returns the number of entries."""
    lines = []
    for (g, ds, kind), value in sorted(_tau_cache.items()):
        dstr = ",".join(str(d) for d in ds) if ds else "-"
        lines.append(f"v1 {g} {dstr} {kind} {value.numerator}/{value.denominator}\n")
    # a private temporary file in the target directory, so that concurrent
    # snapshots never write into one another's file before the rename
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return len(lines)


def cache_load(path: str) -> int:
    """Load a snapshot, skipping (with a warning) any corrupt lines."""
    loaded = 0
    try:
        fh = open(path)
    except OSError:
        return 0
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                tag, gs, dstr, kind, frac = line.split()
                if tag != "v1":
                    raise ValueError("bad version tag")
                g = int(gs)
                ds = () if dstr == "-" else tuple(int(x) for x in dstr.split(","))
                code = EvaluationKind(int(kind)).value
                num, den = frac.split("/")
                value = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                print(
                    f"warning: ignoring corrupt cache line {lineno} in {path}",
                    file=sys.stderr,
                )
                continue
            _tau_cache[(g, tuple(sorted(ds)), code)] = value
            loaded += 1
    return loaded


# -- pure psi integrals --------------------------------------------------


def wk_tau(g: int, exponents) -> Fraction:
    """The correlator <tau_{d_1} ... tau_{d_n}>_g; zero off dimension."""
    d = tuple(sorted(exponents, reverse=True))
    n = len(d)
    if g < 0 or any(x < 0 for x in d):
        return ZERO
    if sum(d) != 3 * g - 3 + n:
        return ZERO
    if 2 * g - 2 + n <= 0:
        return ZERO
    if g == 0:
        # closed multinomial form; never cached
        return Fraction(_multinomial(n - 3, d))
    key = (g, d, FUNDAMENTAL.value)
    hit = _tau_cache.get(key)
    if hit is not None:
        return hit
    value = _wk_recurse(g, d)
    _tau_cache[key] = value
    return value


def _wk_recurse(g: int, d: tuple[int, ...]) -> Fraction:
    n = len(d)
    if g == 1 and d == (1,):
        return Fraction(1, 24)
    if d and d[-1] == 0 and n >= 2:
        # string equation
        rest = d[:-1]
        total = ZERO
        for j in range(len(rest)):
            if rest[j] >= 1:
                total += wk_tau(g, rest[:j] + (rest[j] - 1,) + rest[j + 1 :])
        return total
    if d and d[-1] == 1 and n >= 2:
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


# -- Hodge evaluations ----------------------------------------------------


def _b_top(g: int) -> Fraction:
    return Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * abs(
        bernoulli(2 * g)
    ) / factorial(2 * g)


def hodge_psi(g: int, exponents, kind) -> Fraction:
    """Integral of a psi monomial against lambda_g (compact-type socle) or
    lambda_g lambda_{g-1} (rational-tails socle); zero off dimension."""
    kind = evaluation_kind(kind)
    if kind is FUNDAMENTAL:
        return wk_tau(g, exponents)
    d = tuple(sorted(exponents, reverse=True))
    n = len(d)
    if any(x < 0 for x in d) or 2 * g - 2 + n <= 0:
        return ZERO
    if g == 0:
        return wk_tau(0, d)
    if kind is LAMBDA_TOP or g == 1:
        # for g = 1 the two evaluations coincide (lambda_0 = 1)
        if sum(d) != 2 * g - 3 + n:
            return ZERO
        key = (g, d, LAMBDA_TOP.value)
        hit = _tau_cache.get(key)
        if hit is None:
            hit = _multinomial(2 * g - 3 + n, d) * _b_top(g)
            _tau_cache[key] = hit
        return hit
    if sum(d) != g - 2 + n:
        return ZERO
    key = (g, d, LAMBDA_PAIR.value)
    hit = _tau_cache.get(key)
    if hit is None:
        if d and d[-1] == 0 and n >= 2:
            # the closed formula needs positive exponents; strip zero
            # exponents with the string equation first
            rest = d[:-1]
            hit = ZERO
            for j in range(len(rest)):
                if rest[j] >= 1:
                    hit += hodge_psi(
                        g, rest[:j] + (rest[j] - 1,) + rest[j + 1 :], LAMBDA_PAIR
                    )
        else:
            denom = 2 ** (2 * g - 1) * factorial(2 * g)
            for x in d:
                denom *= double_factorial(2 * x - 1)
            hit = Fraction(factorial(2 * g - 3 + n)) * abs(bernoulli(2 * g)) / denom
        _tau_cache[key] = hit
    return hit


def kappa_reduce(g: int, psi_exponents, kappa_indices, kind=FUNDAMENTAL) -> Fraction:
    """Integral of a psi/kappa monomial with the chosen Hodge factor.

    One kappa index is removed per step by pushing forward along the map
    that forgets one extra point; lambda classes pull back along it, so
    the same recursion applies to all three evaluation kinds.  Every
    value is memoized under ``(g, sorted psi, sorted kappa, kind)``,
    kappa-free and genus-0 integrals included.
    """
    kind = evaluation_kind(kind)
    psi = tuple(sorted(psi_exponents, reverse=True))
    kap = tuple(sorted(kappa_indices, reverse=True))
    if any(b < 1 for b in kap):
        raise ValueError("kappa indices must be >= 1")
    key = (g, psi, kap, kind.value)
    hit = _kappa_cache.get(key)
    if hit is not None:
        return hit
    if not kap:
        # memoized here as well: genus-0 closed forms have no other memo
        total = hodge_psi(g, psi, kind)
    else:
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
    ``(genus, vertex kind, top degree)`` triple per vertex: under
    lambda_g lambda_{g-1} the genus-0 vertices are integrated against
    the fundamental class, and only decorations of exactly the vertex's
    top degree integrate to a nonzero value.
    """
    if not space_admits(G, kind.space):
        return None
    split = []
    for v, gv in enumerate(G.genera):
        vkind = FUNDAMENTAL if kind is LAMBDA_PAIR and gv == 0 else kind
        split.append((gv, vkind, top_degree(vkind.space, gv, G.degree(v))))
    return split


def _vertex_value(d: DecoratedGraph, v: int, kind: EvaluationKind) -> Fraction:
    g = d.graph.genera[v]
    psi = tuple(d.psi[h] for h in d.graph.halfedges_at[v])
    kap = tuple(j for j, f in d.kappa[v] for _ in range(f))
    return kappa_reduce(g, psi, kap, kind)


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
    if split is None:
        return ZERO
    value = Fraction(1)
    for v, (_, vkind, top) in enumerate(split):
        if d.vertex_codim(v) != top:
            return ZERO
        factor = _vertex_value(d, v, vkind)
        if factor == 0:
            return ZERO
        value *= factor
    return value


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
