"""Per-layer spans and counters, installed from outside the package.

Each traced entry point belongs to a bucket (a layer, or one part of a
layer).  A call opens a span only when the innermost open span belongs to
another bucket; calls from inside a span of the same bucket (recursion,
helpers of one layer) are counted, not recorded.  A span is ``(bucket,
parent span, start, end)``.  Spans live in flat arrays until the round
ends and are then written out in one go.

A bucket's self time is the summed duration of its spans minus the time
their child spans cover.

The wrappers replace every module-level binding of the wrapped function in
the ``strataring`` modules, because several callers import entry points
by name (``pairing`` holds its own ``kappa_reduce`` and
``_expand_structure_raw``).  Names looked up at call time, such as the
function-local ``from .enumeration import space_admits`` in
``integrals``, pick up the wrapper from the module attribute.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

ROOT_BUCKET = "bench"


class Tracer:
    def __init__(self):
        self.buckets: list[str] = [ROOT_BUCKET]
        self.parent = array("q", [-1])
        self.bucket = array("H", [0])
        self.start = array("d", [time.perf_counter()])
        self.end = array("d", [0.0])
        self.stack: list[int] = [0]  # open span indices, innermost last
        self.counts: Counter = Counter()

    def bucket_id(self, name: str) -> int:
        if name not in self.buckets:
            self.buckets.append(name)
        return self.buckets.index(name)

    def wrap(self, fn, bucket=None, before=None, after=None):
        """A wrapper of ``fn`` that opens a ``bucket`` span on entry from
        another bucket.  ``before(args)`` runs first and its result is
        handed to ``after(args, result, token, nested)`` once ``fn``
        returns; ``nested`` tells whether the call came from inside a span
        of the same bucket."""
        b = None if bucket is None else self.bucket_id(bucket)
        stack, parent, bucket_of = self.stack, self.parent, self.bucket
        start, end = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            nested = b is None or bucket_of[stack[-1]] == b
            if nested:
                result = fn(*args, **kwargs)
            else:
                idx = len(start)
                parent.append(stack[-1])
                bucket_of.append(b)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
            if after is not None:
                after(args, result, token, nested)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def close(self) -> None:
        self.end[0] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.start)
        for i in range(1, len(self.start)):
            covered[self.parent[i]] += self.end[i] - self.start[i]
        out = {name: 0.0 for name in self.buckets}
        for i in range(len(self.start)):
            name = self.buckets[self.bucket[i]]
            out[name] += (self.end[i] - self.start[i]) - covered[i]
        return out

    def write_spans(self, path) -> None:
        """One ``bucket<TAB>parent<TAB>start<TAB>end`` line per span, times
        in seconds from the start of the round."""
        t0 = self.start[0]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("bucket\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.buckets[self.bucket[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "strataring" or name.startswith("strataring."))]


def patch_everywhere(fn, wrapper) -> None:
    """Rebind every module-level name that holds ``fn`` to ``wrapper``."""
    bound = False
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                bound = True
    if not bound:
        raise RuntimeError(f"no binding of {fn!r} found")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of the five layers."""
    from strataring import algebra, canon, enumeration, integrals, pairing, structures

    c = tracer.counts

    def count(key):
        def after(args, result, token, nested):
            c[key] += 1
        return after

    # layer 1: graph enumeration and canonical forms
    listed = set()

    def after_stable(args, result, token, nested):
        if args not in listed:
            listed.add(args)
            c["enumeration.graphs"] += len(result)

    def after_basis(args, result, token, nested):
        c["enumeration.basis_classes"] += len(result)

    wrap_all(tracer, enumeration.stable_graphs, "enumeration.stable_graphs", after=after_stable)
    wrap_all(tracer, enumeration.decorated_basis, "enumeration.decorated_basis", after=after_basis)
    wrap_all(tracer, canon.canonical_data, "canon", after=count("canon.calls"))
    wrap_all(tracer, canon.ordering_maps, "canon", after=count("canon.calls"))

    # layer 2: carriers and pair structures.  A carrier is admitted when it
    # carries a generic pair structure and the space of the pairing that
    # asked for it (all graphs outside a fused pairing) admits it.
    space = [None]

    def before_pairing(args):
        space[0] = ("mbar", "ct", "rt")[integrals.evaluation_kind(args[2]).value]

    def after_pairing(args, result, token, nested):
        c["pairing.pairings"] += 1
        space[0] = None

    def after_pairs_on(args, result, token, nested):
        c["structures.carriers"] += 1
        c["structures.pair_structures"] += len(result)
        if result and (space[0] is None or space_admits(args[2], space[0])):
            c["structures.carriers_admitted"] += 1

    def before_lookup(args):
        return c["structures.calls"]

    def after_lookup(args, result, token, nested):
        if c["structures.calls"] == token:
            c["structures.pair_cache_hits"] += 1

    space_admits = enumeration.space_admits
    wrap_all(tracer, structures.enumerate_generic_pairs, "structures", after=count("structures.calls"))
    wrap_all(tracer, structures._pairs_on, "structures", after=after_pairs_on)
    wrap_all(tracer, algebra._generic_pairs_interned, "structures",
             before=before_lookup, after=after_lookup)

    # layer 3: excess expansion and materialized products
    def after_expand(args, result, token, nested):
        c["algebra.expand_calls"] += 1
        c["algebra.expand_terms"] += len(result)

    def after_multiply(args, result, token, nested):
        c["algebra.product_terms"] += len(result)

    wrap_all(tracer, algebra._expand_structure_raw, "algebra.expand", after=after_expand)
    wrap_all(tracer, algebra.multiply, "algebra.multiply", after=after_multiply)

    # layer 4: vertex integrals
    tau, kap = integrals._tau_cache, integrals._kappa_cache

    def memo_size(args):
        return len(tau) + len(kap)

    def vertex_done(genus, has_kappa, token):
        c["integrals.vertex_calls"] += 1
        # a hit leaves the memo tables unchanged; the genus-0 closed form
        # is never memoized, so it never counts as a hit
        if len(tau) + len(kap) == token and (genus > 0 or has_kappa):
            c["integrals.memo_hits"] += 1

    def after_kappa_reduce(args, result, token, nested):
        if not nested:
            vertex_done(args[0], bool(args[2]), token)

    def after_vertex_value(args, result, token, nested):
        d, v = args[0], args[1]
        vertex_done(d.graph.genera[v], bool(d.kappa[v]), token)

    def after_wk(args, result, token, nested):
        c["integrals.wk_calls"] += 1
        if args[0] == 0:
            c["integrals.genus0_calls"] += 1

    wrap_all(tracer, integrals.kappa_reduce, "integrals", before=memo_size, after=after_kappa_reduce)
    wrap_all(tracer, integrals._vertex_value, "integrals", before=memo_size, after=after_vertex_value)
    wrap_all(tracer, integrals.wk_tau, "integrals", after=after_wk)
    wrap_all(tracer, integrals.hodge_psi, "integrals")
    wrap_all(tracer, integrals.integrate_sum, "integrals")
    wrap_all(tracer, integrals.integrate_graph, "integrals")

    # layer 5: fused pairings and exact linear algebra
    def after_gram(args, result, token, nested):
        c["pairing.matrix_entries"] += len(result.rows) * len(result.cols)

    wrap_all(tracer, pairing.integrate_product, "pairing.fused",
             before=before_pairing, after=after_pairing)
    wrap_all(tracer, pairing.matrix_rank, "pairing.linalg")
    wrap_all(tracer, pairing.null_space, "pairing.linalg")
    wrap_all(tracer, pairing.gram, None, after=after_gram)


def wrap_all(tracer: Tracer, fn, bucket, before=None, after=None) -> None:
    patch_everywhere(fn, tracer.wrap(fn, bucket, before=before, after=after))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, as ``name -> (value, unit)``."""
    from strataring import algebra, graphs, integrals, structures

    c = tracer.counts
    t = tracer.self_times()
    carriers = c["structures.carriers"]
    vertex_calls = c["integrals.vertex_calls"]
    return {
        "enumeration.stable_graphs_s": (t.get("enumeration.stable_graphs", 0.0), "s"),
        "enumeration.graphs": (c["enumeration.graphs"], "count"),
        "enumeration.decorated_basis_s": (t.get("enumeration.decorated_basis", 0.0), "s"),
        "enumeration.basis_classes": (c["enumeration.basis_classes"], "count"),
        "canon.calls": (c["canon.calls"], "count"),
        "canon.s": (t.get("canon", 0.0), "s"),
        "structures.s": (t.get("structures", 0.0), "s"),
        "structures.calls": (c["structures.calls"], "count"),
        "structures.carriers": (c["structures.carriers"], "count"),
        "structures.pair_structures": (c["structures.pair_structures"], "count"),
        "structures.pair_cache_hits": (c["structures.pair_cache_hits"], "count"),
        "structures.carriers_admitted_ratio": (
            c["structures.carriers_admitted"] / carriers if carriers else 0.0, "ratio"),
        "algebra.expand_s": (t.get("algebra.expand", 0.0), "s"),
        "algebra.expand_calls": (c["algebra.expand_calls"], "count"),
        "algebra.expand_terms": (c["algebra.expand_terms"], "count"),
        "algebra.multiply_s": (t.get("algebra.multiply", 0.0), "s"),
        "algebra.product_terms": (c["algebra.product_terms"], "count"),
        "integrals.s": (t.get("integrals", 0.0), "s"),
        "integrals.vertex_calls": (vertex_calls, "count"),
        "integrals.memo_hit_ratio": (
            c["integrals.memo_hits"] / vertex_calls if vertex_calls else 0.0, "ratio"),
        "integrals.wk_calls": (c["integrals.wk_calls"], "count"),
        "integrals.genus0_calls": (c["integrals.genus0_calls"], "count"),
        "pairing.pairings": (c["pairing.pairings"], "count"),
        "pairing.fused_s": (t.get("pairing.fused", 0.0), "s"),
        "pairing.linalg_s": (t.get("pairing.linalg", 0.0), "s"),
        "pairing.matrix_entries": (c["pairing.matrix_entries"], "count"),
        "cache.tau_entries": (len(integrals._tau_cache), "count"),
        "cache.kappa_entries": (len(integrals._kappa_cache), "count"),
        "cache.pair_entries": (len(algebra._pair_cache), "count"),
        "cache.structure_entries": (len(structures._structure_cache), "count"),
        "cache.registry_entries": (len(graphs._registry), "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.bench_s": (t.get(ROOT_BUCKET, 0.0), "s"),
    }
