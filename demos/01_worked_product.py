"""Multiply two boundary classes on the moduli of genus-4 curves.

The first factor is a kappa_2-decorated genus-3 vertex with a self-loop
(codimension 3); the second is a chain of three rational vertices, two of
them with self-loops, attached to a genus-2 vertex carrying one psi
arrowhead (codimension 6).  Their product is a top-degree class whose
integral comes out to exactly 1/8.
"""

from strataring import (
    FormalSum,
    enumerate_generic_pairs,
    integrate_sum,
    multiply,
    normalize,
    parse_decorated,
)
from strataring.integrals import FUNDAMENTAL

G = parse_decorated(
    "graph g=4 n=0 { v0: genus=3; edge(v0.0, v0.1); kappa(v0)=[2:1]; }"
)
H = parse_decorated(
    "graph g=4 n=0 { v0: genus=0; v1: genus=0; v2: genus=0; v3: genus=2;"
    " edge(v0.0, v0.1); edge(v1.0, v1.1); edge(v0.2, v2.0); edge(v1.2, v2.1);"
    " edge(v2.2, v3.0); psi(v3.0)=1; }"
)
print(f"factor 1 (codim {G.codim}):", G)
print(f"factor 2 (codim {H.codim}):", H)

# the two carrier graphs, with their raw structure counts
for A, pairs in enumerate_generic_pairs(G.graph, H.graph):
    commons = sorted({len(pair.common_edges) for pair in pairs})
    print(
        f"carrier with {A.n_edges} edges, |Aut| = {A.aut_order}: {len(pairs)} raw"
        f" generic structures, common edges {commons}"
    )

product = multiply(FormalSum.unit(G), FormalSum.unit(H))
survivors = normalize(product)
print(f"product has {len(product)} merged terms, {len(survivors)} after normalization")
print("integral over the moduli space:", integrate_sum(survivors, FUNDAMENTAL))
