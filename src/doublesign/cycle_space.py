"""Triangle bases of the binary cycle space and Hamiltonian decompositions.

The triangles through a fixed hub vertex form a basis of the even-degree
subgraph space of the complete graph.  Only the decomposition of a
Hamiltonian circle into hub triangles is implemented, since that is the
one identity the sign analysis needs; the even-subgraph membership test
is exposed for checking cycle-space facts directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Circle, SignedCompleteGraph, Triangle, triangle_sign
from .group import F22


@dataclass(frozen=True)
class TriangleBasis:
    """All triangles through one hub vertex, with their labels."""

    hub: int
    triangles: tuple[Triangle, ...]
    signs: tuple[F22, ...]

    def __len__(self) -> int:
        return len(self.triangles)


def basis(g: SignedCompleteGraph, hub: int) -> TriangleBasis:
    """The (n-1)(n-2)/2 hub triangles of ``g``, in lexicographic order."""
    g.check_vertices(hub)
    if g.n < 3:
        raise ValueError("need n >= 3 for triangles")
    others = [v for v in g.vertices() if v != hub]
    triangles = tuple(
        Triangle.of(hub, others[i], others[j])
        for i in range(len(others))
        for j in range(i + 1, len(others))
    )
    signs = tuple(triangle_sign(g, t) for t in triangles)
    return TriangleBasis(hub, triangles, signs)


def decompose_hamiltonian(
    g: SignedCompleteGraph, h: Circle, hub: int
) -> list[Triangle]:
    """Split a Hamiltonian circle into the n-2 hub triangles along it.

    Rotating ``h`` to start at the hub, consecutive pairs of the remaining
    vertices span the triangles; their labels sum to the circle's label
    because every non-circle edge appears in exactly two of them.
    """
    if set(h.vertices) != set(g.vertices()):
        raise ValueError("circle is not Hamiltonian for this graph")
    if hub not in h.vertices:
        raise ValueError(f"hub {hub} not on the circle")
    vs = h.vertices
    k = vs.index(hub)
    order = vs[k:] + vs[:k]
    return [
        Triangle.of(hub, order[i], order[i + 1]) for i in range(1, len(order) - 1)
    ]


def is_even_subgraph(edges: Iterable[tuple[int, int]]) -> bool:
    """True iff every vertex of the edge set has even degree."""
    parity: dict[int, int] = {}
    for u, v in edges:
        if u == v:
            raise ValueError(f"degenerate edge ({u}, {v})")
        parity[u] = parity.get(u, 0) ^ 1
        parity[v] = parity.get(v, 0) ^ 1
    return all(p == 0 for p in parity.values())
