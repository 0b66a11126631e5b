"""Switching functions and vertex normalization.

A switching assigns a group value to every vertex and relabels each edge
by adding the values at its endpoints.  Closed walks keep their label
(each vertex contributes twice); open paths do not.  Normalizing a vertex
is the particular switching that makes its whole star carry the identity,
after which every remaining edge carries the label of the triangle it
used to span with the normalized vertex.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .graph import SignedCompleteGraph, all_edges
from .group import ELEMENTS, F22

SwitchingFunction = Mapping[int, F22]


def apply(g: SignedCompleteGraph, zeta: SwitchingFunction) -> SignedCompleteGraph:
    """Relabel every edge {u, v} to ``zeta(u) + sign(u, v) + zeta(v)``.

    ``zeta`` must be total over the vertex set.
    """
    missing = [v for v in g.vertices() if v not in zeta]
    if missing:
        raise ValueError(f"switching function missing vertices {missing}")
    z = [0] * (g.n + 1)
    for v in g.vertices():
        z[v] = int(F22(zeta[v]))
    return _switch(g, z)


def _switch(g: SignedCompleteGraph, z: Sequence[int]) -> SignedCompleteGraph:
    """``apply`` with the switching as ints indexed by vertex."""
    rows = g.rows
    return SignedCompleteGraph(
        g.n, bytes(z[u] ^ rows[u][v] ^ z[v] for u, v in all_edges(g.n))
    )


def normalize_at(
    g: SignedCompleteGraph, v: int
) -> tuple[SignedCompleteGraph, dict[int, F22]]:
    """Switch so every edge at ``v`` carries the identity.

    Uses the one-shot switching ``zeta(u) = sign(u, v)`` for ``u != v`` and
    the identity at ``v`` itself.  Returns the new graph and the switching
    used.  Idempotent at the same vertex; all circle and triangle labels
    are preserved.
    """
    g.check_vertices(v)
    row = g.rows[v]  # row[v] is the diagonal, 0: the identity at v itself
    return _switch(g, row), {u: ELEMENTS[row[u]] for u in g.vertices()}
