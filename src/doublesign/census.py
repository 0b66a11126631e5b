"""Triangle-label censuses, K4 classification, and structural finders.

The central quantity is *diversity*: how many distinct labels the
triangles of an instance realize (1 to 4).  Diversity drives the
achievable Hamiltonian spectrum, so this module also classifies K4
subgraphs (all four triangle labels distinct, or the paired pattern) and
locates the edge/triangle configurations the constructive machinery
starts from.  It is the one module that reads triangle and K4 labels off
a graph, from its row table ``rows`` alone, and scans K4s lazily: the
solver and the claim checks call these readers instead of scanning
labels themselves.  Everything here is read-only over immutable graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

from .graph import SignedCompleteGraph, edge_index
from .group import ELEMENTS, F22


@lru_cache(maxsize=None)
def triangle_table(n: int) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
    """All vertex triples of K_n with their edge indexes: the sweep's triangle columns."""
    out = []
    for a, b, c in combinations(range(1, n + 1), 3):
        out.append(
            (
                (a, b, c),
                (edge_index(n, a, b), edge_index(n, a, c), edge_index(n, b, c)),
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def quad_table(n: int) -> tuple[tuple[tuple[int, int, int, int], tuple[int, int, int, int]], ...]:
    """All 4-subsets with the triangle-table rows of their triangles: the sweep's K4 columns."""
    pos = {triple: i for i, (triple, _) in enumerate(triangle_table(n))}
    out = []
    for quad in combinations(range(1, n + 1), 4):
        out.append((quad, tuple(pos[t] for t in combinations(quad, 3))))
    return tuple(out)


@dataclass(frozen=True)
class TriangleCensus:
    """Label counts over all C(n, 3) triangles of an instance."""

    counts: dict[F22, int]

    @property
    def diversity(self) -> int:
        return sum(1 for v in self.counts.values() if v)

    @property
    def signs(self) -> frozenset[F22]:
        """The labels actually realized by triangles."""
        return frozenset(s for s, v in self.counts.items() if v)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def triangle_census(g: SignedCompleteGraph) -> TriangleCensus:
    """Exact triangle-label counts; requires n >= 3."""
    if g.n < 3:
        raise ValueError("need n >= 3 for a triangle census")
    rows = g.rows
    counts = [0, 0, 0, 0]
    for a, b, c in combinations(g.vertices(), 3):
        counts[rows[a][b] ^ rows[a][c] ^ rows[b][c]] += 1
    return TriangleCensus(dict(zip(ELEMENTS, counts)))


def _k4_labels(rows: Sequence[bytes], a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Int labels of the triangles abc, abd, acd, bcd (``combinations`` order)."""
    ra, rb = rows[a], rows[b]
    ab, ac, ad, bc, bd, cd = ra[b], ra[c], ra[d], rb[c], rb[d], rows[c][d]
    return ab ^ ac ^ bc, ab ^ ad ^ bd, ac ^ ad ^ cd, bc ^ bd ^ cd


def k4_label_counts(g: SignedCompleteGraph) -> Iterator[tuple[tuple[int, int, int, int], int]]:
    """Each K4 of ``g`` with the number of distinct labels among its four
    triangles, lazily, in ``combinations(g.vertices(), 4)`` order."""
    rows = g.rows
    for quad in combinations(g.vertices(), 4):
        yield quad, len(set(_k4_labels(rows, *quad)))


def first_all_distinct_k4(g: SignedCompleteGraph) -> Optional[tuple[int, int, int, int]]:
    """The first K4 in :func:`k4_label_counts` order whose four triangle
    labels are pairwise distinct, or None."""
    return next((quad for quad, k in k4_label_counts(g) if k == 4), None)


@dataclass(frozen=True)
class CommonSignTriple:
    """Exactly three edges of one K4 sharing a label, as a star or triangle."""

    sign: F22
    shape: str  # "star" | "triangle"
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class K4Class:
    """Classification of one K4 by its four triangle labels.

    ``all_distinct`` marks the four labels pairwise distinct; otherwise
    the labels pair up as x, x, y, y (x = y covers the all-equal case)
    and ``pair`` records (x, y).  For an all-distinct K4, ``common_triple``
    is set when exactly three edges share one label and form a star or a
    triangle.
    """

    vertices: tuple[int, int, int, int]
    triangle_signs: tuple[F22, F22, F22, F22]
    kind: str  # "all_distinct" | "two_two"
    pair: Optional[tuple[F22, F22]] = None
    common_triple: Optional[CommonSignTriple] = None

    @property
    def is_all_distinct(self) -> bool:
        return self.kind == "all_distinct"


def find_common_triple(
    g: SignedCompleteGraph, quad: Sequence[int], z: Optional[Sequence[int]] = None
) -> Optional[CommonSignTriple]:
    """The three edges of the K4 on ``quad`` that alone carry one label,
    when they form a star or a triangle (first such label in group order),
    or None.  Edge u-v is read as ``z[u] ^ rows[u][v] ^ z[v]`` under the
    switching ``z`` (ints by vertex; ``g.rows[v]`` normalizes v), if any.
    ``quad`` is not checked: callers pass four distinct vertices of ``g``,
    as :func:`classify_k4` does for an all-distinct K4."""
    rows = g.rows
    z = bytes(g.n + 1) if z is None else z
    by_sign: dict[int, list[tuple[int, int]]] = {}
    for u, v in combinations(sorted(quad), 2):
        by_sign.setdefault(rows[u][v] ^ z[u] ^ z[v], []).append((u, v))
    for s in ELEMENTS:
        edges = by_sign.get(s, [])
        if len(edges) != 3:
            continue
        verts = [w for e in edges for w in e]
        common = set(edges[0]) & set(edges[1]) & set(edges[2])
        if common:
            return CommonSignTriple(s, "star", frozenset(edges))
        if len(set(verts)) == 3:
            return CommonSignTriple(s, "triangle", frozenset(edges))
    return None


def classify_k4(g: SignedCompleteGraph, quad: Sequence[int]) -> K4Class:
    """Classify the K4 induced by four distinct vertices."""
    vs = tuple(sorted(int(v) for v in quad))
    if len(set(vs)) != 4:
        raise ValueError(f"need four distinct vertices, got {quad}")
    g.check_vertices(*vs)
    labels = _k4_labels(g.rows, *vs)
    tris = tuple(ELEMENTS[t] for t in labels)
    distinct = sorted(set(labels))
    if len(distinct) == 4:
        return K4Class(vs, tris, "all_distinct", common_triple=find_common_triple(g, vs))
    # The four labels always sum to the identity (every edge is counted
    # twice), so short of being all distinct they pair up as x, x, y, y.
    pair = (ELEMENTS[distinct[0]], ELEMENTS[distinct[-1]])
    return K4Class(vs, tris, "two_two", pair=pair)


def _hub_triangles(
    g: SignedCompleteGraph, hub: int
) -> tuple[list[int], Callable[[int, int], int]]:
    """The vertices other than ``hub``, and the int label of the hub
    triangle hub-u-v as a function of (u, v)."""
    g.check_vertices(hub)
    rows = g.rows
    hub_edge = rows[hub]
    others = [v for v in g.vertices() if v != hub]

    def tri(u: int, v: int) -> int:
        return hub_edge[u] ^ hub_edge[v] ^ rows[u][v]

    return others, tri


def find_consecutive_distinct_triple(
    g: SignedCompleteGraph, hub: int
) -> Optional[tuple[int, int, int, int]]:
    """First ordered (a, b, c, d) whose chained hub triangles get 3 labels.

    The triangles hub-a-b, hub-b-c, hub-c-d share successive hub edges;
    the finder returns the lexicographically smallest tuple for which
    their three labels are pairwise distinct, or None.
    """
    if g.n < 5:
        raise ValueError("need n >= 5 for a consecutive triple")
    others, tri = _hub_triangles(g, hub)
    for a in others:
        for b in others:
            if b == a:
                continue
            t1 = tri(a, b)
            for c in others:
                if c in (a, b):
                    continue
                t2 = tri(b, c)
                if t2 == t1:
                    continue
                for d in others:
                    if d in (a, b, c):
                        continue
                    t3 = tri(c, d)
                    if t3 != t1 and t3 != t2:
                        return (a, b, c, d)
    return None


def find_shared_edge_config(
    g: SignedCompleteGraph, hub: int, signs3: Sequence[F22]
) -> Optional[tuple[int, int, int, int, int]]:
    """Two hub triangles sharing a hub edge with distinct labels, plus an
    edge-disjoint third hub triangle carrying the remaining label.

    ``signs3`` are the three triangle labels of a diversity-3 instance.
    Returns (i, j, k, m, p): triangles hub-i-j and hub-j-k, third hub-m-p,
    searched with j outermost, or None.
    """
    others, tri = _hub_triangles(g, hub)
    all3 = {int(v) for v in signs3}
    for j in others:
        for i in others:
            if i == j:
                continue
            t1 = tri(i, j)
            for k in others:
                if k in (i, j):
                    continue
                t2 = tri(j, k)
                if t2 == t1:
                    continue
                third = (all3 - {t1, t2}).pop()
                for m in others:
                    if m in (i, j, k):
                        continue
                    for p in others:
                        if p <= m or p in (i, j, k):
                            continue
                        if tri(m, p) == third:
                            return (i, j, k, m, p)
    return None


def is_forest(edges: Sequence[tuple[int, int]]) -> bool:
    """Whether ``edges`` contain no cycle (a repeated edge is a cycle)."""
    parent: dict[int, int] = {}  # roots have no entry

    def find(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TheoryViolationError(Exception):
    """Raised when four distinct-label edges contain a cycle.

    Under the hypotheses this configuration arises from (a normalized hub
    and no K4 with four distinct triangle labels), the four edges provably
    form a forest; hitting this error means those hypotheses were violated
    or a claimed impossibility actually occurred.
    """


@dataclass(frozen=True)
class EdgeStructure:
    """Shape of the four distinct-label witness edges off the hub."""

    case: int  # 1..4
    label: str
    edges_by_sign: dict[F22, tuple[int, int]]


_CASE_LABELS = {
    1: "common_vertex",
    2: "star_plus_attached",
    3: "star_plus_disjoint",
    4: "disjoint_paths",
}


def distinct_sign_edge_structure(g: SignedCompleteGraph, hub: int) -> EdgeStructure:
    """Pick the least edge per label off the hub, normalized, and classify them.

    Normalized, edge u-w carries the label of hub triangle hub-u-w, which
    no switching changes, so ``g`` need not be normalized at ``hub``.  All
    four labels must occur off the hub (the chosen edges span hub
    triangles of distinct labels, so these are basis witnesses).  The
    four edges are classified by how they meet: all at one vertex, a
    3-star with the fourth edge attached or disjoint, or a union of
    disjoint paths.  A cycle among them raises :class:`TheoryViolationError`.
    """
    others, tri = _hub_triangles(g, hub)
    chosen: dict[int, tuple[int, int]] = {}
    for u, v in combinations(others, 2):
        chosen.setdefault(tri(u, v), (u, v))
        if len(chosen) == 4:
            break
    if len(chosen) < 4:
        missing = [e for e in ELEMENTS if e not in chosen]
        raise ValueError(f"labels {missing} not realized off the hub")

    edges = sorted(chosen.values())
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    if not is_forest(edges):
        raise TheoryViolationError(f"distinct-label edges {edges} contain a cycle")

    max_deg = max(degree.values())
    if max_deg == 4:
        case = 1
    elif max_deg == 3:
        center = next(v for v, d in degree.items() if d == 3)
        rest = next((u, v) for u, v in edges if center not in (u, v))
        attached = degree[rest[0]] > 1 or degree[rest[1]] > 1
        case = 2 if attached else 3
    else:
        case = 4
    return EdgeStructure(
        case, _CASE_LABELS[case], {F22(s): e for s, e in sorted(chosen.items())}
    )
