"""Triangle-label censuses, K4 classification, and structural finders.

The central quantity is *diversity*: how many distinct labels the
triangles of an instance realize (1 to 4).  Diversity drives the
achievable Hamiltonian spectrum, so this module also classifies K4
subgraphs (all four triangle labels distinct, or the paired pattern) and
locates the edge/triangle configurations the constructive machinery
starts from; how the least edges per label off a hub meet is the
solver's decision.  It is the one module that reads triangle and K4
labels off a graph, from its row table ``rows`` alone, and scans K4s
lazily: the solver and the claim checks call these readers instead of
scanning labels themselves.  :func:`spectrum_mask` states the law that turns
triangle labels into allowed circle labels, once, for the solver's
prediction and the sweep's bound.  Everything here is read-only over
immutable graphs.

Every read of one K4 (its triangle labels, whether they are all
distinct, and each K4-local decision of the case machine) depends only
on its six switched edge labels, 12 bits.  One cache, :func:`k4_pattern`,
makes each read once per label pattern: keyed by that 12-bit int, it
never holds more than 4,096 entries, and it fills on first use.  Every
K4 reader makes one lookup per K4; the triangle census makes none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from operator import index
from typing import Callable, NamedTuple, Optional, Sequence

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


def spectrum_mask(tri_mask: int, n: int) -> int:
    """The 4-bit mask of Hamiltonian circle labels that triangle labels allow.

    A Hamiltonian circle of K_n decomposes into n-2 hub triangles.  With
    one triangle label x every circle carries (n-2)x; with two, x and y,
    its label keeps the parity of n-2, inside {x, y} for odd n and
    {e, x+y} for even n; three or more labels restrict nothing (mask 15).
    ``tri_mask`` has bit s set when some triangle carries label s.
    """
    labels = [s for s in range(4) if tri_mask >> s & 1]
    if len(labels) >= 3:
        return 15
    if n % 2 or not labels:
        return tri_mask
    return 1 | 1 << (labels[0] ^ labels[-1])


@dataclass(frozen=True)
class CommonSignTriple:
    """Exactly three edges of one K4 sharing a label, as a star or triangle."""

    sign: F22
    shape: str  # "star" | "triangle"
    edges: frozenset[tuple[int, int]]

    def on(self, qs: Sequence[int]) -> "CommonSignTriple":
        """This triple with local vertex i renamed ``qs[i]`` (edges added in
        sorted order, so the set iterates as a direct read builds it)."""
        renamed = frozenset((qs[u], qs[v]) for u, v in sorted(self.edges))
        return CommonSignTriple(self.sign, self.shape, renamed)


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


#: The six edges of a K4 on local vertices 0..3, in ``combinations``
#: order; edge k holds bits 2k and 2k + 1 of a :func:`k4_pattern` key.
K4_EDGES = tuple(combinations(range(4), 2))

#: The 24 orders of the local vertices, lexicographic: the paths and
#: frames of every pattern share these tuples.
_ORDERS = tuple(permutations(range(4)))

#: Every per-start path row of a :func:`k4_pattern`, keyed by itself, so
#: patterns share equal rows: 1,648 rows occur over the 4,096 keys.
_PATH_ROWS: dict[tuple, tuple] = {}


class K4Pattern(NamedTuple):
    """Every read of one K4 label pattern: its triangle labels and every
    K4-local decision of the case machine.

    Vertices are local indices 0..3, the positions in the sorted quad.
    ``tris`` holds the labels of the triangles 012, 013, 023 and 123, and
    ``all_distinct`` says whether they are pairwise distinct; no
    switching changes them.  ``triple`` is the common-label triple or
    None; ``paths[i][s]`` is the least Hamiltonian path from i with label
    s, or None; ``frame`` is the first lemma_b frame, or None, and
    ``panel`` its panel, or None when there is no frame or it lies in
    neither panel.
    """

    tris: tuple[F22, F22, F22, F22]
    all_distinct: bool
    triple: Optional[CommonSignTriple]
    paths: tuple[tuple[Optional[tuple[int, int, int, int]], ...], ...]
    frame: Optional[tuple[int, int, int, int]]
    panel: Optional[str]


def k4_key(rows: Sequence[bytes], qs: Sequence[int], z: Optional[Sequence[int]] = None) -> int:
    """The :func:`k4_pattern` key of the K4 on the sorted vertices ``qs``,
    edge u-v read as ``z[u] ^ rows[u][v] ^ z[v]`` under the switching ``z``
    (ints by vertex; ``rows[v]`` normalizes v), if any.  ``qs`` is not
    checked: callers pass four ascending vertices of the graph."""
    a, b, c, d = qs
    ra, rb = rows[a], rows[b]
    if z is None:
        return ra[b] | ra[c] << 2 | ra[d] << 4 | rb[c] << 6 | rb[d] << 8 | rows[c][d] << 10
    za, zb, zc, zd = z[a], z[b], z[c], z[d]
    return (
        (ra[b] ^ za ^ zb)
        | (ra[c] ^ za ^ zc) << 2
        | (ra[d] ^ za ^ zd) << 4
        | (rb[c] ^ zb ^ zc) << 6
        | (rb[d] ^ zb ^ zd) << 8
        | (rows[c][d] ^ zc ^ zd) << 10
    )


@lru_cache(maxsize=None)
def k4_pattern(key: int) -> K4Pattern:
    """The case machine's K4-local decisions for one 12-bit label pattern.

    ``key`` is ``sum(label_k << 2k)`` over :data:`K4_EDGES`, so the cache
    holds at most 4,096 entries, filled on first use.  Callers map the
    local indices back through the sorted quad; that map is monotone, so
    every lexicographic tie-break below is the one on the real vertices.

    * The triangle labels, and whether all four differ.
    * The common-label triple: the three edges that alone carry a label,
      when they form a star or a triangle, first such label in group
      order.
    * Per start, the least Hamiltonian path per label; a switching acts
      on a path's label at its two ends only.
    * The lemma_b frame (v1, v2, v3, v4), read with v5 normalized: the
      first permutation whose triangles v1-v2-v3 and v1-v3-v4 carry
      labels x != y and whose four vertex-insertion shifts x + s(v1-v4),
      y + s(v3-v4), y + s(v1-v3), y + s(v1-v2) are distinct; its panel
      is left when three K4 edges carry the label of v1-v4, right when
      four do, and None otherwise.
    """
    if not 0 <= key < 4096:  # checked on a miss only, so the cache stays bounded
        raise ValueError(f"K4 pattern key {key} outside 0..4095")
    s = [[0] * 4 for _ in range(4)]
    by_sign: dict[int, list[tuple[int, int]]] = {}
    for k, edge in enumerate(K4_EDGES):
        u, v = edge
        s[u][v] = s[v][u] = label = key >> 2 * k & 3
        by_sign.setdefault(label, []).append(edge)
    tris = tuple(ELEMENTS[s[a][b] ^ s[a][c] ^ s[b][c]] for a, b, c in combinations(range(4), 3))

    triple = None
    for sign in ELEMENTS:
        edges = by_sign.get(sign, [])
        if len(edges) != 3:
            continue
        if set(edges[0]) & set(edges[1]) & set(edges[2]):
            triple = CommonSignTriple(sign, "star", frozenset(edges))
        elif len({w for e in edges for w in e}) == 3:
            triple = CommonSignTriple(sign, "triangle", frozenset(edges))
        else:
            continue
        break

    least: list[list[Optional[tuple[int, int, int, int]]]] = [[None] * 4 for _ in range(4)]
    for path in _ORDERS:  # by start, then lexicographically
        a, b, c, d = path
        label = s[a][b] ^ s[b][c] ^ s[c][d]
        if least[a][label] is None:
            least[a][label] = path
    paths = tuple(_PATH_ROWS.setdefault(row, row) for row in map(tuple, least))

    frame = panel = None
    for order in _ORDERS:
        i1, i2, i3, i4 = order
        x = s[i1][i2] ^ s[i1][i3] ^ s[i2][i3]
        y = s[i1][i3] ^ s[i1][i4] ^ s[i3][i4]
        if x != y and len({x ^ s[i1][i4], y ^ s[i3][i4], y ^ s[i1][i3], y ^ s[i1][i2]}) == 4:
            frame = order
            shared = sum(s[u][v] == s[i1][i4] for u, v in K4_EDGES)
            panel = {3: "left_panel", 4: "right_panel"}.get(shared)
            break
    return K4Pattern(tris, len(set(tris)) == 4, triple, paths, frame, panel)


def first_all_distinct_k4(g: SignedCompleteGraph) -> Optional[tuple[int, int, int, int]]:
    """The first K4 in ``combinations(g.vertices(), 4)`` order whose four
    triangle labels are pairwise distinct, or None.

    Only the C(n-1, 3) K4s through vertex 1 are scanned.  If any K4 is
    all-distinct, every vertex lies on one (the statement is local to five
    vertices, so the n = 5 family proves it for every n), and in
    ``combinations`` order every K4 through vertex 1 comes first."""
    rows = g.rows
    quads = ((1, *t) for t in combinations(range(2, g.n + 1), 3))
    return next((q for q in quads if k4_pattern(k4_key(rows, q)).all_distinct), None)


def classify_k4(g: SignedCompleteGraph, quad: Sequence[int]) -> K4Class:
    """Classify the K4 induced by four distinct vertices (``TypeError``
    on a vertex that is not an integer)."""
    vs = tuple(sorted(map(index, quad)))
    if len(set(vs)) != 4:
        raise ValueError(f"need four distinct vertices, got {quad}")
    g.check_vertices(*vs)
    p = k4_pattern(k4_key(g.rows, vs))
    if p.all_distinct:
        triple = None if p.triple is None else p.triple.on(vs)
        return K4Class(vs, p.tris, "all_distinct", common_triple=triple)
    # The four labels always sum to the identity (every edge is counted
    # twice), so short of being all distinct they pair up as x, x, y, y.
    return K4Class(vs, p.tris, "two_two", pair=(min(p.tris), max(p.tris)))


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

    For n >= 6 it returns None exactly when the triangles through the
    hub carry at most two labels, and then every triangle does, so on an
    instance of diversity >= 3 it succeeds at every hub.  Proof:

    1. A triangle u-v-w avoiding the hub has label T(hub, u, v) +
       T(hub, v, w) + T(hub, u, w), since each hub edge is counted twice.
       A set of at most two labels is closed under sums of three of its
       elements, so if the hub triangles carry at most two labels, every
       triangle does.
    2. Colour each edge u-w of the K_m, m = n - 1, on the other vertices
       by T(hub, u, w).  A chained triple is a path a-b-c-d whose three
       edges have three different colours; call it rainbow.  With at most
       two colours there is none.  With three or more, merge colours until
       exactly three remain: a rainbow path after merging is one before.
    3. Every 3-colouring of K_5 that uses all three colours has a rainbow
       path (checked over all 3^10 colourings in the tests).
    4. Suppose K_m, m >= 6, uses three colours and has no rainbow path.
       By induction each K_m - v uses at most two, so every vertex v
       lies on every edge of some colour c(v).  Two vertices with the
       same c(v) make that colour class a single edge, and three cannot
       share one, so m <= 6; at m = 6 only three edges would be coloured,
       but K_6 has 15.

    At n = 5 the bound fails: three colours on the perfect matchings of
    K_4 leave no rainbow path.
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


def distinct_sign_edges(g: SignedCompleteGraph, hub: int) -> dict[F22, tuple[int, int]]:
    """The least edge per label off the hub, read with the hub normalized,
    in label order.

    Normalized, edge u-w carries the label of hub triangle hub-u-w, which
    no switching changes, so ``g`` need not be normalized at ``hub``.  All
    four labels must occur off the hub (the chosen edges span hub
    triangles of distinct labels, so these are basis witnesses).
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
    return {F22(s): e for s, e in sorted(chosen.items())}
