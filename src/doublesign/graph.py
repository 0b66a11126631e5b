"""The edge-labeled complete graph and sign evaluation of walks.

Vertices are 1-based and contiguous.  A graph stores one label per
unordered pair in a flat triangular array, cheap to copy during sign
sweeps and read by whole-graph passes.  Single labels are read as ints
from the row table ``rows`` that the constructor builds once; :class:`F22`
is built only where a public function returns a label.  Graphs are
immutable after construction; every operation here is read-only and
safe to share across workers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .group import ELEMENTS, F22


def edge_index(n: int, u: int, v: int) -> int:
    """Position of edge {u, v} in the triangular sign array."""
    if u == v:
        raise ValueError(f"degenerate edge ({u}, {v})")
    if u > v:
        u, v = v, u
    if u < 1 or v > n:
        raise ValueError(f"vertex out of range for n={n}: ({u}, {v})")
    return (u - 1) * (2 * n - u) // 2 + (v - u - 1)


@lru_cache(maxsize=None)
def all_edges(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs (u, v), u < v, in index order."""
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def _row_table(n: int, signs: bytes) -> tuple[bytes, ...]:
    """The labels in ``signs`` as a square; row 0, column 0 and the diagonal are 0."""
    width = n + 1
    table = bytearray(width * width)
    for u in range(1, n):
        row = signs[edge_index(n, u, u + 1) : edge_index(n, u, n) + 1]
        table[u * width + u + 1 : (u + 1) * width] = row
        table[(u + 1) * width + u :: width] = row
    flat = bytes(table)
    return tuple([flat[u * width : (u + 1) * width] for u in range(width)])


class SignedCompleteGraph:
    """Complete graph on ``n`` vertices with a total edge-label map.

    ``rows[u][v]`` is the int label of edge {u, v}.  Readers check their
    vertices with :meth:`check_vertices` first: a negative index would
    silently read another row.
    """

    __slots__ = ("n", "_signs", "rows")

    def __init__(self, n: int, signs: bytes):
        if n < 2:
            raise ValueError("need at least 2 vertices")
        if len(signs) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} signs, got {len(signs)}")
        self.n = n
        self._signs = signs
        self.rows = _row_table(n, signs)

    @classmethod
    def from_signs(cls, n: int, signs: Sequence[int]) -> "SignedCompleteGraph":
        """Build from a full triangular sequence of labels in index order."""
        return cls(n, bytes(int(s) for s in signs))

    def sign(self, u: int, v: int) -> F22:
        """Label of edge {u, v}; symmetric in its arguments."""
        if u == v:
            raise ValueError(f"degenerate edge ({u}, {v})")
        self.check_vertices(u, v)
        return ELEMENTS[self.rows[u][v]]

    def check_vertices(self, *vertices: int) -> None:
        """Raise ``ValueError`` unless every vertex lies in 1..n."""
        if min(vertices) < 1 or max(vertices) > self.n:
            raise ValueError(f"vertex out of range for n={self.n}: {vertices}")

    def edges(self) -> Iterator[tuple[int, int, F22]]:
        """All edges with their labels, in index order."""
        for (u, v), s in zip(all_edges(self.n), self._signs):
            yield u, v, F22(s)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SignedCompleteGraph)
            and self.n == other.n
            and self._signs == other._signs
        )

    def __hash__(self) -> int:
        return hash((self.n, self._signs))

    def __repr__(self) -> str:
        return f"SignedCompleteGraph(n={self.n})"


def build(n: int, signs: Iterable[tuple[int, int, F22]]) -> SignedCompleteGraph:
    """Build a graph from an edge list covering every pair exactly once.

    Raises ``ValueError`` on a duplicate pair, a missing pair, or an
    out-of-range vertex.
    """
    m = n * (n - 1) // 2
    buf = bytearray([255] * m)
    for u, v, s in signs:
        idx = edge_index(n, u, v)
        if buf[idx] != 255:
            raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
        buf[idx] = int(F22(s))
    if 255 in buf:
        u, v = all_edges(n)[buf.index(255)]
        raise ValueError(f"missing edge ({u}, {v})")
    return SignedCompleteGraph(n, bytes(buf))


def _check_distinct(vertices: Sequence[int], least: int, kind: str) -> tuple[int, ...]:
    vs = tuple(int(v) for v in vertices)
    if len(vs) < least:
        raise ValueError(f"a {kind} needs at least {least} vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated vertex in {kind}: {vs}")
    return vs


class Circle:
    """A simple cycle, stored canonically up to rotation and reflection.

    The canonical form starts at the smallest vertex and proceeds toward
    its smaller neighbor, so equal circles compare and hash equal and all
    reported witnesses are byte-stable.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[int]):
        vs = _check_distinct(vertices, 3, "circle")
        k = vs.index(min(vs))
        forward = vs[k:] + vs[:k]
        backward = (forward[0],) + tuple(reversed(forward[1:]))
        self.vertices = min(forward, backward)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        vs = self.vertices
        for i in range(len(vs) - 1):
            yield vs[i], vs[i + 1]
        yield vs[-1], vs[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Circle) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(("Circle", self.vertices))

    def __repr__(self) -> str:
        return f"Circle{self.vertices}"


class Path:
    """A simple open path, stored canonically up to reversal."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[int]):
        vs = _check_distinct(vertices, 2, "path")
        self.vertices = min(vs, tuple(reversed(vs)))

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        vs = self.vertices
        for i in range(len(vs) - 1):
            yield vs[i], vs[i + 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(("Path", self.vertices))

    def __repr__(self) -> str:
        return f"Path{self.vertices}"


class Triangle(NamedTuple):
    """Three distinct vertices, stored in ascending order."""

    u: int
    v: int
    w: int

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "Triangle":
        if a == b or a == c or b == c:
            raise ValueError(f"degenerate triangle ({a}, {b}, {c})")
        return cls(*sorted((a, b, c)))


def walk_sign(g: SignedCompleteGraph, walk: Circle | Path) -> F22:
    """Sum of edge labels along a circle or path.

    Independent of orientation, and of rotation for circles, because the
    label group is commutative and the traversed edge set is the same.
    """
    g.check_vertices(*walk.vertices)
    rows = g.rows
    acc = 0
    for u, v in walk.edges():
        acc ^= rows[u][v]
    return ELEMENTS[acc]


def triangle_sign(g: SignedCompleteGraph, t: Triangle | Sequence[int]) -> F22:
    """Sum of the three edge labels of a triangle."""
    a, b, c = t
    if a == b or a == c or b == c:
        raise ValueError(f"degenerate triangle ({a}, {b}, {c})")
    g.check_vertices(a, b, c)
    rows = g.rows
    return ELEMENTS[rows[a][b] ^ rows[a][c] ^ rows[b][c]]


def circle_symmetric_difference(
    g: SignedCompleteGraph, h: Circle, t: Triangle | Sequence[int]
) -> Circle:
    """Insert the off-circle vertex of triangle ``t`` into circle ``h``.

    ``t`` must consist of two vertices joined by an edge of ``h`` plus one
    vertex not on ``h``; the result replaces that edge with the two edges
    through the new vertex.  The label of the result differs from the label
    of ``h`` by the triangle's label.
    """
    on = set(h.vertices)
    tv = tuple(t)
    if len(set(tv)) != 3:
        raise ValueError(f"degenerate triangle {tv}")
    outside = [v for v in tv if v not in on]
    if len(outside) != 1:
        raise ValueError(f"triangle {tv} must have exactly one vertex off the circle")
    new = outside[0]
    g.check_vertices(new)
    i, j = (v for v in tv if v != new)
    vs = h.vertices
    k = len(vs)
    for pos in range(k):
        a, b = vs[pos], vs[(pos + 1) % k]
        if {a, b} == {i, j}:
            return Circle(vs[: pos + 1] + (new,) + vs[pos + 1 :])
    raise ValueError(f"edge ({i}, {j}) is not on the circle")
