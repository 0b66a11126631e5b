"""The edge-labeled complete graph and sign evaluation of walks.

Vertices are 1-based and contiguous.  A graph stores one label per
unordered pair in a flat triangular array, cheap to copy during sign
sweeps and read by whole-graph passes.  Single labels are read as ints
from the row table ``rows`` that the constructor builds once; :class:`F22`
is built only where a public function returns a label.  Graphs are
immutable after construction, and every operation here is read-only.
"""

from __future__ import annotations

from itertools import combinations, islice
from operator import index
from typing import Iterable, Iterator, Sequence

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

    ``rows[u][v]`` is the int label of edge {u, v}.  ``signs`` must be
    ``bytes``, so no caller can change a label after construction;
    :meth:`from_signs` takes any sequence.  Readers check their
    vertices with :meth:`check_vertices` first: a negative index would
    silently read another row.
    """

    __slots__ = ("n", "_signs", "rows")

    def __init__(self, n: int, signs: bytes):
        if not isinstance(signs, bytes):
            raise TypeError(f"signs must be bytes, got {type(signs).__name__}; use from_signs")
        if n < 2:
            raise ValueError("need at least 2 vertices")
        if len(signs) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} signs, got {len(signs)}")
        bad = signs.translate(None, b"\x00\x01\x02\x03")  # the bytes that are no label
        if bad:
            raise ValueError(f"edge label {bad[0]} outside 0..3")
        self.n = n
        self._signs = signs
        self.rows = _row_table(n, signs)

    @classmethod
    def from_signs(cls, n: int, signs: Sequence[int]) -> "SignedCompleteGraph":
        """Build from a full triangular sequence of labels in index order.

        Raises ``TypeError`` on a label that is not an integer.
        """
        return cls(n, bytes(map(index, signs)))

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
        for (u, v), s in zip(combinations(self.vertices(), 2), self._signs):
            yield u, v, ELEMENTS[s]

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
        u, v = next(islice(combinations(range(1, n + 1), 2), buf.index(255), None))
        raise ValueError(f"missing edge ({u}, {v})")
    return SignedCompleteGraph(n, bytes(buf))


def _refuse(vs: tuple[int, ...], least: int, kind: str) -> None:
    """Raise ``ValueError`` for a walk ``vs`` that is too short or repeats a vertex."""
    if len(vs) < least:
        raise ValueError(f"a {kind} needs at least {least} vertices, got {len(vs)}")
    raise ValueError(f"repeated vertex in {kind}: {vs}")


class Circle:
    """A simple cycle, stored canonically up to rotation and reflection.

    The canonical form starts at the smallest vertex and proceeds toward
    its smaller neighbor, so equal circles compare and hash equal and all
    reported witnesses are byte-stable.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[int]):
        vs = tuple(map(index, vertices))  # TypeError on a non-integer vertex
        if len(vs) < 3 or len(set(vs)) != len(vs):
            _refuse(vs, 3, "circle")
        k = vs.index(min(vs))
        vs = vs[k:] + vs[:k]
        self.vertices = vs if vs[1] < vs[-1] else vs[:1] + vs[:0:-1]

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
        vs = tuple(map(index, vertices))  # TypeError on a non-integer vertex
        if len(vs) < 2 or len(set(vs)) != len(vs):
            _refuse(vs, 2, "path")
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


def walk_sign(g: SignedCompleteGraph, walk: Circle | Path) -> F22:
    """Sum of edge labels along a circle or path.

    Independent of orientation, and of rotation for circles, because the
    label group is commutative and the traversed edge set is the same.
    """
    vs = walk.vertices
    if min(vs) < 1 or max(vs) > g.n:  # a negative index would read another row
        raise ValueError(f"vertex out of range for n={g.n}: {vs}")
    rows = g.rows
    # a circle closes from its last vertex; a path's first step reads the
    # diagonal, which is 0
    prev = vs[-1] if isinstance(walk, Circle) else vs[0]
    acc = 0
    for v in vs:
        acc ^= rows[prev][v]
        prev = v
    return ELEMENTS[acc]


def triangle_sign(g: SignedCompleteGraph, t: Sequence[int]) -> F22:
    """Sum of the three edge labels of a triangle."""
    a, b, c = t
    if a == b or a == c or b == c:
        raise ValueError(f"degenerate triangle ({a}, {b}, {c})")
    g.check_vertices(a, b, c)
    rows = g.rows
    return ELEMENTS[rows[a][b] ^ rows[a][c] ^ rows[b][c]]
