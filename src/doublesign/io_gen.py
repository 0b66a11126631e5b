"""Instance generation and a line-oriented instance format.

Generators cover three needs: the exhaustive hub-normalized family (all
labelings with vertex 1's star pinned to the identity, indexed so runs
can be partitioned and replayed), seeded uniform-random instances, and
the small named fixtures used throughout the documentation and tests.

The text format is deliberately diff-able: a header line ``n=<N>``
followed by one ``u v <label>`` line per edge.  :func:`parse` reads it
straight into a :class:`SignedCompleteGraph` and :func:`serialize` writes
one back.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator, Optional

import numpy as np

from .graph import SignedCompleteGraph, build, edge_index
from .group import F22


# ---------------------------------------------------------------------------
# Exhaustive hub-normalized family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def free_edges(n: int) -> tuple[tuple[int, int], ...]:
    """Non-hub edges (pairs inside {2..n}) in lexicographic order.

    These are the free coordinates of a hub-normalized labeling; edge k
    corresponds to base-4 digit k (least significant first) of the
    instance index.
    """
    return tuple((u, v) for u in range(2, n + 1) for v in range(u + 1, n + 1))


def normalized_domain_size(n: int) -> int:
    """4 to the number of free edges."""
    return 4 ** comb(max(n - 1, 0), 2)


def instance_from_index(n: int, index: int) -> SignedCompleteGraph:
    """The hub-normalized instance with the given labeling index.

    Index 0 is the all-identity graph; the map is a bijection onto
    ``range(normalized_domain_size(n))`` (n <= :data:`MAX_GENERATED_N`).
    """
    _check_generated_size(n)
    size = normalized_domain_size(n)
    if not 0 <= index < size:
        raise ValueError(f"index {index} outside [0, {size})")
    buf = bytearray(n * (n - 1) // 2)
    for u, v in combinations(range(2, n + 1), 2):  # the free edges, in order
        buf[edge_index(n, u, v)] = index & 3
        index >>= 2
    return SignedCompleteGraph(n, bytes(buf))


def gen_exhaustive_normalized(n: int) -> Iterator[SignedCompleteGraph]:
    """Stream every hub-normalized labeling in index order, lazily.

    Supported for 4 <= n <= 7 (the n=7 domain has 4^15 instances; callers
    are expected to slice it); any other n is refused at the call, before
    the first instance is drawn.
    """
    if not 4 <= n <= 7:
        raise ValueError(f"exhaustive generation supports 4 <= n <= 7, got {n}")
    return (instance_from_index(n, index) for index in range(normalized_domain_size(n)))


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

#: The largest n that :func:`gen_random` and ``identity(n)`` build.  Building
#: a graph peaks at about 4 bytes per cell of its (n + 1)^2 row table
#: (16.1 MB at n = 2000), so a larger n is refused before any allocation.
MAX_GENERATED_N = 2000


def _check_generated_size(n: int) -> None:
    if n > MAX_GENERATED_N:
        raise ValueError(f"n={n} is above MAX_GENERATED_N={MAX_GENERATED_N}")


def gen_random(n: int, seed: int) -> SignedCompleteGraph:
    """Uniform independent edge labels from a deterministic seeded stream
    (3 <= n <= :data:`MAX_GENERATED_N`)."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_generated_size(n)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 4, size=n * (n - 1) // 2, dtype=np.uint8)
    return SignedCompleteGraph(n, signs.tobytes())


def random_sign_matrix(n: int, seeds: "np.ndarray | range") -> np.ndarray:
    """Stack the edge labels of ``gen_random(n, s)`` for many seeds.

    Row i equals the triangular sign array of ``gen_random(n, seeds[i])``
    exactly, so vectorized consumers and the scalar generator can be
    cross-checked against each other.
    """
    m = n * (n - 1) // 2
    out = np.empty((len(seeds), m), dtype=np.uint8)
    for i, s in enumerate(seeds):
        out[i] = np.random.default_rng(int(s)).integers(0, 4, size=m, dtype=np.uint8)
    return out


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------

_SHARE_VERTEX_K4 = (
    (1, 2, F22.B),
    (1, 3, F22.C),
    (1, 4, F22.A),
    (2, 3, F22.E),
    (3, 4, F22.A),
    (2, 4, F22.A),
)

_TRIANGLE_K4 = (
    (1, 2, F22.A),
    (1, 3, F22.A),
    (1, 4, F22.E),
    (2, 3, F22.A),
    (3, 4, F22.B),
    (2, 4, F22.C),
)


def named_instance(name: str) -> SignedCompleteGraph:
    """One of the documented fixtures.

    ``share_vertex_k4``: a K4 with all four triangle labels distinct whose
    three a-labeled edges meet at one vertex.  ``triangle_k4``: same
    triangle labels, but the three a-labeled edges form a triangle.
    ``identity(n)``: the all-identity graph on n vertices
    (3 <= n <= :data:`MAX_GENERATED_N`).
    """
    if name == "share_vertex_k4":
        return build(4, _SHARE_VERTEX_K4)
    if name == "triangle_k4":
        return build(4, _TRIANGLE_K4)
    if name.startswith("identity(") and name.endswith(")"):
        try:
            n = int(name[len("identity(") : -1])
        except ValueError:
            raise ValueError(f"unknown instance name: {name!r}") from None
        if n < 3:
            raise ValueError("identity(n) needs n >= 3")
        _check_generated_size(n)
        return SignedCompleteGraph(n, bytes(n * (n - 1) // 2))
    raise ValueError(f"unknown instance name: {name!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


def serialize(g: SignedCompleteGraph) -> str:
    """Render a graph in the line format (header, then one edge per line)."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v} {s.render()}" for u, v, s in g.edges())
    return "\n".join(lines) + "\n"


def parse(text: str) -> SignedCompleteGraph:
    """Parse the line format into a graph.

    Blank lines and ``#`` comments are ignored.  Raises
    :class:`ParseError` naming the line for a malformed line, a bad label
    token, a duplicate edge, or (naming the pair) a missing edge.  The
    graph is allocated only once every edge is present, so a large header
    with few edge lines fails fast and small.
    """
    n: Optional[int] = None
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise ParseError(f"line {lineno}: expected header 'n=<N>', got {raw!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {raw!r}") from None
            if n < 2:
                raise ParseError(f"line {lineno}: need n >= 2")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v <label>', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex in {raw!r}") from None
        try:
            s = F22.parse(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label token {parts[2]!r}") from None
        try:
            idx = edge_index(n, u, v)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if idx in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen[idx] = s
    if n is None:
        raise ParseError("empty input: missing 'n=<N>' header")
    # Walk the pairs lazily: the first missing one is at most one past the
    # edges given, so a large header alone costs nothing.  (``combinations``
    # would first copy all n vertices into a tuple.)
    pairs = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    for idx, (u, v) in enumerate(pairs):
        if idx not in seen:
            raise ParseError(f"missing edge ({u}, {v})")
    return SignedCompleteGraph(n, bytes(seen[i] for i in range(len(seen))))
