"""Brute-force ground truth by exhaustive enumeration.

Everything here enumerates honestly: Hamiltonian circles are generated as
permutations with the first vertex pinned and reflection removed, paths
as permutations from a fixed start.  The constructive machinery is never
consulted, so these results can sit on the other side of every
cross-check.  Enumeration is guarded by a size bound to keep factorial
work from running away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional

from .graph import Circle, Path, SignedCompleteGraph, edge_index
from .group import ELEMENTS, F22

#: Largest n enumerated by default: (10-1)!/2 = 181,440 circles.
ENUMERATION_BOUND = 10


def hamiltonian_circle_count(n: int) -> int:
    """(n-1)!/2 — the number of distinct Hamiltonian circles of K_n."""
    out = 1
    for k in range(2, n):
        out *= k
    return out // 2


def hamiltonian_circles(n: int) -> Iterator[tuple[int, ...]]:
    """All Hamiltonian circles as vertex tuples starting at 1.

    Vertex 1 is pinned first and tours with second vertex greater than the
    last are skipped, which removes rotations and reflections exactly.
    Order is lexicographic in the remaining permutation.
    """
    for perm in permutations(range(2, n + 1)):
        if perm[0] < perm[-1]:
            yield (1,) + perm


@lru_cache(maxsize=None)
def circle_edge_indices(n: int) -> tuple[tuple[int, ...], ...]:
    """Edge-index lists of every Hamiltonian circle of K_n, cached."""
    out = []
    for tour in hamiltonian_circles(n):
        idxs = [edge_index(n, tour[i], tour[i + 1]) for i in range(n - 1)]
        idxs.append(edge_index(n, tour[-1], tour[0]))
        out.append(tuple(idxs))
    return tuple(out)


@dataclass(frozen=True)
class Spectrum:
    """Exact per-label counts of Hamiltonian circles."""

    counts: dict[F22, int]
    witnesses: Optional[dict[F22, Circle]] = None

    @property
    def realized(self) -> frozenset[F22]:
        return frozenset(s for s, v in self.counts.items() if v)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise ValueError(
            f"n={n} exceeds the enumeration bound {bound}; raise `bound` explicitly"
        )


def hamiltonian_spectrum(
    g: SignedCompleteGraph,
    *,
    bound: int = ENUMERATION_BOUND,
    witnesses: bool = False,
) -> Spectrum:
    """Enumerate every Hamiltonian circle and count labels exactly.

    ``witnesses`` additionally records the first circle found per label.
    """
    if g.n < 3:
        raise ValueError("need n >= 3 for Hamiltonian circles")
    _check_bound(g.n, bound)
    n = g.n
    rows = g.rows
    counts = [0, 0, 0, 0]
    wit: dict[int, tuple[int, ...]] = {}
    for second in range(2, n + 1):
        rest = [v for v in range(2, n + 1) if v != second]
        first_edge = rows[1][second]
        for perm in permutations(rest):
            if second > perm[-1]:
                continue
            acc = first_edge
            prev = second
            for v in perm:
                acc ^= rows[prev][v]
                prev = v
            acc ^= rows[prev][1]
            counts[acc] += 1
            if witnesses and acc not in wit:
                wit[acc] = (1, second) + perm
    count_map = dict(zip(ELEMENTS, counts))
    witness_map = (
        {ELEMENTS[k]: Circle(tour) for k, tour in sorted(wit.items())} if witnesses else None
    )
    return Spectrum(count_map, witness_map)


def hamiltonian_paths_spectrum(
    g: SignedCompleteGraph, start: int, *, bound: int = ENUMERATION_BOUND
) -> tuple[F22, ...]:
    """Sorted label multiset of all (n-1)! Hamiltonian paths from ``start``."""
    g.check_vertices(start)
    _check_bound(g.n, bound)
    rows = g.rows
    rest = [v for v in g.vertices() if v != start]
    out = []
    for perm in permutations(rest):
        acc = 0
        prev = start
        for v in perm:
            acc ^= rows[prev][v]
            prev = v
        out.append(ELEMENTS[acc])
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class PathGroup:
    """Four Hamiltonian paths of a K4 sharing an endpoint-pair class."""

    endpoint_pairs: tuple[tuple[int, int], tuple[int, int]]
    paths: tuple[Path, ...]
    signs: tuple[F22, ...]


@dataclass(frozen=True)
class PathMultisetReport:
    """The 12 Hamiltonian paths of a K4, grouped two ways.

    ``per_start[i]`` is the sorted label multiset of the six paths with an
    endpoint at vertex i; ``groups`` are the three four-path classes keyed
    by complementary endpoint pairs; ``totals`` counts all 12 paths by
    label.
    """

    per_start: dict[int, tuple[F22, ...]]
    groups: tuple[PathGroup, PathGroup, PathGroup]
    totals: dict[F22, int]


_K4_GROUPS = (((1, 2), (3, 4)), ((1, 4), (2, 3)), ((1, 3), (2, 4)))


def k4_path_report(g: SignedCompleteGraph) -> PathMultisetReport:
    """Enumerate the 12 Hamiltonian paths of a K4 and aggregate labels."""
    if g.n != 4:
        raise ValueError(f"path report is defined for n=4 only, got n={g.n}")
    rows = g.rows
    paths: list[tuple[tuple[int, ...], int]] = []
    for perm in permutations((1, 2, 3, 4)):
        if perm[0] > perm[-1]:
            continue
        acc = 0
        for i in range(3):
            acc ^= rows[perm[i]][perm[i + 1]]
        paths.append((perm, acc))

    per_start: dict[int, list[F22]] = {i: [] for i in (1, 2, 3, 4)}
    totals = {e: 0 for e in ELEMENTS}
    for perm, acc in paths:
        per_start[perm[0]].append(ELEMENTS[acc])
        per_start[perm[-1]].append(ELEMENTS[acc])
        totals[ELEMENTS[acc]] += 1

    groups = []
    for pair_a, pair_b in _K4_GROUPS:
        members = [
            (perm, acc)
            for perm, acc in paths
            if {perm[0], perm[-1]} in ({*pair_a}, {*pair_b})
        ]
        groups.append(
            PathGroup(
                (pair_a, pair_b),
                tuple(Path(perm) for perm, _ in members),
                tuple(ELEMENTS[acc] for _, acc in members),
            )
        )
    return PathMultisetReport(
        {i: tuple(sorted(v)) for i, v in per_start.items()},
        tuple(groups),
        totals,
    )
