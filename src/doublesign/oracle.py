"""Brute-force ground truth by exhaustive enumeration.

Everything here enumerates honestly: Hamiltonian circles are generated as
permutations with the first vertex pinned and reflection removed, paths
as permutations from a fixed start.  The constructive machinery is never
consulted, so these results can sit on the other side of every
cross-check.  Enumeration refuses n above a fixed ceiling, to keep
factorial work from running away.

:func:`hamiltonian_spectrum` still visits every circle and XORs its own
n edge labels; only the loop over circles runs in numpy.  The last
``min(n - 2, 8)`` vertices of each tour are read off one cached table of
their permutations, at most 8! columns (about 0.6 MB at any n), and a
Python loop runs over the vertices before them: at n <= 10 that is the
second vertex alone.  The table is this module's own; the sweep walks
its circles depth first without any table, so the sweep and the oracle
remain two independent routes to every spectrum.
:func:`circle_edge_indices` lists every circle's edge indexes; no
library code reads it, only the benchmark's set-up split
(``perfbench/run.py``).

:func:`hamiltonian_paths_spectrum` gives the label multiset of the
Hamiltonian paths from one start; the K4 claims read it at each of the
four starts of a K4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations
from math import factorial
from typing import Iterator, Optional

import numpy as np

from .graph import Circle, SignedCompleteGraph, edge_index
from .group import ELEMENTS, F22

#: The sweep's bound, which its random claim scopes share: (10-1)!/2 =
#: 181,440 circles per row.
ENUMERATION_BOUND = 10

#: Largest n the oracle enumerates.  Each step in n costs about 11 times
#: more; at n = 11 (one Xeon core) a spectrum takes 0.05 s, the paths
#: from one start 2.0 s.
ENUMERATION_CEILING = 11

#: Widest circle suffix enumerated in one numpy pass.  Its tables take
#: 8! * 15 B, about 0.6 MB; uncapped they would take 838 MB at n = 13.
_SUFFIX_WIDTH = 8


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
    """Edge-index lists of every Hamiltonian circle of K_n, cached: at
    n = 10, 181,440 tuples (about 24 MB)."""
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


def check_bound(n: int) -> None:
    """Raise ValueError if n is above :data:`ENUMERATION_CEILING`."""
    if n > ENUMERATION_CEILING:
        raise ValueError(f"n={n} exceeds the enumeration ceiling {ENUMERATION_CEILING}")


@lru_cache(maxsize=None)
def _suffix_tables(w: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of ``range(w)`` in lexicographic order, one per
    column of a (w, w!) uint8 table, and the (w - 1, w!) flat indices
    ``a * w + b`` of their consecutive pairs.  Both are read-only."""
    count = factorial(w)
    flat = np.fromiter(chain.from_iterable(permutations(range(w))), np.uint8, w * count)
    perms = np.ascontiguousarray(flat.reshape(count, w).T)
    pairs = perms[:-1] * np.uint8(w) + perms[1:]
    perms.flags.writeable = pairs.flags.writeable = False
    return perms, pairs


def hamiltonian_spectrum(g: SignedCompleteGraph, *, witnesses: bool = False) -> Spectrum:
    """Enumerate every Hamiltonian circle and count labels exactly.

    Circles are taken in the order of :func:`hamiltonian_circles`.  A tour
    ``(1, *prefix, *suffix)`` splits into a prefix, looped over in
    lexicographic order, and its last ``w = min(n - 2, 8)`` vertices, whose
    orders are the columns of one cached permutation table.  For each
    prefix one numpy pass XORs, per column, the prefix's label to the
    suffix start, the suffix's own edges and the closing edge to vertex 1:
    every circle's label is still the sum of its own n edges.  Tours whose
    second vertex exceeds their last are masked out.  The cap on ``w``
    keeps the table near 0.6 MB up to the ceiling n = 11.

    ``witnesses`` additionally records the first circle found per label.
    """
    if g.n < 3:
        raise ValueError("need n >= 3 for Hamiltonian circles")
    check_bound(g.n)
    n = g.n
    rows = g.rows
    w = min(n - 2, _SUFFIX_WIDTH)
    perms, pairs = _suffix_tables(w)
    first, last = perms[0], perms[-1]
    square = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(n + 1, n + 1)
    counts = [0, 0, 0, 0]
    wit: dict[int, tuple[int, ...]] = {}
    for prefix in permutations(range(2, n + 1), n - 1 - w):
        rest = [v for v in range(2, n + 1) if v not in prefix]
        acc = rows[1][prefix[0]]
        for u, v in zip(prefix, prefix[1:]):
            acc ^= rows[u][v]
        inner = square[np.ix_(rest, rest)].ravel()
        labels = (acc ^ square[prefix[-1], rest]).take(first) ^ square[rest, 1].take(last)
        for row in pairs:
            labels ^= inner.take(row)
        # Label 4 marks the reflected duplicates, tours with second > last;
        # ``rest`` is sorted, so those end at a position below ``lower``.
        lower = sum(v < prefix[0] for v in rest)
        labels[last < lower] = 4
        for k, c in enumerate(np.bincount(labels, minlength=5)[:4].tolist()):
            counts[k] += c
            if witnesses and c and k not in wit:
                column = perms[:, int(np.argmax(labels == k))]
                wit[k] = (1, *prefix, *(rest[i] for i in column.tolist()))
    count_map = dict(zip(ELEMENTS, counts))
    witness_map = (
        {ELEMENTS[k]: Circle(tour) for k, tour in sorted(wit.items())} if witnesses else None
    )
    return Spectrum(count_map, witness_map)


def hamiltonian_paths_spectrum(g: SignedCompleteGraph, start: int) -> tuple[F22, ...]:
    """Sorted label multiset of all (n-1)! Hamiltonian paths from ``start``
    (on a K4, the six of its 12 paths with an end at ``start``)."""
    g.check_vertices(start)
    check_bound(g.n)
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
