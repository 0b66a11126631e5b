"""Vectorized companions to the oracle for exhaustive and batch domains.

The per-instance oracle is the reference: it enumerates one graph's
circles from its own permutation table.  This module computes the same
quantities for millions of instances at once with numpy, walking every
Hamiltonian circle of K_n depth first (:func:`_circle_labels`), so the
full hub-normalized families (4^10 labelings at n = 6) stay in the
seconds range.  It builds no circle table and shares no enumeration
code with the oracle; consumers cross-check sampled rows against the
per-instance oracle, so the two routes stay independent checks on each
other.

Per instance the sweep reports bit masks over the four labels: which
labels some triangle realizes (``tri_mask``), which labels the triangles
through each hub realize (``hub_mask``), which labels some Hamiltonian
circle realizes (``spec_mask``), plus triangle diversity, whether any K4
has four distinct triangle labels, and where the first hub-1 triangle of
each label sits.  Normalized at vertex 1, edge u-w carries the label of
triangle 1-u-w, so the hub-1 facts are the non-hub edge facts of the
hub-normalized family, read off any row without normalizing it.

Callers pass one row per instance.  The kernel works column-major, on
one contiguous uint8 row per edge: :func:`analyze_sign_matrix`
transposes its batch once, and family chunks are written in that layout
straight from their indices.  The triangle labels become a contiguous
(triangles, rows) block of one-hot bits ``1 << label`` that the K4 stage
reuses, and the circle and K4 loops XOR and OR in place into
preallocated buffers.  Every step then reads contiguous memory, and the
loops allocate no temporary per step.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations, permutations, repeat

import numpy as np

from .census import quad_table, spectrum_mask, triangle_table
from .graph import edge_index
from .io_gen import free_edges, normalized_domain_size
from .oracle import ENUMERATION_BOUND

POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)

_ONE = np.uint8(1)
_ONE16 = np.uint16(1)

#: Bits 1 << m of the label masks m with exactly three labels.
_THREE_LABEL_MASKS = np.uint16(sum(1 << m for m in range(16) if POPCOUNT4[m] == 3))


@dataclass
class BatchAnalysis:
    """Vectorized per-instance facts for a batch of full sign arrays."""

    n: int
    diversity: np.ndarray
    tri_mask: np.ndarray
    spec_mask: np.ndarray
    sigma4star: np.ndarray  # some K4 has four distinct triangle labels
    quad3: np.ndarray  # some K4 has exactly three (provably impossible)
    hub_mask: np.ndarray  # (rows, n): labels of the triangles through each vertex
    first_edge: np.ndarray  # (rows, 4): first hub-1 triangle (free-edge position) per label

    @property
    def size(self) -> int:
        return len(self.diversity)

    @property
    def edge_mask(self) -> np.ndarray:
        """Labels of the hub-1 triangles: the non-hub edge labels of a
        row normalized at vertex 1."""
        return self.hub_mask[:, 0]


def _circle_labels(n: int, cols: np.ndarray) -> np.ndarray:
    """Per row of the (edges, rows) block ``cols``, the mask of labels
    some Hamiltonian circle realizes.

    Each circle (1, first, ..., last) with first < last is the XOR of its
    n edges.  For each end pair the middle paths are walked in
    lexicographic order, so consecutive paths share a prefix: ``acc[d]``
    holds the label of the walk last-1-first plus its first d middle
    steps, and only the steps after the shared prefix are recomputed.
    """
    rows = cols.shape[1]
    col = {(u, v): cols[edge_index(n, u, v)] for u, v in permutations(range(1, n + 1), 2)}
    spec_mask = np.zeros(rows, dtype=np.uint8)
    acc = np.empty((n, rows), dtype=np.uint8)
    leaf = np.empty(rows, dtype=np.uint8)
    depth = n - 3  # middle vertices per circle
    for first, last in combinations(range(2, n + 1), 2):
        np.bitwise_xor(col[last, 1], col[1, first], out=acc[0])
        middle = [v for v in range(2, n + 1) if v != first and v != last]
        walk = [first] * (depth + 1)  # first, then the middle path acc holds
        for path in permutations(middle):
            shared = 0
            while shared < depth and walk[shared + 1] == path[shared]:
                shared += 1
            for d in range(shared, depth):
                walk[d + 1] = path[d]
                np.bitwise_xor(acc[d], col[walk[d], path[d]], out=acc[d + 1])
            np.bitwise_xor(acc[depth], col[walk[depth], last], out=leaf)
            np.left_shift(_ONE, leaf, out=leaf)
            spec_mask |= leaf
    return spec_mask


def _analyze_columns(n: int, cols: np.ndarray) -> BatchAnalysis:
    """The batch facts from checked labels in the working layout: ``cols``
    is a C-contiguous (edges, rows) uint8 block, one row per edge."""
    rows = cols.shape[1]
    tris = triangle_table(n)
    # One-hot label bit 1 << label per (triangle, row), shared by the K4 stage.
    tri_bits = np.empty((len(tris), rows), dtype=np.uint8)
    for t, (_, (i, j, k)) in enumerate(tris):
        np.bitwise_xor(cols[i], cols[j], out=tri_bits[t])
        tri_bits[t] ^= cols[k]
    np.left_shift(_ONE, tri_bits, out=tri_bits)
    tri_mask = np.bitwise_or.reduce(tri_bits, axis=0)
    diversity = POPCOUNT4[tri_mask]

    hub_mask = np.zeros((n, rows), dtype=np.uint8)
    for t, (triple, _) in enumerate(tris):
        for v in triple:
            hub_mask[v - 1] |= tri_bits[t]
    # The hub-1 triangles come first, in free-edge order.  Walk them last
    # to first, so each label ends at its first triangle; a label that no
    # hub-1 triangle carries reads 0.
    first_edge = np.zeros((4, rows), dtype=np.uint8)
    for k in range(len(free_edges(n)) - 1, -1, -1):
        for label in range(4):
            np.copyto(first_edge[label], k, where=tri_bits[k] == (1 << label))

    spec_mask = _circle_labels(n, cols)

    # Bit m of ``seen`` is set when some K4's triangles realize label mask m.
    seen = np.zeros(rows, dtype=np.uint16)
    qmask = np.empty(rows, dtype=np.uint8)
    qbit = np.empty(rows, dtype=np.uint16)
    for _, (p, q, r, s) in quad_table(n):
        np.bitwise_or(tri_bits[p], tri_bits[q], out=qmask)
        qmask |= tri_bits[r]
        qmask |= tri_bits[s]
        np.left_shift(_ONE16, qmask, out=qbit)
        seen |= qbit
    sigma4star = np.bitwise_and(seen, 1 << 0b1111, out=qbit) != 0  # all four labels
    quad3 = np.bitwise_and(seen, _THREE_LABEL_MASKS, out=qbit) != 0
    return BatchAnalysis(
        n, diversity, tri_mask, spec_mask, sigma4star, quad3, hub_mask.T, first_edge.T
    )


def _check_enumeration_bound(n: int) -> None:
    if n > ENUMERATION_BOUND:  # every row would enumerate all (n-1)!/2 circles
        raise ValueError(f"n={n} is above the enumeration bound {ENUMERATION_BOUND}")


def analyze_sign_matrix(n: int, signs: np.ndarray) -> BatchAnalysis:
    """Analyze a (batch, n(n-1)/2) matrix of full sign arrays.

    Row i must be the triangular sign array of one instance; columns are
    edge-index order, labels integers in 0..3, and any memory layout is
    accepted.  Spectra enumerate all (n-1)!/2 circles.  Raises
    ``ValueError`` for n above :data:`oracle.ENUMERATION_BOUND`, on a
    matrix of the wrong shape, on a non-integer dtype, or on a label
    outside 0..3, naming its row and column.
    """
    _check_enumeration_bound(n)
    signs = np.asarray(signs)
    width = n * (n - 1) // 2
    if signs.ndim != 2 or signs.shape[1] != width:
        raise ValueError(
            f"expected a 2-D matrix with {width} label columns for n={n}, got shape {signs.shape}"
        )
    if not np.issubdtype(signs.dtype, np.integer):
        raise ValueError(f"labels must be integers 0..3, got dtype {signs.dtype}")
    if signs.size and (signs.min() < 0 or signs.max() > 3):
        r, c = np.argwhere((signs < 0) | (signs > 3))[0]
        raise ValueError(f"label {signs[r, c]} at row {r}, column {c} is outside 0..3")
    return _analyze_columns(n, np.ascontiguousarray(signs.T, dtype=np.uint8))


def signs_from_indices(n: int, indices: np.ndarray) -> np.ndarray:
    """Full triangular sign matrix of hub-normalized labeling indices.

    Matches ``io_gen.instance_from_index`` row for row: free edge k takes
    base-4 digit k of the index, hub edges stay identity.
    """
    return np.ascontiguousarray(_index_columns(n, np.array(indices, dtype=np.int64)).T)


def _index_columns(n: int, idx: np.ndarray) -> np.ndarray:
    """The sign matrix of the int64 indices ``idx`` in the kernel's
    (edges, rows) layout.  ``idx`` is consumed: it is shifted right in
    place one base-4 digit per free edge."""
    cols = np.zeros((n * (n - 1) // 2, len(idx)), dtype=np.uint8)
    for u, v in free_edges(n):
        col = cols[edge_index(n, u, v)]
        col[:] = idx
        col &= 3
        idx >>= 2
    return cols


def _sweep_chunk(n: int, start: int, stop: int) -> BatchAnalysis:
    """The family rows [start, min(start + _CHUNK, stop))."""
    idx = np.arange(start, min(start + _CHUNK, stop), dtype=np.int64)
    return _analyze_columns(n, _index_columns(n, idx))


#: Whole families, by n; sub-ranges are never kept.
_SWEEP_CACHE: dict[int, BatchAnalysis] = {}

#: The most rows one sweep returns: the whole n = 6 family.  The n = 7
#: family (4^15 rows) would need about 17 GB of result arrays.
MAX_SWEEP_ROWS = 4 ** 10

#: Rows per sweep chunk: bounds the working arrays of one chunk and is the
#: unit of work handed to each worker process.
_CHUNK = 1 << 16


def run_normalized_sweep(
    n: int,
    start: int = 0,
    stop: int | None = None,
    *,
    jobs: int = 1,
) -> BatchAnalysis:
    """Sweep an index range of the hub-normalized family (default: all).

    The range is walked lazily in chunks of :data:`_CHUNK` rows, by worker
    processes when ``jobs > 1`` (at most one per chunk and per CPU), and
    the results concatenated in index order; the output is identical to a
    single-worker run, so whole families are cached, with read-only
    arrays.  Raises ``ValueError`` for n above
    :data:`oracle.ENUMERATION_BOUND` and, before any chunk is swept, for a
    range of more than :data:`MAX_SWEEP_ROWS` rows.
    """
    _check_enumeration_bound(n)
    total = normalized_domain_size(n)
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"bad range [{start}, {stop}) for domain of {total}")
    if stop - start > MAX_SWEEP_ROWS:
        raise ValueError(f"range of {stop - start} rows exceeds MAX_SWEEP_ROWS={MAX_SWEEP_ROWS}")
    whole = start == 0 and stop == total
    if whole and n in _SWEEP_CACHE:
        return _SWEEP_CACHE[n]
    # An empty range is swept as one empty chunk.
    starts = range(start, stop, _CHUNK) or range(start, start + 1)
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_sweep_chunk(n, a, stop) for a in starts]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, repeat(n), starts, repeat(stop)))
    arrays = [f.name for f in fields(BatchAnalysis)[1:]]
    result = parts[0] if len(parts) == 1 else BatchAnalysis(
        n, *(np.concatenate([getattr(p, name) for p in parts]) for name in arrays)
    )
    if whole:
        for name in arrays:
            getattr(result, name).flags.writeable = False
        _SWEEP_CACHE[n] = result
    return result


def allowed_spectrum_mask(tri_mask: np.ndarray, n: int) -> np.ndarray:
    """Upper bound on each spectrum mask implied by triangle labels:
    :func:`census.spectrum_mask` of each entry."""
    lut = np.array([spectrum_mask(mask, n) for mask in range(16)], dtype=np.uint8)
    return lut[tri_mask]
