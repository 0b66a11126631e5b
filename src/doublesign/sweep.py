"""Vectorized companions to the oracle for exhaustive and batch domains.

The per-instance oracle is the readable reference; this module computes
the same quantities for millions of instances at once with numpy so the
full hub-normalized families (4^10 labelings at n = 6) stay in the
seconds range.  Consumers cross-check sampled rows against the scalar
oracle, so the two routes stay independent checks on each other.

Per instance the sweep reports bit masks over the four labels: which
labels some triangle realizes (``tri_mask``), which labels some
Hamiltonian circle realizes (``spec_mask``), plus triangle diversity,
whether any K4 has four distinct triangle labels, and where the first
non-hub edge of each label sits.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .census import quad_table, triangle_table
from .graph import edge_index
from .io_gen import free_edges, normalized_domain_size
from .oracle import circle_edge_indices

POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)

_ONE = np.uint8(1)


@dataclass
class BatchAnalysis:
    """Vectorized per-instance facts for a batch of full sign arrays."""

    n: int
    diversity: np.ndarray
    tri_mask: np.ndarray
    spec_mask: np.ndarray
    sigma4star: np.ndarray  # some K4 has four distinct triangle labels
    quad3: np.ndarray  # some K4 has exactly three (provably impossible)


def analyze_sign_matrix(n: int, signs: np.ndarray) -> BatchAnalysis:
    """Analyze a (batch, n(n-1)/2) uint8 matrix of full sign arrays.

    Row i must be the triangular sign array of one instance; columns are
    edge-index order.  Spectra enumerate all (n-1)!/2 circles.
    """
    rows = signs.shape[0]
    tri_signs = np.empty((rows, len(triangle_table(n))), dtype=np.uint8)
    for t, (_, (i, j, k)) in enumerate(triangle_table(n)):
        tri_signs[:, t] = signs[:, i] ^ signs[:, j] ^ signs[:, k]

    tri_mask = np.bitwise_or.reduce(np.left_shift(_ONE, tri_signs), axis=1)
    diversity = POPCOUNT4[tri_mask]

    spec_mask = np.zeros(rows, dtype=np.uint8)
    for idxs in circle_edge_indices(n):
        acc = signs[:, idxs[0]].copy()
        for e in idxs[1:]:
            acc ^= signs[:, e]
        spec_mask |= np.left_shift(_ONE, acc)

    sigma4star = np.zeros(rows, dtype=bool)
    quad3 = np.zeros(rows, dtype=bool)
    for _, positions in quad_table(n):
        qmask = np.left_shift(_ONE, tri_signs[:, positions[0]])
        for p in positions[1:]:
            qmask |= np.left_shift(_ONE, tri_signs[:, p])
        pc = POPCOUNT4[qmask]
        sigma4star |= pc == 4
        quad3 |= pc == 3
    return BatchAnalysis(n, diversity, tri_mask, spec_mask, sigma4star, quad3)


@dataclass
class NormalizedSweep(BatchAnalysis):
    """Batch facts for a contiguous index range of the normalized family."""

    start: int
    size: int
    edge_mask: np.ndarray  # labels realized by non-hub edges
    first_edge: np.ndarray  # (size, 4): first free-edge position per label


def signs_from_indices(n: int, indices: np.ndarray) -> np.ndarray:
    """Full triangular sign matrix of hub-normalized labeling indices.

    Matches ``io_gen.instance_from_index`` row for row: free edge k takes
    base-4 digit k of the index, hub edges stay identity.
    """
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros((len(idx), n * (n - 1) // 2), dtype=np.uint8)
    for k, (u, v) in enumerate(free_edges(n)):
        out[:, edge_index(n, u, v)] = ((idx >> (2 * k)) & 3).astype(np.uint8)
    return out


def _sweep_range(n: int, start: int, stop: int) -> NormalizedSweep:
    idx = np.arange(start, stop, dtype=np.int64)
    signs = signs_from_indices(n, idx)
    base = analyze_sign_matrix(n, signs)

    fe = free_edges(n)
    cols = np.array([edge_index(n, u, v) for u, v in fe])
    free_signs = signs[:, cols]
    edge_mask = np.bitwise_or.reduce(np.left_shift(_ONE, free_signs), axis=1)
    first_edge = np.empty((len(idx), 4), dtype=np.uint8)
    for s in range(4):
        first_edge[:, s] = np.argmax(free_signs == s, axis=1)
    return NormalizedSweep(
        **vars(base), start=start, size=stop - start, edge_mask=edge_mask, first_edge=first_edge
    )


_SWEEP_CACHE: dict[tuple[int, int, int], NormalizedSweep] = {}

#: Rows per sweep chunk: bounds the working arrays of one chunk and is the
#: unit of work handed to each worker process.
_CHUNK = 1 << 16


def run_normalized_sweep(
    n: int,
    start: int = 0,
    stop: int | None = None,
    *,
    jobs: int = 1,
) -> NormalizedSweep:
    """Sweep an index range of the hub-normalized family (default: all).

    The range is processed in chunks of :data:`_CHUNK` rows, by worker
    processes when ``jobs > 1``, and the results concatenated in index
    order; the output is identical to a single-worker run, so results are
    cached per range.
    """
    total = normalized_domain_size(n)
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"bad range [{start}, {stop}) for domain of {total}")
    cached = _SWEEP_CACHE.get((n, start, stop))
    if cached is not None:
        return cached
    ranges = [(s, min(s + _CHUNK, stop)) for s in range(start, stop, _CHUNK)]
    if not ranges:
        ranges = [(start, stop)]
    if jobs <= 1 or len(ranges) == 1:
        parts = [_sweep_range(n, a, b) for a, b in ranges]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_range, n, a, b) for a, b in ranges]
            parts = [f.result() for f in futures]
    arrays = {
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in fields(NormalizedSweep)
        if f.name not in ("n", "start", "size")
    }
    result = NormalizedSweep(n=n, start=start, size=stop - start, **arrays)
    if stop - start <= 4 ** 10:
        _SWEEP_CACHE[(n, start, stop)] = result
    return result


def allowed_spectrum_mask(tri_mask: np.ndarray, n: int) -> np.ndarray:
    """Upper bound on each spectrum mask implied by triangle labels.

    For diversity 1 every circle label is forced to (n-2) copies of the
    one triangle label; for diversity 2 to a parity pair; for diversity
    3+ there is no restriction (mask 15).
    """
    lut = np.empty(16, dtype=np.uint8)
    lut[0] = 0
    for mask in range(1, 16):
        bits = [s for s in range(4) if mask >> s & 1]
        if len(bits) == 1:
            lut[mask] = mask if (n - 2) % 2 else 1
        elif len(bits) == 2:
            x, y = bits
            lut[mask] = mask if (n - 2) % 2 else (1 | (1 << (x ^ y)))
        else:
            lut[mask] = 15
    return lut[tri_mask]
