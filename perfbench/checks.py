"""Reference math and output checkers owned by the benchmark.

Nothing in this file imports doublesign.  Edge indexes, triangle labels,
K4 classes and the diversity law are recomputed here from the raw edge
bytes, so a defect in the library cannot vouch for its own output.
Every checker returns None for a correct output and a one-line reason
otherwise; the runner counts each reason as one failed call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)


def edge_index(n: int, u: int, v: int) -> int:
    """Position of edge {u, v} (1-based vertices) in the triangular label array."""
    if u > v:
        u, v = v, u
    return (u - 1) * (2 * n - u) // 2 + (v - u - 1)


@lru_cache(maxsize=None)
def triangle_edges(n: int) -> np.ndarray:
    """(C(n,3), 3) edge indexes of every triangle, in lexicographic order."""
    return np.array(
        [
            (edge_index(n, a, b), edge_index(n, a, c), edge_index(n, b, c))
            for a, b, c in combinations(range(1, n + 1), 3)
        ],
        dtype=np.int64,
    ).reshape(-1, 3)


@lru_cache(maxsize=None)
def quad_triangles(n: int) -> np.ndarray:
    """(C(n,4), 4) rows of ``triangle_edges`` for the triangles of each K4."""
    pos = {t: i for i, t in enumerate(combinations(range(1, n + 1), 3))}
    return np.array(
        [[pos[t] for t in combinations(q, 3)] for q in combinations(range(1, n + 1), 4)],
        dtype=np.int64,
    ).reshape(-1, 4)


def triangle_labels(n: int, signs: np.ndarray) -> np.ndarray:
    """(rows, C(n,3)) triangle labels of a (rows, n(n-1)/2) label matrix."""
    te = triangle_edges(n)
    return signs[:, te[:, 0]] ^ signs[:, te[:, 1]] ^ signs[:, te[:, 2]]


def triangle_masks(n: int, signs: np.ndarray) -> np.ndarray:
    """Per row, the 4-bit set of labels some triangle realizes."""
    bits = np.left_shift(np.uint8(1), triangle_labels(n, signs))
    return np.bitwise_or.reduce(bits, axis=1)


def has_all_distinct_k4(n: int, signs: np.ndarray) -> np.ndarray:
    """Per row, whether some K4 has four pairwise distinct triangle labels."""
    bits = np.left_shift(np.uint8(1), triangle_labels(n, signs))
    qt = quad_triangles(n)
    out = np.zeros(len(signs), dtype=bool)
    for cols in qt:
        out |= np.bitwise_or.reduce(bits[:, cols], axis=1) == 15
    return out


def law_mask(n: int, tri_mask: int) -> int:
    """The Hamiltonian label set the diversity law predicts, as a 4-bit mask.

    One triangle label x forces every circle to (n-2)x; two labels x, y
    allow {x, y} when n-2 is odd and {e, x+y} when it is even; three or
    more allow everything (n > 5).
    """
    labels = [s for s in range(4) if tri_mask >> s & 1]
    odd = (n - 2) % 2 == 1
    if len(labels) == 1:
        return 1 << (labels[0] if odd else 0)
    if len(labels) == 2:
        x, y = labels
        return (1 << x | 1 << y) if odd else (1 | 1 << (x ^ y))
    return 15


def law_masks(n: int, tri_masks: np.ndarray) -> np.ndarray:
    lut = np.array([0] + [law_mask(n, m) for m in range(1, 16)], dtype=np.uint8)
    return lut[tri_masks]


def label_mask(labels) -> int:
    return sum(1 << int(s) for s in set(labels))


def check_witness_set(n: int, signs: bytes, ws) -> Optional[str]:
    """Four Hamiltonian circles whose recomputed labels are the four recorded ones."""
    if len(ws.witnesses) != 4:
        return f"{len(ws.witnesses)} witnesses"
    everything = list(range(1, n + 1))
    seen = set()
    for circle, recorded in ws.witnesses:
        vs = tuple(circle.vertices)
        if sorted(vs) != everything:
            return f"circle {vs} is not Hamiltonian"
        acc = 0
        for i in range(n):
            acc ^= signs[edge_index(n, vs[i], vs[(i + 1) % n])]
        if acc != int(recorded):
            return f"circle {vs} recorded {int(recorded)}, recomputed {acc}"
        seen.add(acc)
    if len(seen) != 4:
        return f"labels {sorted(seen)} are not pairwise distinct"
    return None


def check_refusal(n: int, tri_mask: int, values) -> Optional[str]:
    """A refusal is correct only at diversity <= 2, carrying the law's label set."""
    if POPCOUNT4[tri_mask] > 2:
        return f"refused at diversity {POPCOUNT4[tri_mask]}"
    if label_mask(values) != law_mask(n, tri_mask):
        return f"refusal predicts {sorted(int(v) for v in values)}"
    return None


def check_spectrum(n: int, tri_mask: int, counts, circles: int) -> Optional[str]:
    """Enumerated counts cover every circle and realize exactly the law's set."""
    total = sum(counts.values())
    if total != circles:
        return f"{total} circles counted, expected {circles}"
    realized = label_mask(s for s, c in counts.items() if c)
    if realized != law_mask(n, tri_mask):
        return f"realized mask {realized}, law gives {law_mask(n, tri_mask)}"
    return None


def check_sweep(n: int, signs: np.ndarray, result) -> Optional[str]:
    """Every row of a sweep result against this file's own labels and the law."""
    rows = len(signs)
    if result.size != rows or len(result.spec_mask) != rows:
        return f"sweep returned {result.size} rows, expected {rows}"
    tri_mask = triangle_masks(n, signs)
    if not np.array_equal(result.tri_mask, tri_mask):
        return "triangle masks differ"
    if not np.array_equal(result.diversity, POPCOUNT4[tri_mask]):
        return "diversity differs"
    if not np.array_equal(result.sigma4star, has_all_distinct_k4(n, signs)):
        return "all-distinct K4 flags differ"
    if result.quad3.any():
        return "a K4 with exactly three triangle labels"
    bad = int((result.spec_mask != law_masks(n, tri_mask)).sum())
    if bad:
        return f"{bad} rows break the diversity law"
    return None
