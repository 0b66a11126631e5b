"""The five seeded workloads: inputs, the public call, and its checker.

Inputs are generated here with numpy from the run's seed, outside every
timed region; the library receives only a built ``SignedCompleteGraph``
(or, for the sweep, an index range).  This module never imports
doublesign at load time, so the runner can time a fresh import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

import checks

SWEEP_ROWS = 1 << 16

#: Exact class sizes of the 4^10 hub-normalized n = 6 family.
N6_CLASS_COUNTS = {"diversity3": 12_240, "case_alpha": 2_520, "diversity_le2": 6_136}


def circle_count(n: int) -> int:
    """(n-1)!/2 Hamiltonian circles of K_n."""
    out = 1
    for k in range(2, n):
        out *= k
    return out // 2


def normalized_signs(n: int, indices: np.ndarray) -> np.ndarray:
    """Label rows of hub-normalized instances: free edge k takes base-4 digit k.

    Free edges are the pairs inside {2..n} in lexicographic order and the
    hub edges at vertex 1 stay identity, the documented index layout of
    the library's normalized family.
    """
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros((len(idx), n * (n - 1) // 2), dtype=np.uint8)
    free = [(u, v) for u in range(2, n + 1) for v in range(u + 1, n + 1)]
    for k, (u, v) in enumerate(free):
        out[:, checks.edge_index(n, u, v)] = (idx >> (2 * k)) & 3
    return out


@lru_cache(maxsize=None)
def n6_family() -> tuple[np.ndarray, np.ndarray]:
    """Triangle masks and rare-class indexes of all 4^10 normalized n = 6 instances.

    The rare class is diversity 3 plus diversity 4 without an all-distinct
    K4: the instances that uniform traffic sends past the common
    ``case_beta`` branch.  Raises if the class sizes are not the known ones.
    """
    parts = []
    for start in range(0, 4 ** 10, 1 << 16):  # in slices: peak_rss_mb should show the library, not this table
        signs = normalized_signs(6, np.arange(start, start + (1 << 16)))
        parts.append((checks.triangle_masks(6, signs), checks.has_all_distinct_k4(6, signs)))
    masks = np.concatenate([m for m, _ in parts])
    k4 = np.concatenate([k for _, k in parts])
    diversity = checks.POPCOUNT4[masks]
    counts = {
        "diversity3": int((diversity == 3).sum()),
        "case_alpha": int(((diversity == 4) & ~k4).sum()),
        "diversity_le2": int((diversity <= 2).sum()),
    }
    if counts != N6_CLASS_COUNTS:
        raise RuntimeError(f"n = 6 class sizes {counts}, expected {N6_CLASS_COUNTS}")
    rare = np.nonzero((diversity == 3) | ((diversity == 4) & ~k4))[0]
    return masks, rare


@dataclass
class Instance:
    """One labeled K_n, with the benchmark's own triangle mask for checking."""

    n: int
    signs: bytes
    tri_mask: int
    graph: object = None  # SignedCompleteGraph, built outside timing

    def encode(self) -> dict:
        return {"n": self.n, "signs": self.signs.hex(), "tri_mask": self.tri_mask}

    @classmethod
    def decode(cls, data: dict) -> "Instance":
        return cls(data["n"], bytes.fromhex(data["signs"]), data["tri_mask"])

    def materialize(self, ds) -> None:
        self.graph = ds.SignedCompleteGraph(self.n, self.signs)


@dataclass
class Chunk:
    """One index range of the hub-normalized family, with rows to cross-check."""

    n: int
    start: int
    stop: int
    oracle_rows: tuple[int, ...]

    def encode(self) -> dict:
        return {"n": self.n, "start": self.start, "stop": self.stop,
                "oracle_rows": list(self.oracle_rows)}

    @classmethod
    def decode(cls, data: dict) -> "Chunk":
        return cls(data["n"], data["start"], data["stop"], tuple(data["oracle_rows"]))

    def materialize(self, ds) -> None:
        pass


def _instances(n: int, rows: np.ndarray, masks: Optional[np.ndarray] = None) -> list[Instance]:
    if masks is None:
        masks = checks.triangle_masks(n, rows)
    return [Instance(n, r.tobytes(), int(m)) for r, m in zip(rows, masks)]


def _uniform_n6(rng: np.random.Generator, size: int) -> list[Instance]:
    masks, _ = n6_family()
    idx = rng.integers(0, 4 ** 10, size=size)
    return _instances(6, normalized_signs(6, idx), masks[idx])


def _rare_n6(rng: np.random.Generator, size: int) -> list[Instance]:
    masks, rare = n6_family()
    idx = rare[rng.integers(0, len(rare), size=size)]
    return _instances(6, normalized_signs(6, idx), masks[idx])


def _uniform_n80(rng: np.random.Generator, size: int) -> list[Instance]:
    return _instances(80, rng.integers(0, 4, size=(size, 80 * 79 // 2), dtype=np.uint8))


def _oracle_n10(rng: np.random.Generator, size: int) -> list[Instance]:
    """Labels drawn from a random alphabet of 1 to 4 labels, so every
    diversity occurs and the law check has more than one case to hold."""
    rows = np.empty((size, 45), dtype=np.uint8)
    for r in rows:
        alphabet = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
        r[:] = rng.choice(alphabet, size=45).astype(np.uint8)
    return _instances(10, rows)


def _sweep_chunks(rng: np.random.Generator) -> Iterator[list[Chunk]]:
    """Distinct 65,536-row chunks of the 4^15 n = 7 family in seeded order,
    so no range repeats and the library's per-range result cache never hits."""
    for c in rng.permutation(4 ** 15 // SWEEP_ROWS):
        start = int(c) * SWEEP_ROWS
        rows = tuple(int(r) for r in rng.integers(0, SWEEP_ROWS, size=2))
        yield [Chunk(7, start, start + SWEEP_ROWS, rows)]


def _batches(gen: Callable, size: int) -> Callable[[np.random.Generator], Iterator[list]]:
    def batches(rng: np.random.Generator) -> Iterator[list]:
        while True:
            yield gen(rng, size)
    return batches


# -- calls and checkers ------------------------------------------------------

def _construct(ds, x: Instance):
    return ds.construct_witnesses(x.graph)


def _spectrum(ds, x: Instance):
    return ds.hamiltonian_spectrum(x.graph)


def _sweep(ds, x: Chunk):
    from doublesign import sweep
    return sweep.run_normalized_sweep(x.n, x.start, x.stop)


def check_solver(ds, x: Instance, out) -> Optional[str]:
    if isinstance(out, ds.RestrictedSpectrumError):
        return checks.check_refusal(x.n, x.tri_mask, out.prediction.values)
    if isinstance(out, BaseException):
        return f"unexpected {type(out).__name__}: {out}"
    if checks.POPCOUNT4[x.tri_mask] <= 2:
        return "witnesses returned at diversity <= 2"
    return checks.check_witness_set(x.n, x.signs, out)


def check_oracle(ds, x: Instance, out) -> Optional[str]:
    if isinstance(out, BaseException):
        return f"unexpected {type(out).__name__}: {out}"
    return checks.check_spectrum(x.n, x.tri_mask, out.counts, circle_count(x.n))


def check_sweep(ds, x: Chunk, out) -> Optional[str]:
    """All rows against the law; the chunk's sampled rows against the scalar oracle."""
    if isinstance(out, BaseException):
        return f"unexpected {type(out).__name__}: {out}"
    signs = normalized_signs(x.n, np.arange(x.start, x.stop))
    problem = checks.check_sweep(x.n, signs, out)
    if problem:
        return problem
    for r in x.oracle_rows:
        g = ds.SignedCompleteGraph(x.n, signs[r].tobytes())
        realized = checks.label_mask(ds.hamiltonian_spectrum(g).realized)
        if realized != out.spec_mask[r]:
            return f"row {x.start + r}: oracle {realized}, sweep {out.spec_mask[r]}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solver" | "sweep" | "oracle"
    n: int
    batches: Callable[[np.random.Generator], Iterator[list]]
    decode: Callable[[dict], object]
    call: Callable
    check: Callable
    setup_repeats: int  # fresh interpreters timed per run; setup_s is their median
    # The first prefix_calls calls of a run see the same seeded inputs at any
    # machine speed: branch counts (traced) and peak_rss_mb (untraced) are
    # taken over them, so neither depends on how many calls fit in the time.
    prefix_calls: int
    items_per_call: int  # rows or circles one call covers


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_n6", "solver", 6, _batches(_uniform_n6, 256), Instance.decode,
                 _construct, check_solver, 5, 4000, 1),
        Workload("solve_n6_rare", "solver", 6, _batches(_rare_n6, 256), Instance.decode,
                 _construct, check_solver, 5, 3000, 1),
        Workload("construct_n80", "solver", 80, _batches(_uniform_n80, 8), Instance.decode,
                 _construct, check_solver, 3, 100, 1),
        Workload("sweep_n7", "sweep", 7, _sweep_chunks, Chunk.decode,
                 _sweep, check_sweep, 5, 10, SWEEP_ROWS),
        Workload("oracle_n10", "oracle", 10, _batches(_oracle_n10, 1), Instance.decode,
                 _spectrum, check_oracle, 5, 4, circle_count(10)),
    )
}
