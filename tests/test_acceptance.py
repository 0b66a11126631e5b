"""Acceptance gate: the seven release criteria, one test each.

Every test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them live).  The exhaustive n=6 family and its full solver pass are the
heavy parts; they use the vectorized sweep, in one process, and a
process pool sized to the machine.
"""

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import doublesign as ds
from doublesign import lemma_lab
from doublesign.io_gen import instance_from_index, normalized_domain_size, random_sign_matrix
from doublesign.sweep import (
    allowed_spectrum_mask,
    analyze_sign_matrix,
    run_normalized_sweep,
)

JOBS = min(8, os.cpu_count() or 1)


def _report(number: int, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number}: PASS — {detail} ({elapsed:.1f}s)")


# -- criterion 4/5 workers (module level so the process pool can pickle) ----

def _solve_indices_n6(indices) -> tuple[int, list]:
    failures = 0
    masks = []
    for i in indices:
        g = instance_from_index(6, int(i))
        try:
            ws = ds.construct_witnesses(g)
            ds.verify_witness_set(g, ws)
        except Exception:
            failures += 1
            masks.append(0)
            continue
        masks.append(sum(1 << int(s) for s in ws.signs))
    return failures, masks


def _solve_random_n7(seeds) -> tuple[int, int]:
    failures = 0
    solved = 0
    for seed in seeds:
        g = ds.gen_random(7, int(seed))
        if ds.triangle_census(g).diversity < 3:
            continue
        try:
            ws = ds.construct_witnesses(g)
            ds.verify_witness_set(g, ws)
        except Exception:
            failures += 1
            continue
        if ws.signs != frozenset(ds.ELEMENTS):
            failures += 1
        solved += 1
    return failures, solved


def test_criterion_1_k4_exhaustive_suite():
    t0 = time.perf_counter()
    reports = [
        lemma_lab.verify("lemma14", "exhaustive_k4"),      # (a) sum to e, (b) pairing
        lemma_lab.verify("key_lemma", "exhaustive_k4"),    # (c) even path counts
        lemma_lab.verify("lemma4", "exhaustive_k4"),       # (d) multiset shapes
        lemma_lab.verify("lemma_same", "exhaustive_k4"),   # (e) equivalence
        lemma_lab.verify("thm11", "exhaustive_k4"),        # (e) biconditional
    ]
    elapsed = time.perf_counter() - t0
    for rep in reports:
        assert rep.passed, rep.violations[:3]
    assert reports[0].scanned == 4096
    assert reports[1].stats["sigma4star_count"] == 1536
    assert elapsed < 5.0, f"K4 suite took {elapsed:.2f}s (budget 5s)"
    _report(1, "4096 K4 labelings: sums, pairing, parity, shapes, equivalences", elapsed)


def test_criterion_2_group_identity_suite():
    t0 = time.perf_counter()
    r11 = lemma_lab.verify("lemma11", "exhaustive_group")
    r12 = lemma_lab.verify("lemma12", "exhaustive_group")
    elapsed = time.perf_counter() - t0
    assert r11.passed and r11.scanned == 48
    assert r12.passed and r12.scanned == 24
    assert elapsed < 1.0, f"group suite took {elapsed:.2f}s (budget 1s)"
    _report(2, "pair-sum coverage and collapse over all qualifying quadruples", elapsed)


def test_criterion_3_main_theorem_sweep_n6():
    t0 = time.perf_counter()
    sw = run_normalized_sweep(6)
    t_single = time.perf_counter() - t0
    assert t_single < 600.0, f"single-worker sweep took {t_single:.1f}s (budget 600s)"

    allowed = allowed_spectrum_mask(sw.tri_mask, 6)
    v_div1 = int(((sw.diversity == 1) & (sw.spec_mask != 1)).sum())
    v_div2 = int(((sw.diversity == 2) & ((sw.spec_mask & ~allowed) != 0)).sum())
    v_full = int(((sw.diversity >= 3) & (sw.spec_mask != 15)).sum())
    assert sw.size == normalized_domain_size(6) == 4 ** 10
    assert v_div1 == 0 and v_div2 == 0 and v_full == 0
    _report(3, f"all {sw.size} hub-normalized labelings obey the diversity spectrum law",
            t_single)


def test_criterion_4_solver_complete_over_n6_sweep():
    t0 = time.perf_counter()
    sw = run_normalized_sweep(6)
    indices = np.nonzero(sw.diversity >= 3)[0]
    chunks = np.array_split(indices, 16 * JOBS)
    failures = 0
    mask_parts = []
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        for nf, masks in pool.map(_solve_indices_n6, chunks):
            failures += nf
            mask_parts.extend(masks)
    witness_masks = np.array(mask_parts, dtype=np.uint8)
    assert failures == 0, f"{failures} instances failed construction/verification"
    assert len(witness_masks) == len(indices)

    # seeded subsample: witness label sets equal the oracle spectra exactly
    rng = np.random.default_rng(20250809)
    sample = rng.choice(len(indices), size=100_000, replace=False)
    mismatches = int((witness_masks[sample] != sw.spec_mask[indices[sample]]).sum())
    assert mismatches == 0, f"{mismatches} witness sets differ from oracle spectra"
    elapsed = time.perf_counter() - t0
    _report(
        4,
        f"witnesses built and verified on all {len(indices)} diversity-3+ instances; "
        "100000-sample oracle match exact",
        elapsed,
    )


def test_criterion_5_randomized_suite_n7():
    t0 = time.perf_counter()
    count = 100_000
    base_seed = 700_000
    seeds = range(base_seed, base_seed + count)
    signs = random_sign_matrix(7, seeds)
    batch = analyze_sign_matrix(7, signs)
    assert batch.spec_mask.shape == (count,)

    # prediction containment: diversity <= 2 bounded by the parity pair,
    # diversity >= 3 exactly full (n = 7 > 5)
    allowed = allowed_spectrum_mask(batch.tri_mask, 7)
    v_low = int(((batch.diversity <= 2) & ((batch.spec_mask & ~allowed) != 0)).sum())
    v_full = int(((batch.diversity >= 3) & (batch.spec_mask != 15)).sum())
    assert v_low == 0 and v_full == 0

    # the scalar prediction agrees with the oracle on a seeded subsample
    rng = random.Random(5)
    for seed in rng.sample(list(seeds), 400):
        g = ds.gen_random(7, seed)
        realized = {s for s in ds.ELEMENTS if batch.spec_mask[seed - base_seed] >> int(s) & 1}
        assert realized <= ds.predict_spectrum(g).values

    # solver success + verification on every diversity-3+ instance
    solver_seeds = [base_seed + i for i in np.nonzero(batch.diversity >= 3)[0]]
    chunks = np.array_split(np.array(solver_seeds), 16 * JOBS)
    failures = 0
    solved = 0
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        for nf, ns in pool.map(_solve_random_n7, chunks):
            failures += nf
            solved += ns
    assert failures == 0
    assert solved == len(solver_seeds)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"n=7 suite took {elapsed:.1f}s (budget 300s)"
    _report(
        5,
        f"{count} seeded n=7 instances: prediction containment exact, "
        f"solver verified on {solved} diversity-3+",
        elapsed,
    )


def test_criterion_6_switching_invariance():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for trial in range(10_000):
        n = rng.randint(4, 8)
        g = ds.gen_random(n, trial)
        zeta = {v: ds.F22(rng.randrange(4)) for v in g.vertices()}
        out = ds.apply_switching(g, zeta)
        k = rng.randint(3, n)
        circle = ds.Circle(rng.sample(range(1, n + 1), k))
        assert ds.walk_sign(out, circle) == ds.walk_sign(g, circle)
        assert ds.triangle_census(out).counts == ds.triangle_census(g).counts

        v = rng.randint(1, n)
        gn, _ = ds.normalize_at(g, v)
        for u in g.vertices():
            if u != v:
                assert gn.sign(u, v) == ds.F22.E
        for a in g.vertices():
            for b in range(a + 1, n + 1):
                if v not in (a, b):
                    assert gn.sign(a, b) == ds.triangle_sign(g, (a, b, v))
    elapsed = time.perf_counter() - t0
    _report(6, "10000 random switchings: circle labels and censuses exact", elapsed)


def test_criterion_7_count_fixtures():
    t0 = time.perf_counter()
    k4 = ds.named_instance("identity(4)")
    # 12 paths, each seen from both ends
    assert sum(len(ds.hamiltonian_paths_spectrum(k4, v)) for v in k4.vertices()) == 24
    assert ds.hamiltonian_spectrum(k4).total == 3
    assert ds.hamiltonian_spectrum(ds.named_instance("identity(6)")).total == 60
    assert ds.hamiltonian_spectrum(ds.named_instance("identity(7)")).total == 360
    elapsed = time.perf_counter() - t0
    _report(7, "12 K4 paths; 3 / 60 / 360 circles at n=4/6/7", elapsed)
