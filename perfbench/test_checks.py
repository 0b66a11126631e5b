"""The benchmark's checkers catch corrupted outputs, and the loop counts them.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from dataclasses import replace

import numpy as np
import pytest

import checks
import run
import workloads as W

ds = run.import_library()


def _loop(name: str, seed: int = 7):
    w = W.WORKLOADS[name]
    return w, run.Loop(ds, w, w.batches(np.random.default_rng(seed)), [])


def _failures(name: str, corrupt, calls: int) -> run.Loop:
    """Run ``calls`` real calls whose outputs ``corrupt`` rewrites."""
    w, loop = _loop(name)
    loop.run(0, lambda x: corrupt(x, run.checked_call(ds, w, x)), min_calls=calls)
    return loop


def _swap_labels(ws):
    (c0, s0), (c1, s1), *rest = ws.witnesses
    return replace(ws, witnesses=((c0, s1), (c1, s0), *rest))


def _shorten_circle(ws):
    (c0, s0), *rest = ws.witnesses
    return replace(ws, witnesses=((ds.Circle(c0.vertices[:-1]), s0), *rest))


def test_real_outputs_pass():
    for name in ("solve_n6", "solve_n6_rare", "oracle_n10"):
        loop = _failures(name, lambda x, out: out, 3)
        assert loop.attempted >= 3 and loop.failures == [], name


@pytest.mark.parametrize("corrupt", [_swap_labels, _shorten_circle])
def test_corrupted_witness_sets_count_as_failures(corrupt):
    loop = _failures(
        "solve_n6_rare", lambda x, out: corrupt(out), 300
    )
    assert loop.attempted > 0
    assert len(loop.failures) == loop.attempted  # the rare class is never refused


def test_refusal_above_diversity_two_is_a_failure():
    w, loop = _loop("solve_n6_rare")
    x = next(w.batches(np.random.default_rng(1)))[0]
    x.materialize(ds)
    fake = ds.RestrictedSpectrumError(ds.SpectrumPrediction("full", frozenset(ds.ELEMENTS), ""))
    loop.judge(x, fake)
    assert loop.failures and "refused at diversity" in loop.failures[0]


def test_unexpected_exception_is_a_failure():
    loop = _failures("solve_n6", lambda x, out: RuntimeError("boom"), 1)
    assert len(loop.failures) == loop.attempted and "RuntimeError" in loop.failures[0]


def test_corrupted_spectrum_counts_as_failure():
    def move_one(x, sp):
        counts = dict(sp.counts)
        counts[ds.F22.E] += 1
        return ds.Spectrum(counts)

    def drop_label(x, sp):
        counts = dict(sp.counts)
        gone = max(counts, key=counts.get)
        keep = next(s for s in counts if s != gone)
        counts[keep] += counts[gone]
        counts[gone] = 0
        return ds.Spectrum(counts)

    for corrupt in (move_one, drop_label):
        loop = _failures("oracle_n10", corrupt, 1)
        assert len(loop.failures) == loop.attempted == 1, corrupt.__name__


def test_corrupted_sweep_row_counts_as_failure():
    def flip(x, result):
        spec = result.spec_mask.copy()
        spec[12345] ^= 1
        return replace(result, spec_mask=spec)

    loop = _failures("sweep_n7", flip, 1)
    assert loop.failures == ["1 rows break the diversity law"]


def test_law_matches_the_known_small_cases():
    # n = 6: two labels x, y give {e, x + y}; one label x gives {e}.
    assert checks.law_mask(6, 0b0110) == 0b1001
    assert checks.law_mask(6, 0b0100) == 0b0001
    # n = 7: two labels give themselves; one label x gives {x}.
    assert checks.law_mask(7, 0b0110) == 0b0110
    assert checks.law_mask(7, 0b0100) == 0b0100
    assert checks.law_mask(7, 0b0111) == 15


def test_rare_class_sizes_and_seeded_inputs_repeat():
    masks, rare = W.n6_family()
    assert len(rare) == W.N6_CLASS_COUNTS["diversity3"] + W.N6_CLASS_COUNTS["case_alpha"]
    a = next(W.WORKLOADS["solve_n6_rare"].batches(np.random.default_rng(3)))
    b = next(W.WORKLOADS["solve_n6_rare"].batches(np.random.default_rng(3)))
    assert [x.signs for x in a] == [x.signs for x in b]
    assert all(checks.POPCOUNT4[x.tri_mask] >= 3 for x in a)
