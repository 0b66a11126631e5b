"""Golden corpus: library outputs must stay byte for byte what they were.

Each entry is a name and the SHA-256 prefix of a canonical JSON rendering
of one output: a witness set (trace, circles, labels) or the refusal
text of ``construct_witnesses``, a witness set of the shared-edge moves,
an oracle spectrum with witnesses, a claim report without its timing, or
one array of the n = 6 sweep.  A refactor passes only if every entry
comes out unchanged; a mismatch names the first entry that differs.

After an intended change of output, regenerate the data file with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from doublesign import (
    ELEMENTS,
    RestrictedSpectrumError,
    UnsupportedSizeError,
    construct_witnesses,
    gen_random,
    hamiltonian_spectrum,
    instance_from_index,
    lemma_ids,
    verify,
)
from doublesign.solver import _shared_edge_moves
from doublesign.sweep import run_normalized_sweep
from conftest import graph_from
from test_solver import (
    BRANCH_FIXTURES,
    SHARED_EDGE_CONFIG,
    SHARED_EDGE_FIXTURES,
    constant_bridge_fixture,
)

DATA = Path(__file__).with_name("golden_digests.json")

CLAIM_SCOPES = (
    "exhaustive_k4",
    "exhaustive_group",
    "exhaustive_normalized:5",
    "exhaustive_normalized:6",
    "random:6:30",
    "random:7:20",
)

SWEEP_ARRAYS = (
    "diversity", "tri_mask", "spec_mask", "sigma4star", "quad3", "edge_mask", "first_edge",
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _witness_payload(ws):
    return {
        "trace": ws.trace,
        "witnesses": [[list(c.vertices), s.render()] for c, s in ws.witnesses],
    }


def _construct_payload(g):
    try:
        ws = construct_witnesses(g)
    except (RestrictedSpectrumError, UnsupportedSizeError) as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}
    return _witness_payload(ws)


def _n6_indices() -> list[int]:
    """1,000 uniform draws plus 500 from the rare diversity-3 and
    diversity-4-without-an-all-distinct-K4 classes, all seeded."""
    rng = np.random.default_rng(20251)
    uniform = rng.integers(0, 4 ** 10, size=1000)
    sw = run_normalized_sweep(6)
    rare = np.nonzero((sw.diversity == 3) | ((sw.diversity == 4) & ~sw.sigma4star))[0]
    picked = rng.choice(rare, size=500, replace=False)
    return sorted({int(i) for i in uniform} | {int(i) for i in picked})


def _construct_entries():
    for index, _ in BRANCH_FIXTURES:
        yield f"fixture/{index}", _construct_payload(instance_from_index(6, index))
    # lemma_b/case2 and case_beta/case3b occur on none of the sampled inputs
    for subcase, labels in SHARED_EDGE_FIXTURES.items():
        ws = _shared_edge_moves(graph_from(6, labels), 1, SHARED_EDGE_CONFIG)
        yield f"shared_edge/subcase{subcase}", _witness_payload(ws)
    for n in (7, 9):
        yield f"constant_bridge/{n}", _construct_payload(constant_bridge_fixture(n))
    for index in _n6_indices():
        yield f"n6/{index}", _construct_payload(instance_from_index(6, index))
    for n in range(7, 13):
        for seed in range(80):
            yield f"random/{n}/{seed}", _construct_payload(gen_random(n, seed))


def _spectrum_entries():
    for n in range(6, 10):
        for seed in range(4):
            spec = hamiltonian_spectrum(gen_random(n, seed), witnesses=True)
            yield f"random/{n}/{seed}", {
                "counts": [spec.counts[s] for s in ELEMENTS],
                "witnesses": {s.render(): list(c.vertices) for s, c in spec.witnesses.items()},
            }


def _claim_entries():
    for lemma in lemma_ids():
        for scope in CLAIM_SCOPES:
            try:
                report = verify(lemma, scope)
            except ValueError as exc:
                yield f"{lemma}/{scope}", {"refused": str(exc)}
                continue
            payload = report.to_dict()
            del payload["elapsed_seconds"]
            yield f"{lemma}/{scope}", payload


def _sweep_entries():
    sw = run_normalized_sweep(6)
    for name in SWEEP_ARRAYS:
        arr = getattr(sw, name)
        yield name, {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest(),
        }


SECTIONS = {
    "construct": _construct_entries,
    "spectrum": _spectrum_entries,
    "claims": _claim_entries,
    "sweep": _sweep_entries,
}


def _section_digests(section: str) -> dict[str, str]:
    return {name: _digest(payload) for name, payload in SECTIONS[section]()}


@pytest.mark.parametrize("section", list(SECTIONS))
def test_golden_corpus_is_unchanged(section):
    expected = json.loads(DATA.read_text())[section]
    actual = _section_digests(section)
    for name in list(expected) + [k for k in actual if k not in expected]:
        assert actual.get(name) == expected.get(name), (
            f"golden {section} entry {name!r} differs: "
            f"expected {expected.get(name)}, got {actual.get(name)}"
        )


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({s: _section_digests(s) for s in SECTIONS}, indent=0) + "\n"
    )
