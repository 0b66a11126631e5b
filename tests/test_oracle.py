import numpy as np
import pytest

from conftest import graph_from
from doublesign import (
    Circle,
    F22,
    Path,
    gen_random,
    hamiltonian_paths_spectrum,
    hamiltonian_spectrum,
    k4_path_report,
    named_instance,
    walk_sign,
)
from doublesign.lemma_lab import _canonical_sigma4star, k4_from_index
from doublesign.oracle import hamiltonian_circle_count, hamiltonian_circles


def test_circle_counts():
    assert hamiltonian_circle_count(4) == 3
    assert hamiltonian_circle_count(6) == 60
    assert hamiltonian_circle_count(7) == 360
    assert sum(1 for _ in hamiltonian_circles(6)) == 60


def test_identity_k6_spectrum():
    spec = hamiltonian_spectrum(named_instance("identity(6)"))
    assert spec.counts == {F22.E: 60, F22.A: 0, F22.B: 0, F22.C: 0}
    assert spec.realized == {F22.E}


def test_documented_k4_spectrum(share_vertex_k4):
    spec = hamiltonian_spectrum(share_vertex_k4, witnesses=True)
    assert spec.total == 3
    assert spec.counts == {F22.E: 0, F22.A: 1, F22.B: 1, F22.C: 1}
    # the three circles in enumeration order carry b, a, c
    assert spec.witnesses[F22.B] == Circle((1, 2, 3, 4))
    assert spec.witnesses[F22.A] == Circle((1, 2, 4, 3))
    assert spec.witnesses[F22.C] == Circle((1, 3, 2, 4))


def test_two_label_k6_spectrum_obeys_parity_pair():
    labels = {(1, v): "e" for v in range(2, 7)}
    labels |= {(2, 3): "a", (2, 4): "b"}
    g = graph_from(6, labels, default="a")
    from doublesign import triangle_census

    assert triangle_census(g).signs == {F22.A, F22.B}
    assert hamiltonian_spectrum(g).realized <= {F22.E, F22.C}


def test_enumeration_bound_guard():
    g = named_instance("identity(6)")
    with pytest.raises(ValueError, match="enumeration bound"):
        hamiltonian_spectrum(g, bound=5)
    assert hamiltonian_spectrum(g, bound=6).total == 60


def test_path_multiset_from_start(share_vertex_k4):
    assert hamiltonian_paths_spectrum(share_vertex_k4, 1) == (
        F22.E, F22.E, F22.B, F22.B, F22.C, F22.C,
    )
    g5 = named_instance("identity(5)")
    assert hamiltonian_paths_spectrum(g5, 3) == (F22.E,) * 24


def test_k4_path_report(share_vertex_k4):
    rep = k4_path_report(share_vertex_k4)
    assert sum(rep.totals.values()) == 12
    assert rep.totals[F22.A] == 0  # no path carries the triple's label
    assert all(c % 2 == 0 for c in rep.totals.values())
    assert rep.per_start[1] == (F22.E, F22.E, F22.B, F22.B, F22.C, F22.C)
    assert all(len(ms) == 6 for ms in rep.per_start.values())
    for group in rep.groups:
        assert len(group.paths) == 4
        covered = {v for pair in group.endpoint_pairs for v in pair}
        assert covered == {1, 2, 3, 4}


def test_k4_path_report_requires_n4():
    with pytest.raises(ValueError):
        k4_path_report(named_instance("identity(5)"))


def test_path_multiset_shapes_on_all_distinct_k4s():
    # spot-check 300 all-distinct K4s: 2+2+2 or 3+1+1+1
    seen = 0
    for index in range(4096):
        g = k4_from_index(index)
        if _canonical_sigma4star(g) is None:
            continue
        seen += 1
        ms = hamiltonian_paths_spectrum(g, 1)
        values = sorted(set(ms))
        counts = sorted(ms.count(v) for v in values)
        assert counts in ([2, 2, 2], [1, 1, 1, 3])
        if seen >= 300:
            break
    assert seen == 300


def test_deleting_an_edge_shifts_by_that_edge(share_vertex_k4):
    g = share_vertex_k4
    for circle in (Circle((1, 2, 3, 4)), Circle((1, 2, 4, 3)), Circle((1, 3, 2, 4))):
        vs = circle.vertices
        for k in range(4):
            u, v = vs[k], vs[(k + 1) % 4]
            path = Path(vs[k + 1 :] + vs[: k + 1])
            assert walk_sign(g, path) == walk_sign(g, circle) ^ g.sign(u, v)


def test_spectrum_invariance_under_switching_and_relabeling():
    import random

    from doublesign import F22 as F
    from doublesign import apply_switching, build

    rng = random.Random(3)
    for seed in range(25):
        g = gen_random(6, seed)
        zeta = {v: F(rng.randrange(4)) for v in g.vertices()}
        assert hamiltonian_spectrum(apply_switching(g, zeta)).counts == hamiltonian_spectrum(g).counts
        perm = list(range(1, 7))
        rng.shuffle(perm)
        relabeled = build(
            6,
            [(perm[u - 1], perm[v - 1], s) for u, v, s in g.edges()],
        )
        assert hamiltonian_spectrum(relabeled).counts == hamiltonian_spectrum(g).counts


def test_vectorized_sweep_matches_scalar_oracle():
    from doublesign import instance_from_index, triangle_census
    from doublesign.sweep import run_normalized_sweep, signs_from_indices

    sw = run_normalized_sweep(5)
    rng = np.random.default_rng(11)
    for i in rng.integers(0, sw.size, 120):
        g = instance_from_index(5, int(i))
        c = triangle_census(g)
        assert sw.diversity[i] == c.diversity
        assert sw.tri_mask[i] == sum(1 << int(s) for s in c.signs)
        spec = hamiltonian_spectrum(g)
        assert sw.spec_mask[i] == sum(1 << int(s) for s in spec.realized)
    rows = signs_from_indices(5, np.array([0, 17, 4095]))
    for row, idx in zip(rows, (0, 17, 4095)):
        assert bytes(row) == instance_from_index(5, idx)._signs
