import pytest

from conftest import graph_from
from doublesign import (
    F22,
    TheoryViolationError,
    classify_k4,
    distinct_sign_edge_structure,
    find_consecutive_distinct_triple,
    gen_random,
    named_instance,
    triangle_census,
)
from doublesign.lemma_lab import k4_from_index


def test_census_identity_k6():
    c = triangle_census(named_instance("identity(6)"))
    assert c.counts == {F22.E: 20, F22.A: 0, F22.B: 0, F22.C: 0}
    assert c.diversity == 1 and c.total == 20


def test_census_documented_k4(share_vertex_k4):
    c = triangle_census(share_vertex_k4)
    assert c.counts == {F22.E: 1, F22.A: 1, F22.B: 1, F22.C: 1}
    assert c.diversity == 4


def test_classify_share_vertex(share_vertex_k4):
    k = classify_k4(share_vertex_k4, (1, 2, 3, 4))
    assert k.is_all_distinct
    assert k.common_triple is not None
    assert k.common_triple.sign == F22.A
    assert k.common_triple.shape == "star"
    assert k.common_triple.edges == frozenset({(1, 4), (2, 4), (3, 4)})


def test_classify_triangle_shape(triangle_k4):
    k = classify_k4(triangle_k4, (1, 2, 3, 4))
    assert k.is_all_distinct
    assert k.common_triple is not None
    assert k.common_triple.sign == F22.A
    assert k.common_triple.shape == "triangle"
    assert k.common_triple.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_classify_two_two_patterns():
    k = classify_k4(named_instance("identity(4)"), (1, 2, 3, 4))
    assert k.kind == "two_two" and k.pair == (F22.E, F22.E)
    g = graph_from(4, {(1, 2): "a"})
    k = classify_k4(g, (1, 2, 3, 4))
    assert k.kind == "two_two" and k.pair == (F22.E, F22.A)
    assert sorted(k.triangle_signs).count(F22.A) == 2


def test_classify_rejects_degenerate(share_vertex_k4):
    with pytest.raises(ValueError):
        classify_k4(share_vertex_k4, (1, 2, 3, 3))


def test_k4_triangle_signs_sum_to_identity_exhaustive():
    for index in range(4096):
        g = k4_from_index(index)
        total = 0
        for s in classify_k4(g, (1, 2, 3, 4)).triangle_signs:
            total ^= int(s)
        assert total == 0


def test_consecutive_triple_none_on_uniform():
    assert find_consecutive_distinct_triple(named_instance("identity(6)"), 1) is None


def test_consecutive_triple_lex_least():
    g = graph_from(6, {(2, 3): "a", (3, 4): "b", (4, 5): "c"}, default="a")
    assert find_consecutive_distinct_triple(g, 1) == (2, 3, 4, 5)


def test_consecutive_triple_postcondition_on_seeded_instances():
    from doublesign import triangle_sign

    for seed in range(200):
        g = gen_random(6, seed)
        got = find_consecutive_distinct_triple(g, 1)
        if got is None:
            continue
        a, b, c, d = got
        signs = {
            triangle_sign(g, (1, a, b)),
            triangle_sign(g, (1, b, c)),
            triangle_sign(g, (1, c, d)),
        }
        assert len(signs) == 3
        assert 1 not in {a, b, c, d}


def test_shared_edge_config_postcondition_on_diversity3_instances():
    import numpy as np

    from doublesign import ELEMENTS, instance_from_index, triangle_sign
    from doublesign.census import find_shared_edge_config
    from doublesign.sweep import run_normalized_sweep

    assert find_shared_edge_config(named_instance("identity(7)"), 1, ELEMENTS[:3]) is None
    found = 0
    for index in np.nonzero(run_normalized_sweep(6).diversity == 3)[0][::250]:
        g = instance_from_index(6, int(index))
        signs3 = sorted(triangle_census(g).signs)
        for hub in g.vertices():
            got = find_shared_edge_config(g, hub, signs3)
            if got is None:
                continue
            found += 1
            i, j, k, m, p = got
            t1 = triangle_sign(g, (hub, i, j))
            t2 = triangle_sign(g, (hub, j, k))
            assert t1 != t2
            assert triangle_sign(g, (hub, m, p)) == (set(signs3) - {t1, t2}).pop()
            assert m < p and len({hub, i, j, k, m, p}) == 6
    assert found


class TestDistinctSignEdgeStructure:
    def test_common_vertex_case(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 5): "c", (2, 6): "e", (5, 6): "e"}
        g = graph_from(6, labels, default="a")
        s = distinct_sign_edge_structure(g, 1)
        assert s.case == 1 and s.label == "common_vertex"
        assert s.edges_by_sign[F22.E] == (2, 6)
        assert s.edges_by_sign[F22.A] == (2, 3)

    def test_star_plus_attached_case(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 6): "e", (3, 5): "c", (4, 6): "e"}
        g = graph_from(6, labels, default="a")
        s = distinct_sign_edge_structure(g, 1)
        assert s.case == 2 and s.label == "star_plus_attached"

    def test_star_plus_disjoint_case(self):
        labels = {(1, v): "e" for v in range(2, 8)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 5): "c", (6, 7): "e", (3, 4): "a"}
        g = graph_from(7, labels, default="a")
        s = distinct_sign_edge_structure(g, 1)
        assert s.case == 3 and s.label == "star_plus_disjoint"

    def test_disjoint_paths_case(self):
        labels = {(1, v): "e" for v in range(2, 10)}
        labels |= {(2, 3): "a", (4, 5): "b", (6, 7): "c", (8, 9): "e"}
        g = graph_from(9, labels, default="a")
        s = distinct_sign_edge_structure(g, 1)
        assert s.case == 4 and s.label == "disjoint_paths"

    def test_cycle_raises_theory_violation(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (3, 4): "b", (4, 5): "c", (2, 5): "e"}
        g = graph_from(6, labels, default="a")
        with pytest.raises(TheoryViolationError):
            distinct_sign_edge_structure(g, 1)

    def test_missing_label_is_an_error(self):
        g = named_instance("identity(6)")
        with pytest.raises(ValueError, match="not realized"):
            distinct_sign_edge_structure(g, 1)
