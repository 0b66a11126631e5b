from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from conftest import graph_from
from doublesign import (
    ELEMENTS,
    F22,
    apply_switching,
    classify_k4,
    find_consecutive_distinct_triple,
    gen_random,
    instance_from_index,
    named_instance,
    triangle_census,
    triangle_sign,
)
from doublesign import census, solver
from doublesign.census import distinct_sign_edges, first_all_distinct_k4
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


def _check_chained_triples(g):
    # None at a hub exactly when the instance has at most two triangle
    # labels; otherwise three chained hub triangles with distinct labels
    diversity = triangle_census(g).diversity
    for hub in g.vertices():
        got = find_consecutive_distinct_triple(g, hub)
        assert (got is None) == (diversity <= 2), (hub, diversity)
        if got is None:
            continue
        a, b, c, d = got
        assert len({hub, a, b, c, d}) == 5
        chained = {triangle_sign(g, (hub, a, b)), triangle_sign(g, (hub, b, c)),
                   triangle_sign(g, (hub, c, d))}
        assert len(chained) == 3


def test_consecutive_triple_postcondition_on_seeded_instances():
    rng = np.random.default_rng(12)
    for seed in range(200):
        _check_chained_triples(gen_random(6, seed))
    # edge labels from two elements give triangle labels from those two
    for n in range(6, 10):
        for _ in range(5):
            pair = rng.choice(list("eabc"), size=2, replace=False)
            labels = {(u, w): str(rng.choice(pair)) for u, w in combinations(range(1, n + 1), 2)}
            g = graph_from(n, labels)
            assert triangle_census(g).diversity <= 2
            _check_chained_triples(g)


def _planted_two_block(n, rng):
    # normalized at hub 1, so edge u-w carries T(1, u, w): labels x or y
    # inside each of two blocks of the other vertices, z between them
    x, y, z = (str(t) for t in rng.choice(list("eabc"), size=3, replace=False))
    others = [int(v) for v in rng.permutation(range(2, n + 1))]
    cut = int(rng.integers(1, n - 1))  # both blocks non-empty
    block = {v: i < cut for i, v in enumerate(others)}
    return graph_from(n, {
        (u, w): str(rng.choice([x, y])) if block[u] == block[w] else z
        for u, w in combinations(others, 2)
    })


def test_consecutive_triple_at_every_hub_of_planted_two_block_inputs():
    rng = np.random.default_rng(2026)
    for n in range(7, 13):
        for _ in range(8):
            g = _planted_two_block(n, rng)
            assert triangle_census(g).diversity == 3
            _check_chained_triples(g)


def test_every_three_colouring_of_k5_has_a_rainbow_path():
    # Step 3 of the proof in find_consecutive_distinct_triple: colour the
    # ten edges of K_5 with 0, 1, 2 in every way; each colouring that uses
    # all three colours has a path a-b-c-d whose edges differ pairwise.
    def rainbow_paths(m, colour):
        pos = {e: i for i, e in enumerate(combinations(range(m), 2))}
        found = np.zeros(len(colour), dtype=bool)
        for a, b, c, d in permutations(range(m), 4):
            p, q, r = (colour[:, pos[min(u, v), max(u, v)]] for u, v in ((a, b), (b, c), (c, d)))
            found |= (p != q) & (q != r) & (p != r)
        return found

    codes = np.arange(3 ** 10)
    colour = np.stack([codes // 3 ** i % 3 for i in range(10)], axis=1)
    uses_all = (colour == 0).any(axis=1) & (colour == 1).any(axis=1) & (colour == 2).any(axis=1)
    assert uses_all.sum() == 55_980
    assert (rainbow_paths(5, colour) == uses_all).all()
    # K_4 falls short: one colour per perfect matching leaves no rainbow path
    matchings = np.array([[0, 1, 2, 2, 1, 0]])  # edges 01 02 03 12 13 23
    assert not rainbow_paths(4, matchings).any()


def test_every_vertex_of_a_k5_with_an_all_distinct_k4_lies_on_one():
    # The K5 lemma.  It is local to five vertices and switching keeps
    # triangle labels, so the hub-normalized n = 5 family proves it at
    # every n; hence first_all_distinct_k4 scans only the K4s through 1.
    found = 0
    for index in range(4 ** 6):
        g = instance_from_index(5, index)
        quads = [q for q in combinations(range(1, 6), 4) if classify_k4(g, q).is_all_distinct]
        assert first_all_distinct_k4(g) == (quads[0] if quads else None)
        if quads:
            found += 1
            assert all(any(v in q for q in quads) for v in g.vertices())
    assert found == 3360


def _case_alpha_input(n, rng):
    # hub 1 normalized; vertices 2..n split into three parts, inside edges
    # labelled e, a, c by part and cross edges b: diversity 4 without a
    # rainbow hub triangle, so no all-distinct K4; then a random switching
    part = {v: int(rng.integers(3)) for v in range(2, n + 1)}
    g = graph_from(n, {
        (u, w): "eac"[part[u]] if part[u] == part[w] else "b"
        for u, w in combinations(range(2, n + 1), 2)
    })
    return apply_switching(g, {v: ELEMENTS[int(rng.integers(4))] for v in g.vertices()})


def test_first_all_distinct_k4_reads_only_the_k4s_through_vertex_1(monkeypatch):
    g = _case_alpha_input(30, np.random.default_rng(31))
    assert triangle_census(g).diversity == 4
    keyed = []
    k4_key = census.k4_key
    monkeypatch.setattr(census, "k4_key", lambda rows, qs: keyed.append(qs) or k4_key(rows, qs))
    assert first_all_distinct_k4(g) is None
    assert len(keyed) == comb(29, 3) and all(q[0] == 1 for q in keyed)


class TestDistinctSignEdges:
    # the least edge per label off hub 1, and the case the solver reads off them
    def test_common_vertex_case(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 5): "c", (2, 6): "e", (5, 6): "e"}
        g = graph_from(6, labels, default="a")
        edges = distinct_sign_edges(g, 1)
        assert list(edges) == list(ELEMENTS)
        assert edges[F22.E] == (2, 6)
        assert edges[F22.A] == (2, 3)
        assert solver._four_sign_path(g, 1)[0] == 1

    def test_star_plus_attached_case(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 6): "e", (3, 5): "c", (4, 6): "e"}
        g = graph_from(6, labels, default="a")
        assert solver._four_sign_path(g, 1)[0] == 2

    def test_star_plus_disjoint_case(self):
        labels = {(1, v): "e" for v in range(2, 8)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 5): "c", (6, 7): "e", (3, 4): "a"}
        g = graph_from(7, labels, default="a")
        assert solver._four_sign_path(g, 1)[0] == 3

    def test_disjoint_paths_case(self):
        labels = {(1, v): "e" for v in range(2, 10)}
        labels |= {(2, 3): "a", (4, 5): "b", (6, 7): "c", (8, 9): "e"}
        g = graph_from(9, labels, default="a")
        assert solver._four_sign_path(g, 1)[0] == 4

    def test_cycle_is_a_value_error(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (3, 4): "b", (4, 5): "c", (2, 5): "e"}
        g = graph_from(6, labels, default="a")
        with pytest.raises(ValueError, match="contain a cycle"):
            solver._four_sign_path(g, 1)

    def test_missing_label_is_an_error(self):
        g = named_instance("identity(6)")
        with pytest.raises(ValueError, match="not realized"):
            distinct_sign_edges(g, 1)
        with pytest.raises(ValueError, match="not realized"):
            solver._four_sign_path(g, 1)


def _plain_k4_decisions(key):
    """The K4-local decisions of the case machine for one 12-bit pattern,
    with the triangle labels 012, 013, 023, 123 and whether they are all
    distinct, enumerated from their definitions on local vertices 0..3."""
    label = {}
    for k, (u, v) in enumerate(combinations(range(4), 2)):
        label[u, v] = label[v, u] = (key >> 2 * k) & 3
    edges = list(combinations(range(4), 2))

    triple = None
    for s in range(4):
        carrying = [e for e in edges if label[e] == s]
        if len(carrying) != 3:
            continue
        touched = [w for e in carrying for w in e]
        if any(touched.count(w) == 3 for w in range(4)):
            triple = (s, "star", frozenset(carrying))
            break
        if len(set(touched)) == 3:
            triple = (s, "triangle", frozenset(carrying))
            break

    paths = []
    for start in range(4):
        least = {}
        for rest in sorted(permutations(set(range(4)) - {start})):
            walk = (start, *rest)
            s = label[walk[0], walk[1]] ^ label[walk[1], walk[2]] ^ label[walk[2], walk[3]]
            least.setdefault(s, walk)
        paths.append(tuple(least.get(s) for s in range(4)))

    frame = panel = None
    for v1, v2, v3, v4 in sorted(permutations(range(4))):
        x = label[v1, v2] ^ label[v1, v3] ^ label[v2, v3]
        y = label[v1, v3] ^ label[v1, v4] ^ label[v3, v4]
        shifts = {x ^ label[v1, v4], y ^ label[v3, v4], y ^ label[v1, v3], y ^ label[v1, v2]}
        if x != y and len(shifts) == 4:
            frame = (v1, v2, v3, v4)
            same = sum(label[e] == label[v1, v4] for e in edges)
            panel = {3: "left_panel", 4: "right_panel"}.get(same)
            break
    tris = tuple(label[a, b] ^ label[a, c] ^ label[b, c] for a, b, c in combinations(range(4), 3))
    return triple, tuple(paths), frame, panel, tris, len(set(tris)) == 4


def test_k4_pattern_table_matches_plain_enumeration_on_every_key():
    from doublesign.census import k4_pattern

    for key in range(4096):
        triple, paths, frame, panel, tris, all_distinct = _plain_k4_decisions(key)
        got = k4_pattern(key)
        assert got.tris == tris and all(isinstance(t, F22) for t in got.tris), key
        assert got.all_distinct is all_distinct, key
        if triple is None:
            assert got.triple is None, key
        else:
            assert (got.triple.sign, got.triple.shape, got.triple.edges) == triple, key
            assert isinstance(got.triple.sign, F22)
        assert got.paths == paths, key
        assert (got.frame, got.panel) == (frame, panel), key
    for key in (-1, 4096):
        with pytest.raises(ValueError, match="outside 0..4095"):
            k4_pattern(key)
    assert k4_pattern.cache_info().currsize <= 4096


def test_k4_patterns_share_their_path_rows():
    # 1,648 distinct per-start rows occur over the 4,096 keys; equal rows
    # are one object, so the full table holds no more than that
    from doublesign.census import k4_pattern

    k4_pattern.cache_clear()
    rows = [row for key in range(4096) for row in k4_pattern(key).paths]
    assert len({id(row) for row in rows}) == len(set(rows)) <= 1648


def test_k4_lookups_map_back_through_the_sorted_quad():
    # the common-label triple under a switching, on quads of larger
    # graphs, against the same enumeration over the switched labels
    from doublesign.census import k4_key, k4_pattern

    rng = np.random.default_rng(7)
    for seed in range(200):
        g = gen_random(9, seed)
        quad = tuple(int(v) for v in rng.permutation(np.arange(1, 10))[:4])
        z = g.rows[int(rng.integers(1, 10))]
        qs = sorted(quad)
        key = sum(
            (g.rows[u][v] ^ z[u] ^ z[v]) << 2 * k for k, (u, v) in enumerate(combinations(qs, 2))
        )
        expected = _plain_k4_decisions(key)[0]
        got = k4_pattern(k4_key(g.rows, qs, z)).triple
        if expected is None:
            assert got is None
        else:
            s, shape, local = expected
            got = got.on(qs)
            assert (got.sign, got.shape) == (s, shape)
            assert got.edges == frozenset((qs[u], qs[v]) for u, v in local)
