import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesign import (
    Circle,
    F22,
    Path,
    apply_switching,
    gen_random,
    named_instance,
    normalize_at,
    triangle_census,
    triangle_sign,
    walk_sign,
)


def test_identity_switching_is_a_fixed_point(share_vertex_k4):
    zeta = {v: F22.E for v in share_vertex_k4.vertices()}
    assert apply_switching(share_vertex_k4, zeta) == share_vertex_k4


def test_constant_switching_changes_no_edge(share_vertex_k4):
    zeta = {v: F22.A for v in share_vertex_k4.vertices()}
    assert apply_switching(share_vertex_k4, zeta) == share_vertex_k4


def test_switching_formula_spot_check(share_vertex_k4):
    zeta = {1: F22.A, 2: F22.B, 3: F22.E, 4: F22.C}
    out = apply_switching(share_vertex_k4, zeta)
    # a + b + b at edge (1, 2)
    assert out.sign(1, 2) == F22.A
    assert out.sign(3, 4) == F22.C ^ F22.A


def test_switching_requires_total_function(share_vertex_k4):
    with pytest.raises(ValueError, match="missing"):
        apply_switching(share_vertex_k4, {1: F22.A, 2: F22.B, 3: F22.E})


def test_normalize_documented_k4(share_vertex_k4):
    gn, zeta = normalize_at(share_vertex_k4, 4)
    assert all(gn.sign(u, 4) == F22.E for u in (1, 2, 3))
    # each remaining edge now carries its old triangle label through 4
    assert gn.sign(1, 2) == F22.B
    assert gn.sign(1, 3) == F22.C
    assert gn.sign(2, 3) == F22.E
    assert zeta[4] == F22.E and zeta[1] == share_vertex_k4.sign(1, 4)


def test_normalize_is_idempotent(share_vertex_k4):
    gn, _ = normalize_at(share_vertex_k4, 2)
    again, zeta = normalize_at(gn, 2)
    assert again == gn
    assert set(zeta.values()) == {F22.E}


def test_path_signs_are_not_switching_invariant():
    g = named_instance("identity(4)")
    zeta = {1: F22.A, 2: F22.E, 3: F22.E, 4: F22.E}
    out = apply_switching(g, zeta)
    p = Path((1, 2))
    assert walk_sign(g, p) == F22.E
    assert walk_sign(out, p) == F22.A  # the endpoint contributes once


@st.composite
def switching_case(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    g = gen_random(n, draw(st.integers(min_value=0, max_value=10_000)))
    zeta = {v: F22(draw(st.integers(min_value=0, max_value=3))) for v in g.vertices()}
    k = draw(st.integers(min_value=3, max_value=n))
    circle = Circle(draw(st.permutations(range(1, n + 1)))[:k])
    return g, zeta, circle


@given(switching_case())
@settings(max_examples=200, deadline=None)
def test_circle_signs_survive_any_switching(case):
    g, zeta, circle = case
    out = apply_switching(g, zeta)
    assert walk_sign(out, circle) == walk_sign(g, circle)


@given(switching_case())
@settings(max_examples=100, deadline=None)
def test_triangle_census_survives_any_switching(case):
    g, zeta, _ = case
    out = apply_switching(g, zeta)
    assert triangle_census(out).counts == triangle_census(g).counts


def test_normalized_edges_equal_old_triangle_labels_seeded():
    rng = random.Random(99)
    for trial in range(300):
        n = rng.randint(4, 8)
        g = gen_random(n, trial)
        v = rng.randint(1, n)
        gn, _ = normalize_at(g, v)
        for u in g.vertices():
            if u != v:
                assert gn.sign(u, v) == F22.E
        for a in g.vertices():
            for b in g.vertices():
                if a < b and v not in (a, b):
                    assert gn.sign(a, b) == triangle_sign(g, (a, b, v))


@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_switched_reads_match_the_normalized_graph(n, seed):
    # the solver reads edge u-v of normalize_at(g, h) as rows[u][v] ^ z[u] ^ z[v]
    # with z = rows[h], without building the normalized graph
    g = gen_random(n, seed)
    r = g.rows
    for h in g.vertices():
        z = r[h]
        gn = normalize_at(g, h)[0]
        for u in g.vertices():
            for v in g.vertices():
                assert r[u][v] ^ z[u] ^ z[v] == gn.rows[u][v]
