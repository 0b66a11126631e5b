import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesign import (
    Circle,
    F22,
    Path,
    SignedCompleteGraph,
    Triangle,
    build,
    circle_symmetric_difference,
    gen_random,
    named_instance,
    triangle_sign,
    walk_sign,
)


def test_build_identity_k3():
    g = build(3, [(1, 2, F22.E), (1, 3, F22.E), (2, 3, F22.E)])
    assert triangle_sign(g, (1, 2, 3)) == F22.E


def test_build_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        build(4, [(1, 2, F22.B), (2, 1, F22.B), (1, 3, F22.C), (1, 4, F22.A),
                  (2, 3, F22.E), (3, 4, F22.A), (2, 4, F22.A)])


def test_build_rejects_missing_edge():
    with pytest.raises(ValueError, match="missing edge"):
        build(3, [(1, 2, F22.E), (1, 3, F22.E)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        build(3, [(1, 2, F22.E), (1, 3, F22.E), (2, 5, F22.E)])


def test_sign_is_symmetric(share_vertex_k4):
    assert share_vertex_k4.sign(1, 2) == share_vertex_k4.sign(2, 1) == F22.B


def test_walk_sign_on_documented_k4(share_vertex_k4):
    # b + e + a + a around the 4-circle
    assert walk_sign(share_vertex_k4, Circle((1, 2, 3, 4))) == F22.B
    assert walk_sign(share_vertex_k4, Path((1, 4))) == F22.A


def test_walk_sign_identity_graph():
    g = named_instance("identity(6)")
    assert walk_sign(g, Circle((1, 4, 2, 6, 3, 5))) == F22.E
    assert walk_sign(g, Path((2, 5, 3))) == F22.E


def test_triangle_sign_examples(share_vertex_k4):
    assert triangle_sign(share_vertex_k4, (1, 2, 3)) == F22.A
    assert triangle_sign(share_vertex_k4, (2, 3, 4)) == F22.E
    with pytest.raises(ValueError):
        triangle_sign(share_vertex_k4, (1, 1, 2))


def test_circle_canonical_under_rotation_and_reflection():
    base = Circle((1, 2, 3, 4, 5))
    assert Circle((3, 4, 5, 1, 2)) == base
    assert Circle((5, 4, 3, 2, 1)) == base
    assert hash(Circle((2, 1, 5, 4, 3))) == hash(base)
    assert base.vertices[0] == 1 and base.vertices[1] < base.vertices[-1]


def test_circle_rejects_repeats_and_short():
    with pytest.raises(ValueError):
        Circle((1, 2, 1))
    with pytest.raises(ValueError):
        Circle((1, 2))


def test_path_canonical_under_reversal():
    assert Path((4, 2, 3)) == Path((3, 2, 4))
    assert Path((4, 2, 3)).vertices == (3, 2, 4)


def test_triangle_of_sorts_and_validates():
    assert Triangle.of(3, 1, 2) == Triangle(1, 2, 3)
    with pytest.raises(ValueError):
        Triangle.of(1, 1, 2)


def test_insertion_trivial_case():
    g = named_instance("identity(4)")
    out = circle_symmetric_difference(g, Circle((1, 2, 3)), Triangle.of(4, 1, 2))
    assert out == Circle((1, 4, 2, 3))
    assert walk_sign(g, out) == F22.E


def test_insertion_validates_membership():
    g = named_instance("identity(5)")
    h = Circle((1, 2, 3, 4))
    with pytest.raises(ValueError, match="not on the circle"):
        circle_symmetric_difference(g, h, Triangle.of(5, 1, 3))
    with pytest.raises(ValueError, match="off the circle"):
        circle_symmetric_difference(g, h, Triangle.of(2, 3, 4))


@st.composite
def graph_and_circle(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    g = gen_random(n, draw(st.integers(min_value=0, max_value=10_000)))
    k = draw(st.integers(min_value=3, max_value=n))
    vertices = draw(st.permutations(range(1, n + 1)))[:k]
    return g, vertices


@given(graph_and_circle())
@settings(max_examples=150, deadline=None)
def test_walk_sign_invariant_under_rotation_and_reversal(gc):
    g, vs = gc
    base = walk_sign(g, Circle(vs))
    assert walk_sign(g, Circle(vs[2:] + vs[:2])) == base
    assert walk_sign(g, Circle(tuple(reversed(vs)))) == base


@given(graph_and_circle(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_insertion_shifts_sign_by_the_triangle(gc, pick):
    g, vs = gc
    outside = [v for v in g.vertices() if v not in vs]
    if not outside:
        return
    h = Circle(vs)
    v = outside[pick % len(outside)]
    edges = list(h.edges())
    i, j = edges[pick % len(edges)]
    t = Triangle.of(v, i, j)
    out = circle_symmetric_difference(g, h, t)
    assert len(out) == len(h) + 1
    assert walk_sign(g, out) == walk_sign(g, h) ^ triangle_sign(g, t)


@st.composite
def any_graph(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = n * (n - 1) // 2
    return SignedCompleteGraph.from_signs(
        n, draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    )


@given(any_graph())
@settings(max_examples=60, deadline=None)
def test_row_table_is_symmetric_and_matches_sign(g):
    rows = g.rows
    for u in g.vertices():
        assert rows[u][u] == 0
        for v in g.vertices():
            if u != v:
                assert rows[u][v] == rows[v][u] == g.sign(u, v)


@pytest.mark.parametrize("bad", [0, -1, 7])
def test_single_label_readers_reject_out_of_range_vertices(bad):
    g = gen_random(6, 1)
    with pytest.raises(ValueError, match="out of range"):
        g.sign(bad, 2)
    with pytest.raises(ValueError, match="out of range"):
        g.sign(2, bad)
    with pytest.raises(ValueError, match="out of range"):
        walk_sign(g, Circle((1, 2, bad)))
    with pytest.raises(ValueError, match="out of range"):
        walk_sign(g, Path((bad, 3)))
    with pytest.raises(ValueError, match="out of range"):
        triangle_sign(g, (1, bad, 3))
