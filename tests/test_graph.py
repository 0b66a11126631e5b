import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesign import (
    Circle,
    F22,
    Path,
    SignedCompleteGraph,
    build,
    gen_random,
    named_instance,
    triangle_sign,
    walk_sign,
)


def test_build_identity_k3():
    g = build(3, [(1, 2, F22.E), (1, 3, F22.E), (2, 3, F22.E)])
    assert triangle_sign(g, (1, 2, 3)) == F22.E


@pytest.mark.parametrize("bad", [4, 255])
def test_constructor_rejects_labels_outside_the_group(bad):
    with pytest.raises(ValueError, match=f"edge label {bad} outside 0..3"):
        SignedCompleteGraph(3, bytes([bad, 0, 0]))
    with pytest.raises(ValueError, match=f"edge label {bad} outside 0..3"):
        SignedCompleteGraph.from_signs(4, [0, 1, 2, 3, 0, bad])


@pytest.mark.parametrize("signs", [bytearray(6), memoryview(bytes(6)), [0] * 6, (0,) * 6])
def test_constructor_takes_only_immutable_bytes(signs):
    # a mutable buffer would let edges() and serialize drift from rows and sign()
    with pytest.raises(TypeError, match="signs must be bytes"):
        SignedCompleteGraph(4, signs)
    buf = bytearray(6)
    g = SignedCompleteGraph.from_signs(4, buf)
    buf[0] = 1
    assert g.sign(1, 2) == F22.E and next(g.edges()) == (1, 2, F22.E)
    assert hash(g) == hash(SignedCompleteGraph(4, bytes(6)))


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
    vs = h.vertices
    k = pick % len(vs)
    # v replaces the circle edge vs[k]-vs[k+1], the last one closing to vs[0]
    out = Circle(vs[: k + 1] + (v,) + vs[k + 1 :])
    t = (v, vs[k], vs[(k + 1) % len(vs)])
    assert len(out.vertices) == len(h.vertices) + 1
    assert walk_sign(g, out) == walk_sign(g, h) ^ triangle_sign(g, t)


def test_decompose_sign_sum_matches_walk_sign_on_seeded_instances():
    # A Hamiltonian circle is the sum of the n - 2 hub triangles along it:
    # every chord from the hub lies in exactly two of them.
    import random

    rng = random.Random(20240810)
    for trial in range(1000):
        g = gen_random(7, trial)
        perm = list(range(2, 8))
        rng.shuffle(perm)
        h = Circle((1, *perm))
        hub = rng.randint(1, 7)
        k = h.vertices.index(hub)
        order = h.vertices[k:] + h.vertices[:k]
        total = F22.E
        for u, v in zip(order[1:], order[2:]):
            total ^= triangle_sign(g, (hub, u, v))
        assert total == walk_sign(g, h)


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=9, unique=True))
@settings(max_examples=150, deadline=None)
def test_circle_canonical_form_over_all_rotations_and_reflections(order):
    vs = tuple(order)
    c = Circle(vs)
    assert c.vertices[0] == min(vs) and c.vertices[1] < c.vertices[-1]
    assert sorted(c.vertices) == sorted(vs)
    for turned in (vs, vs[::-1]):
        for k in range(len(vs)):
            other = Circle(turned[k:] + turned[:k])
            assert other == c and other.vertices == c.vertices and hash(other) == hash(c)


@st.composite
def graph_and_order(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    g = gen_random(n, draw(st.integers(min_value=0, max_value=10_000)))
    k = draw(st.integers(min_value=3, max_value=n))
    return g, draw(st.permutations(range(1, n + 1)))[:k]


@given(graph_and_order())
@settings(max_examples=150, deadline=None)
def test_walk_sign_is_the_plain_edge_sum(gc):
    # a circle's sum includes its closing edge; a path's does not
    g, vs = gc
    open_sum = F22.E
    for u, v in zip(vs, vs[1:]):
        open_sum ^= g.sign(u, v)
    assert walk_sign(g, Path(vs)) == open_sum
    assert walk_sign(g, Circle(vs)) == open_sum ^ g.sign(vs[-1], vs[0])


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
    # walk_sign names n wherever the vertex sits; read unchecked, a
    # negative index would return another row's label
    for vs in ((1, 2, bad), (bad, 2, 3, 4), (1, bad, 3, 4), (5, 2, 3, bad)):
        for walk in (Circle(vs), Path(vs)):
            with pytest.raises(ValueError, match="out of range for n=6: "):
                walk_sign(g, walk)
    with pytest.raises(ValueError, match="out of range"):
        triangle_sign(g, (1, bad, 3))

