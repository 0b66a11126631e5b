import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from
from doublesign import (
    Circle,
    ELEMENTS,
    F22,
    Path,
    RestrictedSpectrumError,
    UnsupportedSizeError,
    CaseNotApplicableError,
    WitnessSet,
    WitnessVerificationError,
    apply_switching,
    build_from_four_sign_path,
    construct_witnesses,
    distinct_sign_edge_structure,
    gen_random,
    hamiltonian_spectrum,
    instance_from_index,
    named_instance,
    necklace_construct,
    normalize_at,
    predict_spectrum,
    triangle_census,
    verify_witness_set,
    walk_sign,
)
from doublesign.solver import _shared_edge_moves


class TestPredictSpectrum:
    def test_uniform_even_n_is_identity_singleton(self):
        p = predict_spectrum(named_instance("identity(6)"))
        assert p.kind == "singleton" and p.values == {F22.E}

    def test_uniform_label_odd_n_is_that_label(self):
        g = graph_from(7, {(1, v): "e" for v in range(2, 8)}, default="a")
        assert triangle_census(g).diversity == 1
        p = predict_spectrum(g)
        assert p.kind == "singleton" and p.values == {F22.A}

    def test_two_labels_odd_n(self):
        labels = {(1, v): "e" for v in range(2, 8)}
        labels |= {(2, 3): "b"}
        g = graph_from(7, labels, default="a")
        assert triangle_census(g).signs == {F22.A, F22.B}
        p = predict_spectrum(g)
        assert p.kind == "parity_pair" and p.values == {F22.A, F22.B}

    def test_two_labels_even_n(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "b"}
        g = graph_from(6, labels, default="a")
        p = predict_spectrum(g)
        assert p.kind == "parity_pair" and p.values == {F22.E, F22.C}

    def test_diversity_three_and_four_are_full(self):
        g3 = graph_from(
            6,
            {(1, v): "e" for v in range(2, 7)}
            | {(2, 3): "a", (3, 4): "b", (4, 5): "c", (2, 4): "b", (3, 5): "b",
               (2, 5): "b"},
            default="b",
        )
        assert triangle_census(g3).diversity == 3
        p = predict_spectrum(g3)
        assert p.kind == "full" and p.provenance == "lemma_b"
        g4 = gen_random(6, 17)
        assert triangle_census(g4).diversity == 4
        assert predict_spectrum(g4).kind == "full"
        assert predict_spectrum(g4).provenance == "lemma_c"

    def test_small_n_defers_to_enumeration(self, share_vertex_k4):
        p = predict_spectrum(share_vertex_k4)
        assert p.kind == "oracle"
        assert p.values == {F22.A, F22.B, F22.C}

    def test_prediction_contains_oracle_spectrum_on_seeded_instances(self):
        for seed in range(150):
            g = gen_random(6, seed)
            p = predict_spectrum(g)
            assert hamiltonian_spectrum(g).realized <= p.values


class TestConstructRefusals:
    def test_low_diversity_refusal_carries_prediction(self):
        g = named_instance("identity(6)")
        with pytest.raises(RestrictedSpectrumError) as exc:
            construct_witnesses(g)
        assert exc.value.prediction.kind == "singleton"
        assert exc.value.prediction.values == {F22.E}

    def test_small_n_refusal(self, share_vertex_k4):
        with pytest.raises(UnsupportedSizeError):
            construct_witnesses(share_vertex_k4)


# Hub-normalized n=6 labeling indices routed through each branch, found by
# running the solver over the exhaustive family.
BRANCH_FIXTURES = [
    (262, "lemma_b/case1/left_panel"),
    (298, "lemma_b/case1/right_panel"),
    (17947, "lemma_c/case_alpha/case1"),
    (17951, "lemma_c/case_alpha/case2"),
    (19007, "lemma_c/case_alpha/case4"),
    (6, "lemma_c/case_beta/case1"),
    (415, "lemma_c/case_beta/case2"),
    (91, "lemma_c/case_beta/case3a"),
]


@pytest.mark.parametrize("index,trace", BRANCH_FIXTURES)
def test_branch_fixtures_build_verified_full_sets(index, trace):
    g = instance_from_index(6, index)
    ws = construct_witnesses(g)
    assert ws.trace == trace
    verify_witness_set(g, ws)
    assert ws.signs == frozenset(ELEMENTS)
    assert hamiltonian_spectrum(g).realized == frozenset(ELEMENTS)


@pytest.mark.parametrize(
    "g",
    [gen_random(6, 17), instance_from_index(6, 262), named_instance("identity(6)"),
     gen_random(20, 3), gen_random(150, 1)],
    ids=["n6-diversity4", "n6-diversity3", "n6-refused", "n20", "n150"],
)
def test_construction_makes_one_triangle_label_pass(g, monkeypatch):
    # one census call, and no table of all triangles or K4s of K_n
    from doublesign import census, solver

    def unused(n):
        raise AssertionError(f"construction built a table for n={n}")

    monkeypatch.setattr(census, "triangle_table", unused)
    monkeypatch.setattr(census, "quad_table", unused)
    calls = []
    monkeypatch.setattr(
        solver, "triangle_census", lambda g: calls.append(g.n) or census.triangle_census(g)
    )
    try:
        verify_witness_set(g, construct_witnesses(g))
    except RestrictedSpectrumError:
        assert triangle_census(g).diversity <= 2
    assert calls == [g.n]


def test_common_branches_build_no_switched_graph(monkeypatch):
    # every branch reads switched labels off the input's rows; none
    # normalizes a graph
    from doublesign import switching

    def unused(*args):
        raise AssertionError("construction built a switched graph")

    monkeypatch.setattr(switching, "_switch", unused)
    cases = [
        (instance_from_index(6, index), construct_witnesses, trace)
        for index, trace in BRANCH_FIXTURES
    ]
    cases.append((constant_bridge_fixture(7), construct_witnesses, "lemma_c/case_beta/case3b"))

    def shared(g):
        return _shared_edge_moves(g, 1, SHARED_EDGE_CONFIG)

    cases.append((graph_from(6, SHARED_EDGE_FIXTURES[1]), shared,
                  "lemma_b/case2/subcase1/left_panel"))
    cases.append((graph_from(6, SHARED_EDGE_FIXTURES[2]), shared, "lemma_b/case2/subcase2/variant"))
    cases.append((TestNecklace().k5_fixture("b"),
                  lambda g: necklace_construct(g, (1, 2, 3, 4, 5), (2, 5)), "necklace"))
    for g, build, trace in cases:
        ws = build(g)
        assert ws.trace == trace
        verify_witness_set(g, ws)
        assert ws.signs == frozenset(ELEMENTS)


def test_construction_is_switching_invariant():
    # every branch reads labels with some vertex normalized, and those
    # labels do not depend on the switching; at n = 6 the family instances
    # are normalized at hub 1 already, so only a switching reaches the
    # case_alpha switching row
    rng = np.random.default_rng(8)
    inputs = [instance_from_index(6, index) for index in (17947, 17951, 19007)]
    inputs.append(constant_bridge_fixture(7))
    inputs += [gen_random(n, seed) for n in (6, 7, 8, 9) for seed in range(12)]
    solved = 0
    for g in inputs:
        if triangle_census(g).diversity < 3:
            continue
        zeta = {v: ELEMENTS[int(rng.integers(4))] for v in g.vertices()}
        assert construct_witnesses(apply_switching(g, zeta)) == construct_witnesses(g)
        solved += 1
    assert solved > len(inputs) * 0.75


def constant_bridge_fixture(n: int):
    # an all-distinct K4 whose three a-labeled edges meet at vertex 4;
    # vertex 5 pre-normalized; every later vertex sees the K4 uniformly
    labels = {(1, 2): "b", (1, 3): "c", (1, 4): "a", (2, 3): "e", (2, 4): "a",
              (3, 4): "a"}
    labels |= {(u, 5): "e" for u in (1, 2, 3, 4)}
    bridge_labels = ["b", "c", "a", "e", "b"]
    for w in range(6, n + 1):
        for u in (1, 2, 3, 4):
            labels[(u, w)] = bridge_labels[w - 6]
    return graph_from(n, labels)


@pytest.mark.parametrize("n", [7, 9])
def test_constant_bridge_branch(n):
    g = constant_bridge_fixture(n)
    ws = construct_witnesses(g)
    assert ws.trace == "lemma_c/case_beta/case3b"
    assert ws.signs == frozenset(ELEMENTS)
    assert hamiltonian_spectrum(g).realized == frozenset(ELEMENTS)


def test_chained_triple_branch_at_n8():
    labels = {(1, v): "e" for v in range(2, 9)}
    labels |= {(2, 3): "a", (3, 4): "b", (4, 5): "c"}
    g = graph_from(8, labels, default="b")
    assert triangle_census(g).diversity == 3
    ws = construct_witnesses(g)
    assert ws.trace.startswith("lemma_b/case1")
    assert ws.signs == hamiltonian_spectrum(g).realized == frozenset(ELEMENTS)


def test_construction_scales_past_the_oracle_bound():
    # n = 10..12: only the structural verifier can vouch here
    for n, seed in ((10, 0), (11, 4), (12, 9)):
        g = gen_random(n, seed)
        ws = construct_witnesses(g)
        verify_witness_set(g, ws)
        assert not ws.trace.startswith("fallback")


class TestChainedTripleConstruction:
    def fixture(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (3, 4): "b", (4, 5): "c"}
        return graph_from(6, labels, default="b")

    def test_routes_through_the_chained_triple(self):
        g = self.fixture()
        assert triangle_census(g).diversity == 3
        ws = construct_witnesses(g)
        assert ws.trace == "lemma_b/case1/left_panel"
        assert ws.signs == frozenset(ELEMENTS)

    def test_deterministic_witnesses(self):
        ws = construct_witnesses(self.fixture())
        got = {s: c.vertices for c, s in ws.witnesses}
        assert got == {
            F22.E: (1, 2, 5, 3, 6, 4),
            F22.A: (1, 2, 5, 4, 6, 3),
            F22.B: (1, 2, 3, 6, 4, 5),
            F22.C: (1, 4, 6, 3, 2, 5),
        }

    def test_insertion_ledger_offsets(self):
        # the four labels sit at offsets {x+z, y+z, 0, x+y} from the base
        # circle's label k, where x, y, z are the chained triangle labels
        g = self.fixture()
        gn, _ = normalize_at(g, 5)
        k = walk_sign(gn, Circle((4, 1, 2, 6)))
        x, y, z = F22.A, F22.B, F22.C
        expected = {k ^ x ^ z, k ^ y ^ z, k, k ^ x ^ y}
        assert construct_witnesses(g).signs == expected


# Labels (default e) on which _shared_edge_moves(g, 1, SHARED_EDGE_CONFIG)
# takes each subcase of lemma_b/case2.  No sampled instance reaches that
# branch, so these are its only inputs.
SHARED_EDGE_CONFIG = (2, 3, 4, 5, 6)
SHARED_EDGE_FIXTURES = {
    # diversity {e, a, b}: the K4 spanned by the two shared-edge
    # triangles carries the third label (here the identity) on its own
    # edges, reducing to the chained-triple frame
    1: {(2, 3): "a", (2, 4): "a", (3, 4): "b"},
    2: {(1, v): "e" for v in range(2, 7)}
    | {(2, 3): "a", (3, 4): "b", (5, 6): "c", (2, 4): "a"},
}


class TestSharedEdgeConstruction:
    def test_explicit_configuration_subcase2(self):
        g = graph_from(6, SHARED_EDGE_FIXTURES[2])
        ws = _shared_edge_moves(g, 1, SHARED_EDGE_CONFIG)
        assert ws.trace.startswith("lemma_b/case2/subcase2")
        verify_witness_set(g, ws)
        assert ws.signs == frozenset(ELEMENTS)

    def test_explicit_configuration_subcase1(self):
        g = graph_from(6, SHARED_EDGE_FIXTURES[1])
        assert triangle_census(g).signs == {F22.E, F22.A, F22.B}
        ws = _shared_edge_moves(g, 1, SHARED_EDGE_CONFIG)
        assert ws.trace.startswith("lemma_b/case2/subcase1")
        verify_witness_set(g, ws)
        assert ws.signs == frozenset(ELEMENTS)


class TestFourSignPath:
    def normalized_fixture(self):
        labels = {(1, v): "e" for v in range(2, 7)}
        labels |= {(2, 3): "a", (2, 4): "b", (2, 5): "c", (2, 6): "e", (5, 6): "e"}
        return graph_from(6, labels, default="a")

    def test_closing_through_the_hub_adds_identity(self):
        g = self.normalized_fixture()
        p = Path((2, 3, 4, 5, 6))
        assert walk_sign(g, Circle((1,) + p.vertices)) == walk_sign(g, p)

    def test_builds_full_witness_set(self):
        g = self.normalized_fixture()
        p = Path((3, 4, 2, 5, 6))
        assert len({g.sign(u, v) for u, v in p.edges()}) == 4
        ws = build_from_four_sign_path(g, p, 1)
        verify_witness_set(g, ws)
        assert ws.signs == frozenset(ELEMENTS)

    def test_rejects_paths_without_four_labels(self):
        g = self.normalized_fixture()
        with pytest.raises(ValueError, match="need all four"):
            build_from_four_sign_path(g, Path((3, 4, 5)), 1)
        with pytest.raises(ValueError, match="avoid the hub"):
            build_from_four_sign_path(g, Path((1, 2, 3)), 1)

    @pytest.mark.parametrize("bad", [0, -1, 7])
    def test_rejects_out_of_range_vertices(self, bad):
        g = self.normalized_fixture()
        with pytest.raises(ValueError, match="out of range"):
            build_from_four_sign_path(g, Path((3, 4, 2, 5, 6)), bad)
        with pytest.raises(ValueError, match="out of range"):
            build_from_four_sign_path(g, Path((3, 4, 2, 5, bad)), 1)


class TestNecklace:
    def k5_fixture(self, closing: str) -> "object":
        # a triple-free all-distinct K4 on {1..4}; vertex 5 already
        # normalized; ring 5-6-7-2 with a configurable label back to the
        # start vertex 2
        labels = {(1, 2): "a", (1, 3): "b", (1, 4): "e", (2, 3): "e",
                  (2, 4): "c", (3, 4): "c"}
        labels |= {(u, 5): "e" for u in (1, 2, 3, 4)}
        labels |= {(5, 6): "e", (6, 7): "e", (2, 7): closing}
        return graph_from(7, labels)

    def path_signs_from_2(self, g):
        from itertools import permutations

        out = {}
        for perm in permutations((1, 3, 4)):
            p = Path((2,) + perm)
            out.setdefault(walk_sign(g, p), p)
        return out

    def test_identity_ring_preserves_path_labels(self):
        g = self.k5_fixture("e")
        ws = necklace_construct(g, (1, 2, 3, 4, 5), (2, 5))
        verify_witness_set(g, ws)
        assert ws.signs == frozenset(ELEMENTS)
        assert set(self.path_signs_from_2(g)) == frozenset(ELEMENTS)

    def test_ring_label_translates_the_whole_set(self):
        g = self.k5_fixture("b")
        ws = necklace_construct(g, (1, 2, 3, 4, 5), (2, 5))
        verify_witness_set(g, ws)
        # each witness label is its block path's label shifted by the ring
        quad = {1, 2, 3, 4}
        for circle, sign in ws.witnesses:
            vs = circle.vertices
            k = len(vs)
            start = next(
                (i + 1) % k
                for i in range(k)
                if vs[i] not in quad and vs[(i + 1) % k] in quad
            )
            arc = [vs[(start + j) % k] for j in range(4)]
            assert set(arc) == quad
            assert walk_sign(g, Path(arc)) ^ F22.B == sign

    def test_precondition_violations_are_reported(self, share_vertex_k4):
        labels = {(u, v): share_vertex_k4.sign(u, v).render()
                  for u in range(1, 5) for v in range(u + 1, 5)}
        labels |= {(u, 5): "e" for u in (1, 2, 3, 4)}
        g = graph_from(6, labels)
        for start in (1, 2, 3, 4):
            with pytest.raises(CaseNotApplicableError):
                necklace_construct(g, (1, 2, 3, 4, 5), (start, 5))
        with pytest.raises(CaseNotApplicableError, match="four distinct"):
            necklace_construct(named_instance("identity(6)"), (1, 2, 3, 4, 5), (1, 5))
        with pytest.raises(ValueError):
            necklace_construct(g, (1, 2, 3, 4), (1, 4))

    @pytest.mark.parametrize("bad", [0, -1, 8])
    def test_rejects_out_of_range_vertices(self, bad):
        g = self.k5_fixture("b")
        for k5, pair in (
            ((1, 2, 3, 4, bad), (2, bad)),  # the normalized vertex
            ((bad, 2, 3, 4, 5), (2, 5)),  # a K4 vertex
            ((bad, 2, 3, 4, 5), (bad, 5)),  # the path start
        ):
            with pytest.raises(ValueError, match="out of range"):
                necklace_construct(g, k5, pair)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the error is the outcome to compare
        return type(exc), str(exc)


@given(
    st.integers(min_value=6, max_value=9),
    st.integers(min_value=0, max_value=10_000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_hub_readers_match_the_normalized_graph(n, seed, rnd):
    # distinct_sign_edge_structure, build_from_four_sign_path and
    # necklace_construct read labels with the hub normalized, so on any
    # graph they agree with the same call on the graph normalized there
    g = gen_random(n, seed)
    for hub in g.vertices():
        gn = normalize_at(g, hub)[0]
        others = [v for v in g.vertices() if v != hub]
        rnd.shuffle(others)
        path = Path(others[: rnd.randint(2, n - 1)])
        k5 = (hub, *others[:4])
        for f, args in (
            (distinct_sign_edge_structure, (hub,)),
            (build_from_four_sign_path, (path, hub)),
            (necklace_construct, (k5, (others[0], hub))),
        ):
            assert _outcome(f, g, *args) == _outcome(f, gn, *args)


def test_fallback_search_is_itself_sound():
    # the case machine never needs it, but it must stand on its own
    from doublesign.solver import _fallback_search

    for seed in (2, 9, 31):
        g = gen_random(6, seed)
        if triangle_census(g).diversity < 3:
            continue
        ws = _fallback_search(g, "exercised directly")
        assert ws.trace.startswith("fallback/")
        verify_witness_set(g, ws)


def test_witness_verification_catches_tampering():
    g = gen_random(6, 23)
    ws = construct_witnesses(g)
    wrong_sign = WitnessSet(
        tuple((c, s ^ F22.A) for c, s in ws.witnesses), ws.trace
    )
    with pytest.raises(WitnessVerificationError):
        verify_witness_set(g, wrong_sign)
    short = WitnessSet(ws.witnesses[:3], ws.trace)
    with pytest.raises(WitnessVerificationError):
        verify_witness_set(g, short)
    not_hamiltonian = WitnessSet(
        ((Circle((1, 2, 3)), ws.witnesses[0][1]),) + ws.witnesses[1:], ws.trace
    )
    with pytest.raises(WitnessVerificationError):
        verify_witness_set(g, not_hamiltonian)


def test_seeded_instances_match_oracle_at_n7_and_n8():
    for n, seeds in ((7, 80), (8, 25)):
        solved = 0
        for seed in range(seeds):
            g = gen_random(n, seed)
            if triangle_census(g).diversity < 3:
                continue
            ws = construct_witnesses(g)
            verify_witness_set(g, ws)
            assert ws.signs == hamiltonian_spectrum(g).realized == frozenset(ELEMENTS)
            solved += 1
        assert solved > seeds * 0.75


def test_sampled_exhaustive_indices_never_fall_back():
    rng = np.random.default_rng(5)
    from doublesign.sweep import run_normalized_sweep

    sw = run_normalized_sweep(5)  # small domain keeps this quick
    idx = np.nonzero(sw.diversity >= 3)[0]
    # n=5 is refused; route through n=6 by checking refusal is clean
    g = instance_from_index(5, int(idx[0]))
    with pytest.raises(UnsupportedSizeError):
        construct_witnesses(g)
    for i in rng.integers(0, 4 ** 10, 60):
        g = instance_from_index(6, int(i))
        if triangle_census(g).diversity < 3:
            continue
        ws = construct_witnesses(g)
        assert not ws.trace.startswith("fallback")
