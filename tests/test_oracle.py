import ast
import importlib
import inspect
from collections import Counter
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from conftest import graph_from
from doublesign import (
    ELEMENTS,
    Circle,
    F22,
    Path,
    SignedCompleteGraph,
    classify_k4,
    gen_random,
    hamiltonian_paths_spectrum,
    hamiltonian_spectrum,
    named_instance,
    predict_spectrum,
    walk_sign,
)
from doublesign import oracle
from doublesign.graph import edge_index
from doublesign.lemma_lab import k4_from_index
from doublesign.oracle import Spectrum, hamiltonian_circles


def test_circle_counts():
    for n in (4, 6, 7):
        assert sum(1 for _ in hamiltonian_circles(n)) == factorial(n - 1) // 2


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


def _scalar_spectrum(g, witnesses=True):
    """The oracle's former pure-Python loop, kept as the reference."""
    n = g.n
    rows = g.rows
    counts = [0, 0, 0, 0]
    wit: dict[int, tuple[int, ...]] = {}
    for second in range(2, n + 1):
        rest = [v for v in range(2, n + 1) if v != second]
        first_edge = rows[1][second]
        for perm in permutations(rest):
            if second > perm[-1]:
                continue
            acc = first_edge
            prev = second
            for v in perm:
                acc ^= rows[prev][v]
                prev = v
            acc ^= rows[prev][1]
            counts[acc] += 1
            if witnesses and acc not in wit:
                wit[acc] = (1, second) + perm
    count_map = dict(zip(ELEMENTS, counts))
    witness_map = (
        {ELEMENTS[k]: Circle(tour) for k, tour in sorted(wit.items())} if witnesses else None
    )
    return Spectrum(count_map, witness_map)


def _alphabet_graphs(n, count, seed):
    """Labels over a random alphabet of 1 to 4 labels, drawn as the
    benchmark's oracle workload draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alphabet = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
        labels = rng.choice(alphabet, size=n * (n - 1) // 2).astype(np.uint8)
        yield SignedCompleteGraph(n, labels.tobytes())


def _assert_matches_reference(g):
    spec = hamiltonian_spectrum(g, witnesses=True)
    ref = _scalar_spectrum(g)
    assert spec == ref
    assert list(spec.witnesses) == list(ref.witnesses)
    assert all(type(c) is int for c in spec.counts.values())


@pytest.mark.parametrize("n", range(3, 11))
def test_spectrum_matches_scalar_reference(n):
    for g in _alphabet_graphs(n, 3 if n == 10 else 8, seed=100 + n):
        _assert_matches_reference(g)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_narrow_suffix_runs_the_prefix_loop(width, monkeypatch):
    # a narrow suffix leaves up to n - 2 prefix vertices for the Python loop
    monkeypatch.setattr(oracle, "_SUFFIX_WIDTH", width)
    for n in range(5, 10):
        for g in _alphabet_graphs(n, 2, seed=10 * n + width):
            _assert_matches_reference(g)


def test_suffix_tables_stay_under_a_megabyte():
    for w in range(1, oracle._SUFFIX_WIDTH + 1):
        perms, pairs = oracle._suffix_tables(w)
        assert perms.nbytes + pairs.nbytes <= 1 << 20
        assert [tuple(c) for c in perms.T.tolist()] == list(permutations(range(w)))


def test_spectrum_above_the_default_bound():
    g = gen_random(11, 4)
    spec = hamiltonian_spectrum(g)
    assert spec.total == 1_814_400 == factorial(10) // 2
    assert spec.realized == predict_spectrum(g).values


def test_enumeration_bound_guard():
    g12 = gen_random(12, 0)
    with pytest.raises(ValueError, match="n=12 exceeds the enumeration ceiling 11"):
        hamiltonian_spectrum(g12)
    with pytest.raises(ValueError, match="n=12 exceeds the enumeration ceiling 11"):
        hamiltonian_paths_spectrum(g12, 1)


def test_path_multiset_from_start(share_vertex_k4):
    assert hamiltonian_paths_spectrum(share_vertex_k4, 1) == (
        F22.E, F22.E, F22.B, F22.B, F22.C, F22.C,
    )
    g5 = named_instance("identity(5)")
    assert hamiltonian_paths_spectrum(g5, 3) == (F22.E,) * 24


def test_k4_path_labels_from_every_start(share_vertex_k4):
    per_start = {v: hamiltonian_paths_spectrum(share_vertex_k4, v) for v in (1, 2, 3, 4)}
    assert all(len(ms) == 6 for ms in per_start.values())
    assert per_start[1] == (F22.E, F22.E, F22.B, F22.B, F22.C, F22.C)
    # each of the 12 paths is seen from both ends
    ends = Counter(s for ms in per_start.values() for s in ms)
    assert F22.A not in ends  # no path carries the triple's label
    assert all(c % 4 == 0 for c in ends.values())  # per-label totals even


def test_path_multiset_shapes_on_all_distinct_k4s():
    # on the 1,536 all-distinct K4 labelings each start sees 2+2+2 or 3+1+1+1
    seen = 0
    for index in range(4096):
        g = k4_from_index(index)
        if not classify_k4(g, (1, 2, 3, 4)).is_all_distinct:
            continue
        seen += 1
        for v in (1, 2, 3, 4):
            ms = hamiltonian_paths_spectrum(g, v)
            assert sorted(Counter(ms).values()) in ([2, 2, 2], [1, 1, 1, 3]), (index, v)
    assert seen == 1536


def _package_imports(module: str) -> set[str]:
    """The doublesign modules ``module`` imports, at any depth of its source
    (function bodies included)."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"doublesign.{module}")))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("doublesign."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("doublesign."))
    return {m.split(".")[0] for m in found}


def _import_closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for m in _package_imports(todo.pop()) - seen:
            seen.add(m)
            todo.append(m)
    return seen


def test_oracle_and_solver_share_no_code():
    # design rule 1: neither side of the cross-check can vouch for the other
    assert not _import_closure("solver") & {"oracle", "sweep", "lemma_lab"}
    assert not _import_closure("oracle") & {"solver", "census"}
    assert {"census", "graph"} <= _import_closure("solver")


def test_importing_the_package_loads_no_process_pool():
    # the library sweeps in one process, so no import of it should pay
    # for multiprocessing or concurrent.futures
    import subprocess
    import sys
    from pathlib import Path

    import doublesign

    src = str(Path(doublesign.__file__).resolve().parents[1])
    code = ("import sys; import doublesign, doublesign.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_star_import_resolves_every_public_name():
    import doublesign

    namespace: dict = {}
    exec("from doublesign import *", namespace)
    assert len(set(doublesign.__all__)) == len(doublesign.__all__)
    assert set(doublesign.__all__) <= namespace.keys()


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


def _scalar_record(g):
    """The batch record's fields for one graph, from the scalar routes."""
    from doublesign import triangle_census, triangle_sign
    from doublesign.census import distinct_sign_edges
    from doublesign.io_gen import free_edges

    census = triangle_census(g)
    k4_counts = {
        len(set(classify_k4(g, q).triangle_signs)) for q in combinations(g.vertices(), 4)
    }
    hub_signs = [
        [triangle_sign(g, (hub, u, v)) for u, v in combinations(g.vertices(), 2)
         if hub not in (u, v)]
        for hub in g.vertices()
    ]
    first = [hub_signs[0].index(s) if s in hub_signs[0] else 0 for s in ELEMENTS]
    if set(hub_signs[0]) == set(ELEMENTS) and 4 not in k4_counts:  # the edges form a forest
        edges = distinct_sign_edges(g, 1)
        assert [free_edges(g.n).index(edges[s]) for s in ELEMENTS] == first
    return {
        "diversity": census.diversity,
        "tri_mask": sum(1 << int(s) for s in census.signs),
        "sigma4star": 4 in k4_counts,
        "quad3": 3 in k4_counts,
        "hub_mask": [sum(1 << int(s) for s in set(signs)) for signs in hub_signs],
        "first_edge": first,
        "spec_mask": sum(1 << int(s) for s in hamiltonian_spectrum(g).realized),
    }


def test_vectorized_sweep_matches_scalar_oracle():
    """Every field of the claims' batch record against the scalar routes, on
    sampled n = 5 family rows, the rows of two random scopes and all K4s."""
    from doublesign import instance_from_index
    from doublesign.lemma_lab import _batches, parse_scope
    from doublesign.sweep import signs_from_indices

    for scope, seed, graph in (
        ("exhaustive_normalized:5", 0, lambda key: instance_from_index(5, key)),
        ("random:6:120", 3, lambda key: gen_random(6, key)),
        ("random:7:20", 0, lambda key: gen_random(7, key)),
        ("exhaustive_k4", 0, k4_from_index),
    ):
        (batch, keys), = _batches(parse_scope(scope, seed))
        rows = range(len(keys))
        if scope == "exhaustive_normalized:5":
            rows = np.random.default_rng(11).integers(0, batch.size, 120)
        for r in rows:
            got = {name: getattr(batch, name)[r].tolist() for name in (
                "diversity", "tri_mask", "sigma4star", "quad3", "hub_mask", "first_edge",
                "spec_mask")}
            assert got == _scalar_record(graph(int(keys[r]))), (scope, int(keys[r]))
    rows = signs_from_indices(5, np.array([0, 17, 4095]))
    for row, idx in zip(rows, (0, 17, 4095)):
        assert bytes(row) == instance_from_index(5, idx)._signs


@pytest.mark.parametrize("chunk", ["first", "seeded", "switched"])
def test_n7_sweep_chunk_matches_scalar_oracle(chunk):
    from doublesign import SignedCompleteGraph, triangle_census
    from doublesign.census import first_all_distinct_k4
    from doublesign.sweep import analyze_sign_matrix, run_normalized_sweep, signs_from_indices

    rng = np.random.default_rng(71)
    start = int(rng.integers(1, 4 ** 15 >> 16)) << 16 if chunk == "seeded" else 0
    signs = signs_from_indices(7, np.arange(start, start + (1 << 16)))
    if chunk == "switched":
        # A seeded switching per row keeps every triangle and circle label
        # but moves the hub edges off the identity.
        zeta = rng.integers(0, 4, size=(len(signs), 8), dtype=np.uint8)
        for e, (u, v) in enumerate(combinations(range(1, 8), 2)):
            signs[:, e] ^= zeta[:, u] ^ zeta[:, v]
        sw = analyze_sign_matrix(7, signs)
    else:
        sw = run_normalized_sweep(7, start, start + (1 << 16))
    assert not sw.quad3.any()
    # seeded rows from every (diversity, all-distinct K4) class in the chunk
    rows = []
    for d in range(1, 5):
        for star in (False, True):
            found = np.nonzero((sw.diversity == d) & (sw.sigma4star == star))[0]
            rows += rng.choice(found, size=min(8, len(found)), replace=False).tolist()
    assert len(rows) >= 16
    for r in rows:
        g = SignedCompleteGraph(7, signs[r].tobytes())
        c = triangle_census(g)
        assert sw.diversity[r] == c.diversity
        assert sw.tri_mask[r] == sum(1 << int(s) for s in c.signs)
        assert sw.sigma4star[r] == (first_all_distinct_k4(g) is not None)
        spec = hamiltonian_spectrum(g)
        assert sw.spec_mask[r] == sum(1 << int(s) for s in spec.realized)


@pytest.mark.parametrize("layout", ["fortran", "strided", "int64", "no_rows", "one_row"])
def test_analyze_sign_matrix_is_layout_independent(layout):
    from doublesign.io_gen import random_sign_matrix
    from doublesign.sweep import analyze_sign_matrix

    m = random_sign_matrix(7, range(500, 800))
    x, picked = {
        "fortran": (np.asfortranarray(m), slice(None)),
        "strided": (m[::3], slice(None, None, 3)),
        "int64": (m.astype(np.int64), slice(None)),
        "no_rows": (m[:0], slice(0, 0)),
        "one_row": (m[7:8], slice(7, 8)),
    }[layout]
    ref = analyze_sign_matrix(7, m)
    out = analyze_sign_matrix(7, x)
    for name in ("diversity", "tri_mask", "spec_mask", "sigma4star", "quad3"):
        got, want = getattr(out, name), getattr(ref, name)[picked]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert (got == want).all(), name


def _with_label(shape, dtype, row, col, label):
    m = np.zeros(shape, dtype=dtype)
    m[row, col] = label
    return m


@pytest.mark.parametrize(
    "signs, message",
    [
        (np.zeros((3, 11), dtype=np.uint8), r"10 label columns for n=5, got shape \(3, 11\)"),
        (np.zeros(10, dtype=np.uint8), r"10 label columns for n=5, got shape \(10,\)"),
        (np.zeros((2, 10), dtype=float), "integers 0..3, got dtype float64"),
        (_with_label((4, 10), np.uint8, 1, 6, 4), "label 4 at row 1, column 6 is outside 0..3"),
        (_with_label((4, 10), np.int64, 2, 0, -1), "label -1 at row 2, column 0 is outside 0..3"),
    ],
    ids=["wide", "one_dim", "float", "label4", "negative"],
)
def test_analyze_sign_matrix_rejects_malformed_input(signs, message):
    from doublesign.sweep import analyze_sign_matrix

    with pytest.raises(ValueError, match=message):
        analyze_sign_matrix(5, signs)


def test_sweep_refuses_n_above_the_enumeration_bound(monkeypatch):
    # n = 11 would enumerate 1,814,400 circles per row: refused before the
    # kernel sees a row
    from doublesign import oracle, sweep

    def no_kernel(*args):
        raise AssertionError("swept rows above the enumeration bound")

    monkeypatch.setattr(sweep, "_sweep_chunk", no_kernel)
    monkeypatch.setattr(sweep, "_analyze_columns", no_kernel)
    n = oracle.ENUMERATION_BOUND + 1
    with pytest.raises(ValueError, match=f"n={n} is above the enumeration bound"):
        sweep.analyze_sign_matrix(n, np.zeros((0, n * (n - 1) // 2), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"n={n} is above the enumeration bound"):
        sweep.run_normalized_sweep(n, 0, 1)


def test_sweep_refuses_rows_past_the_int64_indices(monkeypatch):
    # the n = 10 family has 2^72 rows, but a chunk's indices are int64
    from doublesign import sweep
    from doublesign.io_gen import instance_from_index

    def no_chunk(*args):
        raise AssertionError(f"swept a chunk {args}")

    monkeypatch.setattr(sweep, "_sweep_chunk", no_chunk)
    # numpy refuses the first two ranges with OverflowError and wraps the third
    for start, stop in ((2**70, 2**70 + 2), (2**63 - 1, 2**63 + 1), (2**63 - 2, 2**63 + 1)):
        with pytest.raises(ValueError, match=r"int64 index limit 2\*\*63"):
            sweep.run_normalized_sweep(10, start, stop)
    monkeypatch.setattr(sweep, "_sweep_chunk", lambda *args: args)  # the last legal range
    assert sweep.run_normalized_sweep(10, 2**63 - 2, 2**63) == (10, 2**63 - 2, 2**63)
    for index in (2**63 - 2, 2**63 - 1):
        row = sweep.signs_from_indices(10, [index])[0]
        assert bytes(row) == instance_from_index(10, index)._signs


def _circle_mask(n, row):
    """Labels of the Hamiltonian circles of one sign row, by brute force."""
    mask = 0
    for perm in permutations(range(2, n + 1)):
        if perm[0] < perm[-1]:
            tour = (1,) + perm + (1,)
            label = 0
            for u, v in zip(tour, tour[1:]):
                label ^= int(row[edge_index(n, u, v)])
            mask |= 1 << label
    return mask


@pytest.mark.parametrize("n", range(3, 9))
def test_circle_walk_matches_a_permutation_enumeration(n):
    from doublesign import instance_from_index, triangle_census
    from doublesign.io_gen import random_sign_matrix
    from doublesign.sweep import analyze_sign_matrix, signs_from_indices

    rows = random_sign_matrix(n, range(40 if n < 8 else 12))
    rows = np.concatenate([rows, rows & 1, rows | 2])  # plus two-label rows
    if n == 5:
        # triangle counts (2, 2, 2, 4): exactly one label is missing
        picked = [
            i for i in range(200)
            if sorted(triangle_census(instance_from_index(5, i)).counts.values()) == [2, 2, 2, 4]
        ]
        assert len(picked) >= 10
        rows = np.concatenate([rows, signs_from_indices(5, picked)])
    want = [_circle_mask(n, row) for row in rows]
    if n == 5:
        assert {bin(m).count("1") for m in want[-len(picked):]} == {3}
    assert analyze_sign_matrix(n, rows).spec_mask.tolist() == want
    assert analyze_sign_matrix(n, rows[:0]).spec_mask.shape == (0,)


def test_the_sweep_never_builds_the_circle_table(monkeypatch):
    import sys

    from doublesign.io_gen import random_sign_matrix
    from doublesign.sweep import analyze_sign_matrix, run_normalized_sweep

    def no_table(n):
        raise AssertionError(f"built the circle table for n={n}")

    for name, module in list(sys.modules.items()):
        if name.startswith("doublesign") and hasattr(module, "circle_edge_indices"):
            monkeypatch.setattr(module, "circle_edge_indices", no_table)
    assert analyze_sign_matrix(7, random_sign_matrix(7, range(40))).size == 40
    assert run_normalized_sweep(7, 0, 1 << 16).size == 1 << 16


def test_a_sweep_sub_range_is_a_slice_of_the_whole_family():
    from doublesign import sweep

    part = sweep.run_normalized_sweep(5, 16, 80)
    assert (part.spec_mask == sweep.run_normalized_sweep(5).spec_mask[16:80]).all()
