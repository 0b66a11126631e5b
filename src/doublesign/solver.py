"""Spectrum prediction and explicit witness-circle construction.

Triangle diversity decides everything.  With one or two triangle labels
the Hamiltonian spectrum is pinned to a singleton or a parity pair, and
construction is refused with that prediction attached.  With three or
more labels (and n > 5) four Hamiltonian circles realizing all four
labels exist, and this module builds them by a deterministic case
machine:

* diversity 3 — find three chained hub triangles with distinct labels
  (or, failing that, two edge-sharing basis triangles with different
  labels plus an edge-disjoint one carrying the third), normalize the
  outer vertex, and ladder through vertex-insertion moves whose label
  shifts are forced;
* diversity 4 without an all-distinct K4 — normalize a hub, pick one
  edge per label, assemble a path carrying all four labels, and rotate
  the hub through its edges;
* diversity 4 with an all-distinct K4 — one of three constructions: a
  K5 necklace around a vertex with four distinct-label paths, a
  two-anchor join when some outside vertex sees the K4 with unequal
  labels, or the constant-bridge constructions when every outside vertex
  sees it uniformly.

The structures each branch starts from (chained or shared-edge hub
triangles, the first all-distinct K4) come from :mod:`census`, the one
module that reads triangle and K4 labels off a graph's row table; a call
makes one census pass and builds no table of all triangles or K4s.

No branch builds a normalized graph.  Each reads v's normalization off
the input as the switching ``z = rows[v]`` (edge u-w:
``z[u] ^ rows[u][w] ^ z[w]``), writes insertion moves as vertex tuples
and builds a :class:`Circle` only for candidate witnesses.

Nothing the case machine produces is trusted: every witness set is
re-verified structurally (Hamiltonicity, recomputed labels,
distinctness) before being returned, and any branch that fails to apply
falls back to a bounded verified search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

from .census import (
    CommonSignTriple,
    EdgeStructure,
    TheoryViolationError,
    TriangleCensus,
    classify_k4,
    distinct_sign_edge_structure,
    find_common_triple,
    find_consecutive_distinct_triple,
    find_shared_edge_config,
    first_all_distinct_k4,
    triangle_census,
)
from .graph import (
    Circle,
    Path,
    SignedCompleteGraph,
    Triangle,
    circle_symmetric_difference,
    walk_sign,
)
from .group import ELEMENTS, F22


class RestrictedSpectrumError(Exception):
    """Construction refused: diversity <= 2 pins the spectrum.

    Carries the prediction so callers still learn the achievable set.
    """

    def __init__(self, prediction: "SpectrumPrediction"):
        self.prediction = prediction
        super().__init__(
            f"triangle diversity bounds the spectrum to {sorted(prediction.values)}"
        )


class UnsupportedSizeError(Exception):
    """Construction is only defined for n > 5."""


class CounterexampleCandidateError(Exception):
    """No verified witness set was found where one should exist.

    This is the triage signal: the instance contradicts a claim the case
    machine relies on, or exposed a bug.  The message carries enough to
    replay the instance.
    """


class CaseNotApplicableError(Exception):
    """A construction's entry conditions do not hold for this input."""


class WitnessVerificationError(Exception):
    """A witness set failed independent re-verification."""


class _CaseFailed(Exception):
    """Internal: a case-machine branch did not pan out; try the fallback."""


@dataclass(frozen=True)
class SpectrumPrediction:
    """Predicted Hamiltonian label set with its provenance.

    ``kind`` is ``singleton`` (diversity 1), ``parity_pair`` (diversity
    2), ``full`` (diversity >= 3, n > 5) or ``oracle`` (diversity >= 3 at
    n <= 5, where no structural claim applies and the value set comes
    from exhaustive enumeration).
    """

    kind: str
    values: frozenset[F22]
    provenance: str


@dataclass(frozen=True)
class WitnessSet:
    """Four Hamiltonian circles realizing the four labels, with a trace.

    ``trace`` names the construction path taken (case machine branch or
    fallback) for reproducibility.
    """

    witnesses: tuple[tuple[Circle, F22], ...]
    trace: str

    @property
    def signs(self) -> frozenset[F22]:
        return frozenset(s for _, s in self.witnesses)


def verify_witness_set(g: SignedCompleteGraph, ws: WitnessSet) -> None:
    """Independently re-check a witness set against the graph.

    Raises :class:`WitnessVerificationError` unless every circle is
    Hamiltonian, every recorded label matches a recomputation, and the
    four labels are pairwise distinct.
    """
    if len(ws.witnesses) != 4:
        raise WitnessVerificationError(f"expected 4 witnesses, got {len(ws.witnesses)}")
    everything = set(g.vertices())
    seen = set()
    for circle, sign in ws.witnesses:
        if set(circle.vertices) != everything:
            raise WitnessVerificationError(f"{circle} is not Hamiltonian for n={g.n}")
        actual = walk_sign(g, circle)
        if actual != sign:
            raise WitnessVerificationError(
                f"{circle}: recorded label {sign} but recomputed {actual}"
            )
        seen.add(sign)
    if len(seen) != 4:
        raise WitnessVerificationError(f"labels {sorted(seen)} are not pairwise distinct")


def _witness_set(
    g: SignedCompleteGraph, circles: Sequence[Circle], trace: str
) -> WitnessSet:
    """Label the circles against ``g``, require 4 distinct, sort by label."""
    labeled = {}
    for c in circles:
        s = walk_sign(g, c)
        labeled.setdefault(s, c)
    if len(labeled) != 4:
        raise _CaseFailed(
            f"{trace}: constructed circles realize only {sorted(labeled)}"
        )
    return WitnessSet(tuple((labeled[s], s) for s in ELEMENTS), trace)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_spectrum(g: SignedCompleteGraph) -> SpectrumPrediction:
    """Bound the Hamiltonian label set from the triangle census alone.

    A Hamiltonian circle decomposes into n-2 hub triangles, so with one
    triangle label x every circle carries (n-2)x, and with two labels the
    circle label keeps the parity of n-2.  With three or more labels and
    n > 5 the full set is achievable.
    """
    return _predict_from_census(g, triangle_census(g))


def _predict_from_census(g: SignedCompleteGraph, census: TriangleCensus) -> SpectrumPrediction:
    div = census.diversity
    signs = sorted(census.signs)
    n = g.n
    if div == 1:
        x = signs[0]
        value = x if (n - 2) % 2 else F22.E
        return SpectrumPrediction("singleton", frozenset({value}), "forced parity of one label")
    if div == 2:
        x, y = signs
        values = {x, y} if (n - 2) % 2 else {F22.E, x ^ y}
        return SpectrumPrediction("parity_pair", frozenset(values), "two-label parity bound")
    if n > 5:
        provenance = "lemma_b" if div == 3 else "lemma_c"
        return SpectrumPrediction("full", frozenset(ELEMENTS), provenance)
    # Diversity >= 3 at n <= 5: no structural claim; report the exact
    # enumerated set instead of guessing.
    from .oracle import hamiltonian_spectrum

    realized = hamiltonian_spectrum(g).realized
    return SpectrumPrediction("oracle", realized, "exhaustive enumeration (n <= 5)")


# ---------------------------------------------------------------------------
# Diversity 3: chained-triangle and shared-edge constructions
# ---------------------------------------------------------------------------

def _chained_triple_moves(
    g: SignedCompleteGraph, quad: Sequence[int], v5: int, trace: str
) -> WitnessSet:
    """Witnesses from a chained-triple frame, read with v5 normalized.

    Normalized at v5, the four ``quad`` vertices span two triangles with
    distinct labels plus an edge carrying a third.  In a frame (v1, v2,
    v3, v4) with triangles v1-v2-v3 and v1-v3-v4 labeled x and y, two
    base circles avoiding v5 differ by where v3 sits, and inserting v5
    across the edges v1-v4, v3-v4, v1-v3, v1-v2 shifts their labels by
    those edges' labels — exact arithmetic, so the frame that makes all
    four results distinct can be selected before building anything.  The
    admissible assignments fall into two label patterns, and in each
    some frame works.
    """
    r, z = g.rows, g.rows[v5]
    qs = sorted(quad)
    s = [[r[a][b] ^ z[a] ^ z[b] for b in qs] for a in qs]  # labels at v5 normalized
    frame = None
    for i1, i2, i3, i4 in permutations(range(4)):
        x = s[i1][i2] ^ s[i1][i3] ^ s[i2][i3]
        y = s[i1][i3] ^ s[i1][i4] ^ s[i3][i4]
        if x == y:
            continue
        moves_arith = {
            x ^ s[i1][i4],
            y ^ s[i3][i4],
            y ^ s[i1][i3],
            y ^ s[i1][i2],
        }
        if len(moves_arith) == 4:
            frame = (i1, i2, i3, i4)
            break
    if frame is None:
        raise _CaseFailed(f"{trace}: no frame yields four distinct labels")
    z14 = s[frame[0]][frame[3]]
    z_count = sum(1 for a, b in combinations(range(4), 2) if s[a][b] == z14)
    v1, v2, v3, v4 = (qs[i] for i in frame)
    rest = [v for v in g.vertices() if v not in qs and v != v5]
    moves = [
        (v4, v5, v1, v3, v2, *rest),  # base (v4, v1, v3, v2, *rest) across v1-v4
        (v4, v5, v3, v1, v2, *rest),  # base (v4, v3, v1, v2, *rest) across v3-v4
        (v4, v3, v5, v1, v2, *rest),  # the same base across v1-v3
        (v4, v3, v1, v5, v2, *rest),  # the same base across v1-v2
    ]
    panel = {3: "left_panel", 4: "right_panel"}.get(z_count, "atypical_panel")
    return _witness_set(g, [Circle(vs) for vs in moves], f"{trace}/{panel}")


def _shared_edge_moves(
    g: SignedCompleteGraph, hub: int, cfg: tuple[int, int, int, int, int]
) -> WitnessSet:
    """Witnesses from the shared-edge configuration, read with m normalized.

    If the K4 spanned by hub, i, j, k picks up an edge of the third label
    under the normalization, relabel so that edge plays the v1-v4 role
    and reuse the chained-triple moves.  Otherwise all K4 edges carry the
    two triangle labels, and inserting the normalized vertex across the
    edges hub-p and i-k of two base circles realizes all four labels.
    """
    i, j, k, m, p = cfg
    r, zm = g.rows, g.rows[m]
    def label(u: int, v: int) -> int:  # edge u-v with m normalized
        return r[u][v] ^ zm[u] ^ zm[v]
    x = r[hub][i] ^ r[hub][j] ^ r[i][j]
    y = r[hub][j] ^ r[hub][k] ^ r[j][k]
    z = label(hub, p)
    if len({x, y, z}) != 3:
        raise _CaseFailed("shared-edge frame labels not distinct")

    quad = (hub, i, j, k)
    if any(label(a, b) == z for a, b in combinations(quad, 2)):
        # Subcase 1: the K4 picked up a third-label edge, so a
        # chained-triple frame exists inside it.
        return _chained_triple_moves(g, quad, m, "lemma_b/case2/subcase1")

    # Subcase 2: K4 edges all carry the two triangle labels.
    v1, v2, v3, v4, v5, v6 = hub, i, j, k, m, p
    alpha = r[v1][v2] ^ r[v1][v4] ^ r[v2][v4]
    beta = r[v2][v3] ^ r[v2][v4] ^ r[v3][v4]
    if {alpha, beta} != {x, y}:
        raise _CaseFailed("subcase 2 triangle labels off-pattern")
    rest7 = [v for v in g.vertices() if v not in (v1, v2, v3, v4, v5, v6)]
    moves = [  # bases (v6, v1, v2, v4, v3, *rest7) and (v6, v1, v4, v2, v3, *rest7)
        (v6, v5, v1, v2, v4, v3, *rest7),  # first base across v1-v6
        (v6, v5, v1, v4, v2, v3, *rest7),  # second base across v1-v6
        (v6, v1, v2, v5, v4, v3, *rest7),  # first base across v2-v4
        (v6, v1, v4, v5, v2, v3, *rest7),  # second base across v2-v4
    ]
    edge_class = {alpha: "a", beta: "b"}
    frame_edges = ((v1, v2), (v2, v3), (v3, v4), (v1, v4), (v2, v4))
    pattern = tuple(edge_class.get(label(u, v), "?") for u, v in frame_edges)
    named = {
        ("a", "b", "b", "b", "b"): "type1",
        ("a", "a", "a", "b", "b"): "type2",
        ("a", "a", "b", "a", "a"): "type3",
    }
    name = named.get(pattern, "variant")
    return _witness_set(g, [Circle(vs) for vs in moves], f"lemma_b/case2/subcase2/{name}")


def _construct_diversity3(g: SignedCompleteGraph, signs3: Sequence[F22]) -> WitnessSet:
    for hub in g.vertices():
        found = find_consecutive_distinct_triple(g, hub)
        if found:
            a, b, c, d = found
            return _chained_triple_moves(g, (hub, a, b, c), d, "lemma_b/case1")
    for hub in g.vertices():
        cfg = find_shared_edge_config(g, hub, signs3)
        if cfg:
            return _shared_edge_moves(g, hub, cfg)
    raise _CaseFailed(
        "diversity 3 but neither a chained triple nor a shared-edge "
        "configuration exists at any hub"
    )


# ---------------------------------------------------------------------------
# Diversity 4 without an all-distinct K4: four-label path through a hub
# ---------------------------------------------------------------------------

def build_from_four_sign_path(
    g: SignedCompleteGraph, p: Path, hub: int
) -> WitnessSet:
    """Witnesses from a path off the hub whose edges carry all four
    labels, read with the hub normalized (``z = rows[hub]``; ``g`` need
    not be normalized there).

    The path extends to a Hamiltonian path of the graph minus the hub and
    closes into a circle there.  Splicing the hub into an edge of label s
    replaces s by two identity labels, so the four splices across one edge
    per label realize the full label set.
    """
    g.check_vertices(hub, *p.vertices)
    if hub in p.vertices:
        raise ValueError("path must avoid the hub")
    try:
        return _splice_hub(g, p.vertices, hub, "four_sign_path")
    except _CaseFailed as exc:
        raise CounterexampleCandidateError(str(exc)) from None


def _splice_hub(
    g: SignedCompleteGraph, path: tuple[int, ...], hub: int, trace: str
) -> WitnessSet:
    """:func:`build_from_four_sign_path` on vertices already checked."""
    r, z = g.rows, g.rows[hub]
    path_signs = {r[u][v] ^ z[u] ^ z[v] for u, v in zip(path, path[1:])}
    if len(path_signs) != 4:
        found = sorted(ELEMENTS[s] for s in path_signs)
        raise ValueError(f"path edges carry {found}, need all four labels")
    ring = path + tuple(sorted(set(g.vertices()) - {hub} - set(path)))
    # per label, the least ring edge and the ring position after it
    per_sign: dict[int, tuple[tuple[int, int], int]] = {}
    for pos, (u, v) in enumerate(zip(ring, ring[1:] + ring[:1]), 1):
        e, s = (min(u, v), max(u, v)), r[u][v] ^ z[u] ^ z[v]
        if s not in per_sign or e < per_sign[s][0]:
            per_sign[s] = e, pos
    circles = [Circle(ring[:pos] + (hub,) + ring[pos:]) for _, pos in map(per_sign.get, ELEMENTS)]
    return _witness_set(g, circles, trace)


def _assemble_four_sign_path(
    g: SignedCompleteGraph, hub: int, structure: EdgeStructure
) -> Path:
    """Turn the four distinct-label witness edges into one simple path.

    When three or four of the edges meet at a vertex they cannot all lie
    on a path, but the absence of any all-distinct K4 forces the edge
    between two star leaves to repeat one of their star labels, which
    lets a two-edge detour carry both.  Disjoint pieces just concatenate;
    connector labels cannot reduce the four distinct labels already
    present.
    """
    edges = {s: e for s, e in structure.edges_by_sign.items()}
    sign_of = {e: s for s, e in edges.items()}
    z = g.rows[hub]

    def oriented_pair(l1: int, l2: int, s1: F22, s2: F22) -> list[int]:
        between = z[l1] ^ g.rows[l1][l2] ^ z[l2]
        if between == s1:
            return [l1, l2]
        if between == s2:
            return [l2, l1]
        raise _CaseFailed(
            f"leaf edge ({l1},{l2}) carries {between}, expected {s1} or {s2}"
        )

    if structure.case == 1:
        center = set.intersection(*(set(e) for e in edges.values())).pop()
        (l1, s1), (l2, s2), (l3, s3), (l4, s4) = sorted(
            ((e[0] if e[1] == center else e[1]), s) for e, s in sign_of.items()
        )
        left = oriented_pair(l1, l2, s1, s2)
        right = list(reversed(oriented_pair(l4, l3, s4, s3)))
        return Path(left + [center] + right)

    degree: dict[int, int] = {}
    for e in edges.values():
        for v in e:
            degree[v] = degree.get(v, 0) + 1

    if structure.case in (2, 3):
        center = next(v for v, d in degree.items() if d == 3)
        star = [e for e in edges.values() if center in e]
        other = next(e for e in edges.values() if center not in e)
        if structure.case == 2:
            attach = next(v for v in other if degree[v] == 2)
            tail = [attach, next(v for v in other if v != attach)]
            free_leaves = sorted(
                (next(v for v in e if v != center), sign_of[e])
                for e in star
                if attach not in e
            )
        else:
            u3 = max(next(v for v in e if v != center) for e in star)
            tail = [u3, min(other), max(other)]
            free_leaves = sorted(
                (next(v for v in e if v != center), sign_of[e])
                for e in star
                if u3 not in e
            )
        (l1, s1), (l2, s2) = free_leaves
        left = oriented_pair(l1, l2, s1, s2)
        return Path(left + [center] + tail)

    # Case 4: maximum degree 2 and acyclic, so components are paths.
    adjacency: dict[int, list[int]] = {}
    for u, v in edges.values():
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen: set[int] = set()
    pieces: list[list[int]] = []
    for start in sorted(adjacency):
        if start in seen or len(adjacency[start]) != 1:
            continue
        walk = [start]
        seen.add(start)
        while True:
            nxt = [w for w in adjacency[walk[-1]] if w not in seen]
            if not nxt:
                break
            walk.append(nxt[0])
            seen.add(nxt[0])
        pieces.append(walk)  # in order of first vertex, as starts ascend
    return Path([v for piece in pieces for v in piece])


def _construct_case_alpha(g: SignedCompleteGraph) -> WitnessSet:
    hub = 1
    try:
        structure = distinct_sign_edge_structure(g, hub)
    except (ValueError, TheoryViolationError) as exc:
        raise _CaseFailed(f"case alpha structure: {exc}") from None
    path = _assemble_four_sign_path(g, hub, structure)
    try:
        return _splice_hub(g, path.vertices, hub, f"lemma_c/case_alpha/case{structure.case}")
    except ValueError as exc:
        raise _CaseFailed(str(exc)) from None


# ---------------------------------------------------------------------------
# Diversity 4 with an all-distinct K4
# ---------------------------------------------------------------------------

def _k4_paths_by_sign(
    g: SignedCompleteGraph, z: Sequence[int], quad: Sequence[int], start: int
) -> dict[int, tuple[int, ...]]:
    """Least Hamiltonian path of the induced K4 from ``start`` per label,
    switched by ``z``, which acts on a path's label at its two ends only."""
    others = sorted(v for v in quad if v != start)
    r = g.rows
    out: dict[int, tuple[int, ...]] = {}
    for a, b, c in permutations(others):
        out.setdefault(r[start][a] ^ r[a][b] ^ r[b][c] ^ z[start] ^ z[c], (start, a, b, c))
    return out


def _necklace_circles(
    g: SignedCompleteGraph,
    z: Sequence[int],
    quad: Sequence[int],
    start: int,
    norm: int,
    ext: Sequence[int],
) -> list[Circle]:
    """Four-label K4 paths from ``start`` closed through ``norm`` (z: its switching row)."""
    paths = _k4_paths_by_sign(g, z, quad, start)
    if len(paths) != 4:
        raise CaseNotApplicableError(
            f"paths from {start} realize only {sorted(paths)} after normalizing {norm}"
        )
    return [Circle(paths[sign] + (norm, *ext)) for sign in ELEMENTS]


def necklace_construct(
    g: SignedCompleteGraph,
    k5_vertices: Sequence[int],
    hub_pair: tuple[int, int],
) -> WitnessSet:
    """Join four distinct-label K4 paths to an external ring.

    ``k5_vertices`` induce the block; ``hub_pair = (start, norm)`` names
    the path start inside the block's K4 and the block vertex to
    normalize, read as ``z = rows[norm]`` (``g`` need not be normalized
    there).  After normalization the four distinct-label Hamiltonian
    paths of the K4 from ``start`` (when they exist) extend through
    ``norm`` and around the remaining vertices at a constant label
    offset, so the four circle labels again cover everything.
    """
    k5 = tuple(sorted(set(int(v) for v in k5_vertices)))
    if len(k5) != 5:
        raise ValueError(f"need five distinct block vertices, got {k5_vertices}")
    start, norm = hub_pair
    if norm not in k5 or start not in k5 or start == norm:
        raise ValueError(f"bad anchor pair {hub_pair} for block {k5}")
    g.check_vertices(*k5)
    quad = tuple(v for v in k5 if v != norm)
    # triangle labels do not depend on the switching
    if not classify_k4(g, quad).is_all_distinct:
        raise CaseNotApplicableError(f"K4 {quad} does not have four distinct triangle labels")
    ext = sorted(set(g.vertices()) - set(k5))
    circles = _necklace_circles(g, g.rows[norm], quad, start, norm, ext)
    try:
        return _witness_set(g, circles, "necklace")
    except _CaseFailed as exc:  # unreachable: constant offset of 4 labels
        raise CounterexampleCandidateError(str(exc)) from None


def _case_beta_two_anchor(
    g: SignedCompleteGraph,
    z: Sequence[int],
    quad: tuple[int, ...],
    v5: int,
    v6: int,
) -> WitnessSet:
    """Two starts inside the K4, joined to the outside through v6.

    The K4 path labels from any vertex cover exactly three values here;
    entering the circle through edges of two different labels at v6
    shifts the three values by two different offsets, whose union is
    everything.  Labels are read with v5 normalized (``z = rows[v5]``).
    """
    entry = {u: g.rows[u][v6] ^ z[u] for u in quad}  # z[v6] is common to all four
    unequal = [(qa, qb) for qa, qb in combinations(sorted(quad), 2) if entry[qa] != entry[qb]]
    if not unequal:
        raise _CaseFailed("two-anchor join: no unequal edge pair at v6")
    anchors = unequal[0]
    mid = sorted(set(g.vertices()) - set(quad) - {v5, v6})
    circles = []
    for u in anchors:
        for sign, path in sorted(_k4_paths_by_sign(g, z, quad, u).items()):
            circles.append(Circle(path + (v5, *mid, v6)))
    return _witness_set(g, circles, "lemma_c/case_beta/case2")


def _case_beta_constant_bridges(
    g: SignedCompleteGraph,
    z: Sequence[int],
    quad: tuple[int, ...],
    v5: int,
    triple: CommonSignTriple | None,
) -> WitnessSet:
    """Every outside vertex sees the K4 with one constant label.

    Bridging through such vertices contributes each constant twice, so a
    circle's label reduces to what it picks up inside the K4.  At n = 6
    the four two-edge K4 paths with distinct labels embed directly; for
    larger n each of four distinct-label K4 edges rides a fixed frame
    through two bridges and the normalized vertex.  Labels, and the K4's
    common-label ``triple``, are read with v5 normalized (``z = rows[v5]``).
    """
    if triple is None:
        raise _CaseFailed("constant-bridge case without a common-label triple")
    outside = sorted(set(g.vertices()) - set(quad) - {v5})
    quad_edges = sorted((u, v) for u, v in combinations(sorted(quad), 2))

    if g.n == 6:
        v6 = outside[0]
        other_edges = sorted(e for e in quad_edges if e not in triple.edges)
        pairs = list(combinations(other_edges, 2)) + [
            tuple(sorted(triple.edges)[:2])
        ]
        circles = []
        for e1, e2 in pairs:
            shared = set(e1) & set(e2)
            if len(shared) != 1:
                raise _CaseFailed(f"edges {e1}, {e2} do not share one vertex")
            wmid = shared.pop()
            a, b = sorted((set(e1) | set(e2)) - {wmid})
            vc = next(v for v in quad if v not in (a, b, wmid))
            circles.append(Circle((a, wmid, b, v5, vc, v6)))
        return _witness_set(g, circles, "lemma_c/case_beta/case3a")

    v6, v7 = outside[0], outside[1]
    mid = sorted(set(outside) - {v6, v7})
    anchor = max(quad)
    chosen: dict[int, tuple[int, int]] = {}
    for u, v in quad_edges:
        chosen.setdefault(g.rows[u][v] ^ z[u] ^ z[v], (u, v))
    if len(chosen) != 4:
        raise _CaseFailed(f"K4 edges realize only {sorted(chosen)}")
    circles = []
    for sign in ELEMENTS:
        u, v = chosen[sign]
        if anchor in (u, v):
            other = u if v == anchor else v
            r2, s2 = sorted(set(quad) - {other, anchor})
            circles.append(Circle((other, anchor, *mid, v5, r2, v6, s2, v7)))
        else:
            s3 = next(w for w in quad if w not in (u, v, anchor))
            circles.append(Circle((u, v, v6, s3, v7, anchor, *mid, v5)))
    return _witness_set(g, circles, "lemma_c/case_beta/case3b")


def _construct_case_beta(g: SignedCompleteGraph, quad: tuple[int, ...]) -> WitnessSet:
    rows = g.rows
    outside = [v for v in g.vertices() if v not in quad]
    for v5 in outside:
        z = rows[v5]  # normalizes v5: edge u-v reads z[u] ^ rows[u][v] ^ z[v]
        if find_common_triple(g, quad, z) is None:
            ext = [v for v in outside if v != v5]
            for start in quad:
                try:
                    circles = _necklace_circles(g, z, quad, start, v5, ext)
                except CaseNotApplicableError:
                    continue
                return _witness_set(g, circles, "lemma_c/case_beta/case1")
            raise _CaseFailed("triple-free normalization but no four-label start")
    v5 = outside[0]
    z = rows[v5]
    for v6 in outside[1:]:
        if len({rows[u][v6] ^ z[u] for u in quad}) > 1:
            return _case_beta_two_anchor(g, z, quad, v5, v6)
    return _case_beta_constant_bridges(g, z, quad, v5, find_common_triple(g, quad, z))


# ---------------------------------------------------------------------------
# Fallback search and the public entry point
# ---------------------------------------------------------------------------

def _fallback_search(g: SignedCompleteGraph, note: str) -> WitnessSet:
    """Bounded verified search: insertion seeds, then 2-opt to depth 3."""
    n = g.n
    found: dict[F22, Circle] = {}
    frontier: list[Circle] = []
    seen: set[Circle] = set()

    def visit(c: Circle) -> None:
        if c in seen:
            return
        seen.add(c)
        frontier.append(c)
        found.setdefault(walk_sign(g, c), c)

    visit(Circle(tuple(range(1, n + 1))))
    for v in g.vertices():
        base = Circle(tuple(u for u in g.vertices() if u != v))
        for i, j in base.edges():
            visit(circle_symmetric_difference(g, base, Triangle.of(v, i, j)))

    depth = 0
    while len(found) < 4 and depth < 3:
        depth += 1
        current, frontier = frontier, []
        for c in current:
            vs = c.vertices
            for i in range(n - 1):
                for j in range(i + 1, n):
                    visit(Circle(vs[: i + 1] + vs[i + 1 : j + 1][::-1] + vs[j + 1 :]))
            if len(found) == 4:
                break
    if len(found) < 4:
        raise CounterexampleCandidateError(
            f"fallback exhausted at depth {depth} with labels {sorted(found)}; "
            f"originating condition: {note}"
        )
    return WitnessSet(
        tuple((found[s], s) for s in ELEMENTS), f"fallback/insertion_2opt({note})"
    )


def construct_witnesses(g: SignedCompleteGraph) -> WitnessSet:
    """Four Hamiltonian circles with pairwise distinct labels.

    Requires n > 5 and triangle diversity >= 3; refuses otherwise,
    carrying the spectrum prediction when diversity pins it.  The result
    always passes :func:`verify_witness_set` against the input graph.
    """
    census = triangle_census(g)
    div = census.diversity
    if div <= 2:
        raise RestrictedSpectrumError(_predict_from_census(g, census))
    if g.n <= 5:
        raise UnsupportedSizeError(
            f"witness construction needs n > 5, got n={g.n}"
        )
    try:
        if div == 3:
            ws = _construct_diversity3(g, sorted(census.signs))
        else:
            quad = first_all_distinct_k4(g)
            if quad is None:
                ws = _construct_case_alpha(g)
            else:
                ws = _construct_case_beta(g, quad)
    except _CaseFailed as exc:
        ws = _fallback_search(g, str(exc))
    verify_witness_set(g, ws)
    return ws
