"""Spectrum prediction and explicit witness-circle construction.

Triangle diversity decides everything.  With one or two triangle labels
the Hamiltonian spectrum is pinned to a singleton or a parity pair, and
construction is refused with that prediction attached.  With three or
more labels (and n > 5) four Hamiltonian circles realizing all four
labels exist, and this module builds them by a deterministic case
machine:

* diversity 3 — find three chained hub triangles with distinct labels,
  normalize the outer vertex, and ladder through vertex-insertion moves
  whose label shifts are forced;
* diversity 4 without an all-distinct K4 — normalize a hub, pick one
  edge per label, decide in one pass how the four edges meet, thread
  them into a path carrying all four labels, and rotate the hub through
  its edges;
* diversity 4 with an all-distinct K4 — one of three constructions: a
  K5 necklace around a vertex with four distinct-label paths, a
  two-anchor join when some outside vertex sees the K4 with unequal
  labels, or the constant-bridge construction when every outside vertex
  sees it uniformly.  There four two-edge K4 paths with distinct labels
  close through the normalized vertex and every outside vertex, which
  add one constant offset to all four labels, so one circle shape serves
  every n.

The structures each branch starts from (chained hub triangles, the
least edge per label off a hub, the first all-distinct K4) come from
:mod:`census`, the one module that reads triangle and K4 labels off a
graph's row table; a call makes one census pass and builds no table of
all triangles or K4s.
Every read of one K4 under one switching (whether its triangle labels
are all distinct, its common-label triple, the least path per label from
a start, the lemma_b frame) is a lookup in the one cache
:func:`census.k4_pattern`, keyed by the K4's 12-bit label pattern and so
bounded at 4,096 entries.  The K5 necklace is the triple-free
case_beta branch: it closes those paths through the normalized vertex
and then every outside vertex.

No branch builds a normalized graph.  Each reads v's normalization off
the input as the switching ``z = rows[v]`` (edge u-w:
``z[u] ^ rows[u][w] ^ z[w]``), writes insertion moves as vertex tuples
and builds a :class:`Circle` only for candidate witnesses.

Nothing the case machine produces is trusted: every witness set is
re-verified structurally (Hamiltonicity, recomputed labels,
distinctness) before being returned.  The case machine is the only
construction path: a branch that fails to apply is a bug or an instance
contradicting a lemma, and raises :class:`CounterexampleCandidateError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .census import (
    K4_EDGES,
    CommonSignTriple,
    K4Pattern,
    TriangleCensus,
    distinct_sign_edges,
    find_consecutive_distinct_triple,
    first_all_distinct_k4,
    is_forest,
    k4_key,
    k4_pattern,
    spectrum_mask,
    triangle_census,
)
from .graph import (
    Circle,
    Path,
    SignedCompleteGraph,
    walk_sign,
)
from .group import ELEMENTS, F22, NONZERO


class RestrictedSpectrumError(Exception):
    """Construction refused: diversity <= 2 pins the spectrum.

    Carries the prediction so callers still learn the achievable set.
    """

    def __init__(self, prediction: "SpectrumPrediction"):
        self.prediction = prediction
        labels = ", ".join(s.render() for s in sorted(prediction.values))
        super().__init__(f"triangle diversity bounds the spectrum to {{{labels}}}")


class UnsupportedSizeError(Exception):
    """Construction is only defined for n > 5."""


class CounterexampleCandidateError(Exception):
    """No verified witness set was found where one should exist.

    This is the triage signal: the instance contradicts a claim the case
    machine relies on, or exposed a bug.  The message names the condition
    that failed and the branch or construction step it failed in; it does
    not carry the instance, so a caller keeps the input to replay it.
    """


class WitnessVerificationError(Exception):
    """A witness set failed independent re-verification."""


@dataclass(frozen=True)
class SpectrumPrediction:
    """Predicted Hamiltonian label set with its provenance.

    ``kind`` is ``singleton`` (diversity 1), ``parity_pair`` (diversity
    2), ``full`` (diversity >= 3, n > 5) or ``small_n`` (diversity >= 3
    at n = 4 or 5, where a closed form from the triangle counts gives the
    exact set).
    """

    kind: str
    values: frozenset[F22]
    provenance: str


@dataclass(frozen=True)
class WitnessSet:
    """Four Hamiltonian circles realizing the four labels, with a trace.

    ``trace`` names the case-machine branch that built them, for
    reproducibility.
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
        raise CounterexampleCandidateError(
            f"{trace}: constructed circles realize only {sorted(labeled)}"
        )
    return WitnessSet(tuple((labeled[s], s) for s in ELEMENTS), trace)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_spectrum(g: SignedCompleteGraph) -> SpectrumPrediction:
    """Bound the Hamiltonian label set from the triangle census alone.

    One or two triangle labels pin it to :func:`census.spectrum_mask`, a
    singleton or a parity pair.  With three or more labels the full set
    is achievable for n > 5; at n = 4 and 5 a closed form gives the set.
    """
    return _predict_from_census(g, triangle_census(g))


def _predict_from_census(g: SignedCompleteGraph, census: TriangleCensus) -> SpectrumPrediction:
    div = census.diversity
    n = g.n
    if div <= 2:
        mask = spectrum_mask(sum(1 << s for s in census.signs), n)
        values = frozenset(s for s in ELEMENTS if mask >> s & 1)
        if div == 1:
            return SpectrumPrediction("singleton", values, "forced parity of one label")
        return SpectrumPrediction("parity_pair", values, "two-label parity bound")
    if n > 5:
        provenance = "lemma_b" if div == 3 else "lemma_c"
        return SpectrumPrediction("full", frozenset(ELEMENTS), provenance)
    # Diversity >= 3 at n = 4 or 5: closed forms equal to the oracle on every
    # instance.  At n = 4 (diversity 4) each circle sums two complementary
    # triangles; at n = 5 counts 2, 2, 2, 4 lose the label on four triangles.
    if n == 4:
        return SpectrumPrediction("small_n", frozenset(NONZERO), "n = 4 closed form")
    if sorted(census.counts.values()) == [2, 2, 2, 4]:
        values = frozenset(s for s, k in census.counts.items() if k != 4)
        return SpectrumPrediction("small_n", values, "n = 5 closed form")
    return SpectrumPrediction("small_n", frozenset(ELEMENTS), "n = 5 closed form")


# ---------------------------------------------------------------------------
# Diversity 3: the chained-triangle construction
# ---------------------------------------------------------------------------

def _chained_triple_moves(g: SignedCompleteGraph, quad: Sequence[int], v5: int) -> WitnessSet:
    """Witnesses from a chained-triple frame, read with v5 normalized.

    Normalized at v5, the four ``quad`` vertices span two triangles with
    distinct labels plus an edge carrying a third.  In a frame (v1, v2,
    v3, v4) with triangles v1-v2-v3 and v1-v3-v4 labeled x and y, two
    base circles avoiding v5 differ by where v3 sits, and inserting v5
    across the edges v1-v4, v3-v4, v1-v3, v1-v2 shifts their labels by
    those edges' labels — exact arithmetic, so the frame that makes all
    four results distinct is selected before building anything, once per
    K4 label pattern (:func:`census.k4_pattern`).  The admissible
    assignments fall into two label patterns, and in each some frame
    works.
    """
    qs = sorted(quad)
    pattern = k4_pattern(k4_key(g.rows, qs, g.rows[v5]))
    if pattern.panel is None:
        raise CounterexampleCandidateError(
            "lemma_b/case1: no frame of either panel yields four distinct labels"
        )
    v1, v2, v3, v4 = (qs[i] for i in pattern.frame)
    rest = [v for v in g.vertices() if v not in qs and v != v5]
    moves = [
        (v4, v5, v1, v3, v2, *rest),  # base (v4, v1, v3, v2, *rest) across v1-v4
        (v4, v5, v3, v1, v2, *rest),  # base (v4, v3, v1, v2, *rest) across v3-v4
        (v4, v3, v5, v1, v2, *rest),  # the same base across v1-v3
        (v4, v3, v1, v5, v2, *rest),  # the same base across v1-v2
    ]
    return _witness_set(g, [Circle(vs) for vs in moves], f"lemma_b/case1/{pattern.panel}")


def _construct_diversity3(g: SignedCompleteGraph) -> WitnessSet:
    # Diversity 3 puts three labels on the triangles through every hub,
    # so the chained-triple finder succeeds at hub 1 (see its proof).
    found = find_consecutive_distinct_triple(g, 1)
    if found is None:
        raise CounterexampleCandidateError("lemma_b: diversity 3 but no chained triple at hub 1")
    a, b, c, d = found
    return _chained_triple_moves(g, (1, a, b, c), d)


# ---------------------------------------------------------------------------
# Diversity 4 without an all-distinct K4: four-label path through a hub
# ---------------------------------------------------------------------------

def _four_sign_path(g: SignedCompleteGraph, hub: int) -> tuple[int, tuple[int, ...]]:
    """The case and the simple path through the least edge per label off
    the hub (:func:`census.distinct_sign_edges`), read with the hub
    normalized.

    Without an all-distinct K4 the four edges form a forest (claim
    ``case_alpha_forest``); a cycle raises ``ValueError``.  The case is 1
    when all four meet at one vertex, 2 or 3 for a 3-star with the fourth
    edge attached to a leaf or disjoint, and 4 for disjoint paths.  Edges
    at a star centre cannot all lie on a path, but the absence of any
    all-distinct K4 forces the edge between two star leaves to repeat one
    of their star labels, which lets a two-edge detour carry both.
    Disjoint pieces just concatenate; connector labels cannot reduce the
    four distinct labels already present.
    """
    by_sign = distinct_sign_edges(g, hub)
    edges = sorted(by_sign.values())
    if not is_forest(edges):
        raise ValueError(f"distinct-label edges {edges} contain a cycle")
    degree = Counter(v for e in edges for v in e)
    z = g.rows[hub]

    def oriented_pair(l1: int, l2: int, s1: F22, s2: F22) -> list[int]:
        between = z[l1] ^ g.rows[l1][l2] ^ z[l2]
        if between == s1:
            return [l1, l2]
        if between == s2:
            return [l2, l1]
        raise CounterexampleCandidateError(
            f"leaf edge ({l1},{l2}) carries {between}, expected {s1} or {s2}"
        )

    center, top = degree.most_common(1)[0]
    if top >= 3:
        leaves = {u if v == center else v: s for s, (u, v) in by_sign.items() if center in (u, v)}
        if top == 4:
            (l1, s1), (l2, s2), (l3, s3), (l4, s4) = sorted(leaves.items())
            left = oriented_pair(l1, l2, s1, s2)
            right = reversed(oriented_pair(l4, l3, s4, s3))
            return 1, Path(left + [center, *right]).vertices
        # the tail starts at the leaf the fourth edge touches (case 2), or
        # else at the largest leaf, from which the disjoint edge follows
        other = next(e for e in edges if center not in e)
        attach = next((v for v in other if v in leaves), max(leaves))
        (l1, s1), (l2, s2) = sorted((v, s) for v, s in leaves.items() if v != attach)
        tail = [center, attach, *sorted(set(other) - {attach})]
        return 2 if attach in other else 3, Path(oriented_pair(l1, l2, s1, s2) + tail).vertices

    # Case 4: maximum degree 2 and acyclic, so components are paths.
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen: set[int] = set()
    pieces: list[list[int]] = []
    for start in sorted(adjacency):
        if start in seen or degree[start] != 1:
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
    return 4, Path([v for piece in pieces for v in piece]).vertices


def _construct_case_alpha(g: SignedCompleteGraph) -> WitnessSet:
    """Witnesses from a path off hub 1 whose edges carry all four labels,
    read with the hub normalized (``z = rows[hub]``).

    The path extends to a Hamiltonian path of the graph minus the hub and
    closes into a circle there.  Splicing the hub into an edge of label s
    replaces s by two identity labels, so the four splices across one edge
    per label realize the full label set.
    """
    hub = 1
    r, z = g.rows, g.rows[hub]
    try:
        case, path = _four_sign_path(g, hub)
    except ValueError as exc:
        raise CounterexampleCandidateError(f"lemma_c/case_alpha: {exc}") from exc
    path_signs = {r[u][v] ^ z[u] ^ z[v] for u, v in zip(path, path[1:])}
    if len(path_signs) != 4:
        found = sorted(ELEMENTS[s] for s in path_signs)
        raise CounterexampleCandidateError(
            f"lemma_c/case_alpha: path edges carry {found}, need all four labels"
        )
    ring = path + tuple(sorted(set(g.vertices()) - {hub} - set(path)))
    # per label, the least ring edge and the ring position after it
    per_sign: dict[int, tuple[tuple[int, int], int]] = {}
    for pos, (u, v) in enumerate(zip(ring, ring[1:] + ring[:1]), 1):
        e, s = (min(u, v), max(u, v)), r[u][v] ^ z[u] ^ z[v]
        if s not in per_sign or e < per_sign[s][0]:
            per_sign[s] = e, pos
    circles = [Circle(ring[:pos] + (hub,) + ring[pos:]) for _, pos in map(per_sign.get, ELEMENTS)]
    return _witness_set(g, circles, f"lemma_c/case_alpha/case{case}")


# ---------------------------------------------------------------------------
# Diversity 4 with an all-distinct K4
# ---------------------------------------------------------------------------

def _case_beta_two_anchor(
    g: SignedCompleteGraph,
    z: Sequence[int],
    quad: tuple[int, ...],
    pattern: K4Pattern,
    v5: int,
    v6: int,
) -> WitnessSet:
    """Two starts inside the K4, joined to the outside through v6.

    The K4 path labels from any vertex cover exactly three values here;
    entering the circle through edges of two different labels at v6
    shifts the three values by two different offsets, whose union is
    everything.  Labels are read with v5 normalized (``z = rows[v5]``,
    under which ``pattern`` was keyed).
    """
    entry = [g.rows[u][v6] ^ z[u] for u in quad]  # z[v6] is common to all four
    anchors = next((i, j) for i, j in K4_EDGES if entry[i] != entry[j])
    mid = sorted(set(g.vertices()) - set(quad) - {v5, v6})
    circles = [
        Circle((quad[i], quad[j], quad[k], quad[m], v5, *mid, v6))
        for a in anchors
        for i, j, k, m in filter(None, pattern.paths[a])
    ]
    return _witness_set(g, circles, "lemma_c/case_beta/case2")


def _case_beta_constant_bridges(
    g: SignedCompleteGraph,
    quad: tuple[int, ...],
    v5: int,
    triple: CommonSignTriple,
) -> WitnessSet:
    """Every outside vertex sees the K4 with one constant label.

    Read with v5 normalized (where the K4 has the common-label
    ``triple``), the circle (a, w, b, v5, c, *outside) takes two identity
    edges at v5, and each outside vertex meets every K4 vertex with one
    label, so its edges from c and back to a, like the walk through the
    outside vertices, carry labels that do not depend on a, b, c or w.
    Its label is therefore the label of the K4 path a-w-b plus one
    constant offset.  The four pairs of edges chosen here (two outside
    the triple, or the least two of the triple) each share one vertex w
    and give four K4 paths with distinct labels, so the four circles have
    distinct labels at every n.
    """
    outside = sorted(set(g.vertices()) - set(quad) - {v5})
    other_edges = sorted(e for e in combinations(sorted(quad), 2) if e not in triple.edges)
    pairs = [*combinations(other_edges, 2), tuple(sorted(triple.edges)[:2])]
    circles = []
    for e1, e2 in pairs:
        (w,) = set(e1) & set(e2)
        a, b = sorted({*e1, *e2} - {w})
        (c,) = set(quad) - {a, b, w}
        circles.append(Circle((a, w, b, v5, c, *outside)))
    return _witness_set(g, circles, "lemma_c/case_beta/case3a")


def _construct_case_beta(g: SignedCompleteGraph, quad: tuple[int, ...]) -> WitnessSet:
    # ``quad`` comes sorted from first_all_distinct_k4, so K4 pattern
    # indices map back through it
    rows = g.rows
    outside = [v for v in g.vertices() if v not in quad]
    kept = None  # the K4 pattern at outside[0]
    for v5 in outside:
        z = rows[v5]  # normalizes v5: edge u-v reads z[u] ^ rows[u][v] ^ z[v]
        pattern = k4_pattern(k4_key(rows, quad, z))
        if pattern.triple is None:
            # close the four distinct-label K4 paths from one start
            # through v5 and then the outside vertices in order: every
            # circle gains the same offset, so its labels stay distinct
            for paths in pattern.paths:
                if None not in paths:
                    ext = [v for v in outside if v != v5]
                    circles = [Circle((quad[i], quad[j], quad[k], quad[m], v5, *ext))
                               for i, j, k, m in paths]
                    return _witness_set(g, circles, "lemma_c/case_beta/case1")
            raise CounterexampleCandidateError("triple-free normalization but no four-label start")
        if kept is None:
            kept = pattern
    v5 = outside[0]
    z = rows[v5]
    for v6 in outside[1:]:
        if len({rows[u][v6] ^ z[u] for u in quad}) > 1:
            return _case_beta_two_anchor(g, z, quad, kept, v5, v6)
    return _case_beta_constant_bridges(g, quad, v5, kept.triple.on(quad))


# ---------------------------------------------------------------------------
# The public entry point
# ---------------------------------------------------------------------------

def construct_witnesses(g: SignedCompleteGraph) -> WitnessSet:
    """Four Hamiltonian circles with pairwise distinct labels.

    Requires n > 5 and triangle diversity >= 3; refuses otherwise,
    carrying the spectrum prediction when diversity pins it.  The case
    machine is the only construction path; where it misses, the call
    raises :class:`CounterexampleCandidateError` naming the branch.  The
    result always passes :func:`verify_witness_set` against the input
    graph.
    """
    census = triangle_census(g)
    div = census.diversity
    if div <= 2:
        raise RestrictedSpectrumError(_predict_from_census(g, census))
    if g.n <= 5:
        raise UnsupportedSizeError(
            f"witness construction needs n > 5, got n={g.n}"
        )
    if div == 3:
        ws = _construct_diversity3(g)
    else:
        quad = first_all_distinct_k4(g)
        if quad is None:
            ws = _construct_case_alpha(g)
        else:
            ws = _construct_case_beta(g, quad)
    verify_witness_set(g, ws)
    return ws
