"""Machine verification of every structural claim, over finite domains.

Each claim has a stable identifier and a verifier that re-derives it from
group, graph, census, sweep and oracle primitives — never from the
constructive solver — so a solver bug cannot vouch for itself.  Triangle
and K4 labels come from :mod:`census`; spectra from the oracle or, on
exhaustive families, from the vectorized sweep.  Exhaustive scopes
enumerate their whole domain exactly once; random scopes draw seeded
instances so a failing report can be replayed from its embedded seed.

Claim registry (see ``describe`` for one-line statements):

==================  ========================================================
id                  domain
==================  ========================================================
lemma1              graphs: few triangle labels force few per K4
lemma5              graphs: with 3 labels, every hub basis realizes all 3
lemma22             graphs: <= 2 labels pin the spectrum to a parity pair
remark1             graphs: 1 label pins the spectrum to a point
proposition_norm    graphs: normalization turns edges into old triangle labels
lemma11             group: one shared summand spreads pair sums over everything
lemma12             group: matched or complementary summands pair up
lemma14             K4: short of all-distinct, triangle labels pair up x,x,y,y
key_lemma           K4: per-label Hamiltonian path counts are even
table1              K4: the agree / not-agree dichotomy per disjoint edge pair
lemma4              K4: per-start path multisets are p,p,q,q,s,s or p,q,s,t,t,t
lemma_same          K4: equal 2-2-2 multisets <=> common-label triple
                    <=> one label missing from all paths
thm11               K4: a four-label start vertex exists iff no common triple
lemma_b             graphs: exactly 3 labels give the full spectrum (n > 5)
lemma_c             graphs: 4 labels give the full spectrum (n > 5)
case_alpha_forest   graphs: the four label-witness edges form a forest
case_beta           graphs: an all-distinct K4 gives the full spectrum (n > 5)
==================  ========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Optional

import numpy as np

from .census import (
    TheoryViolationError,
    classify_k4,
    distinct_sign_edge_structure,
    first_all_distinct_k4,
    is_forest,
    k4_label_counts,
    triangle_census,
)
from .cycle_space import basis
from .graph import SignedCompleteGraph, all_edges, triangle_sign
from .group import ELEMENTS, F22, NONZERO, pair_sums
from .io_gen import free_edges, gen_random, normalized_domain_size
from .oracle import hamiltonian_paths_spectrum, hamiltonian_spectrum, k4_path_report
from .switching import normalize_at
from . import sweep as sweep_mod


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExhaustiveK4:
    """All 4^6 labelings of the six K4 edges."""

    def describe(self) -> str:
        return "all 4^6 = 4096 K4 labelings"


@dataclass(frozen=True)
class ExhaustiveGroup:
    """All group quadruples satisfying a claim's hypothesis (<= 256)."""

    def describe(self) -> str:
        return "all qualifying group quadruples (<= 256)"


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class ExhaustiveNormalized:
    """All hub-normalized labelings at a given n >= 3."""

    n: int

    def __post_init__(self) -> None:
        _at_least("N", self.n, 3)

    def describe(self) -> str:
        return f"all {normalized_domain_size(self.n)} hub-normalized labelings at n={self.n}"


@dataclass(frozen=True)
class RandomScope:
    """Seeded instances gen_random(n, seed), ..., gen_random(n, seed+count-1),
    for n >= 3 and count >= 1."""

    n: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        _at_least("N", self.n, 3)
        _at_least("COUNT", self.count, 1)

    def describe(self) -> str:
        return f"{self.count} seeded random instances at n={self.n} (seed {self.seed})"


Scope = ExhaustiveK4 | ExhaustiveGroup | ExhaustiveNormalized | RandomScope


def parse_scope(text: str, seed: int = 0) -> Scope:
    """Parse a scope spec: ``exhaustive_k4``, ``exhaustive_group``,
    ``exhaustive_normalized:N`` or ``random:N:COUNT``."""
    parts = text.strip().replace("(", ":").rstrip(")").split(":")
    kind = parts[0]
    if kind == "exhaustive_k4":
        return ExhaustiveK4()
    if kind == "exhaustive_group":
        return ExhaustiveGroup()
    try:
        if kind == "exhaustive_normalized":
            if len(parts) != 2:
                raise ValueError("expected exhaustive_normalized:N")
            return ExhaustiveNormalized(_scope_int(parts[1], "N"))
        if kind == "random":
            if len(parts) != 3:
                raise ValueError("expected random:N:COUNT")
            return RandomScope(_scope_int(parts[1], "N"), _scope_int(parts[2], "COUNT"), seed)
    except ValueError as exc:
        raise ValueError(f"scope {text!r}: {exc}") from None
    raise ValueError(f"unknown scope {text!r}")


def _scope_int(token: str, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{name} must be an integer") from None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

MAX_STORED_VIOLATIONS = 25


@dataclass
class VerificationReport:
    """Outcome of one claim over one domain."""

    lemma: str
    domain: str
    scanned: int
    violations: list = field(default_factory=list)
    violation_count: int = 0
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def add_violation(self, detail: dict) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_STORED_VIOLATIONS:
            self.violations.append(detail)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "domain": self.domain,
            "scanned": self.scanned,
            "passed": self.passed,
            "violation_count": self.violation_count,
            "violations": self.violations,
            "elapsed_seconds": round(self.elapsed, 3),
            "stats": self.stats,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({self.violation_count} violations)"
        return (
            f"{self.lemma}: {status} over {self.domain} "
            f"[{self.scanned} scanned, {self.elapsed:.2f}s]"
        )


# ---------------------------------------------------------------------------
# K4 domain helpers
# ---------------------------------------------------------------------------

K4_DOMAIN_SIZE = 4096


def k4_from_index(index: int) -> SignedCompleteGraph:
    """The K4 whose six edge labels are the base-4 digits of ``index``."""
    buf = bytearray(6)
    for k in range(6):
        buf[k] = (index >> (2 * k)) & 3
    return SignedCompleteGraph(4, bytes(buf))


def _k4_domain() -> Iterable[tuple[int, SignedCompleteGraph]]:
    for index in range(K4_DOMAIN_SIZE):
        yield index, k4_from_index(index)


def _canonical_sigma4star(g: SignedCompleteGraph) -> Optional[list[int]]:
    """Vertex order putting an all-distinct K4 into the fixed label frame.

    Returns [v1, v2, v3, v4] such that the triangle omitting v1 carries
    the identity and the triangles omitting v4, v3, v2 carry a, b, c —
    the frame used by the K4 path analysis.  None if not all-distinct.
    """
    # Triangle labels in combinations order: 123, 124, 134, 234.
    omitted = dict(zip(classify_k4(g, (1, 2, 3, 4)).triangle_signs, (4, 3, 2, 1)))
    if len(omitted) != 4:
        return None
    return [omitted[F22.E], omitted[F22.C], omitted[F22.B], omitted[F22.A]]


# ---------------------------------------------------------------------------
# Individual verifiers
# ---------------------------------------------------------------------------

def _graph_instances(scope: Scope) -> Iterable[tuple[int, SignedCompleteGraph]]:
    if isinstance(scope, RandomScope):
        for i in range(scope.count):
            yield scope.seed + i, gen_random(scope.n, scope.seed + i)
    elif isinstance(scope, ExhaustiveK4):
        yield from _k4_domain()
    else:
        raise TypeError(f"not an instance scope: {scope}")


def _verify_lemma1(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Diversity <= 3 forces every K4 to at most two triangle labels."""
    if isinstance(scope, ExhaustiveNormalized):
        sw = sweep_mod.run_normalized_sweep(scope.n, jobs=jobs)
        report.scanned = sw.size
        for idx in np.nonzero(sw.quad3)[0]:
            report.add_violation({"index": int(idx), "detail": "K4 with exactly 3 labels"})
        for idx in np.nonzero((sw.diversity <= 3) & sw.sigma4star)[0]:
            report.add_violation(
                {"index": int(idx), "detail": "diversity <= 3 with an all-distinct K4"}
            )
        report.stats["sigma4star_count"] = int(sw.sigma4star.sum())
        return
    for key, g in _graph_instances(scope):
        report.scanned += 1
        div = triangle_census(g).diversity
        worst = max((k for _, k in k4_label_counts(g)), default=0)
        if worst == 3:
            report.add_violation({"instance": key, "detail": "K4 with exactly 3 labels"})
        if div <= 3 and worst > 2:
            report.add_violation(
                {"instance": key, "detail": f"diversity {div} but a K4 has {worst} labels"}
            )


def _verify_lemma5(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """With exactly three triangle labels, every hub basis realizes all three."""
    if isinstance(scope, ExhaustiveNormalized):
        sw = sweep_mod.run_normalized_sweep(scope.n, jobs=jobs)
        report.scanned = sw.size
        bad = np.nonzero((sw.diversity == 3) & (sw.edge_mask != sw.tri_mask))[0]
        for idx in bad:
            report.add_violation({"index": int(idx), "detail": "hub basis misses a label"})
        report.stats["diversity3_count"] = int((sw.diversity == 3).sum())
        return
    for key, g in _graph_instances(scope):
        report.scanned += 1
        census = triangle_census(g)
        if census.diversity != 3:
            continue
        for hub in g.vertices():
            if set(basis(g, hub).signs) != census.signs:
                report.add_violation(
                    {"instance": key, "hub": hub, "detail": "basis misses a label"}
                )


#: Spectrum-bound claims: which instances each covers (from diversity and
#: whether an all-distinct K4 exists), whether the Hamiltonian label set
#: must equal the bound implied by the triangle labels or only lie inside
#: it, and the violation text for a single instance.
_SPECTRUM_BOUNDS = {
    "lemma22": (lambda div, star: div <= 2, False, "parity bound broken"),
    "remark1": (lambda div, star: div == 1, True, "forced label broken"),
    "lemma_b": (lambda div, star: div == 3, True, "spectrum not full"),
    "lemma_c": (lambda div, star: div == 4, True, "spectrum not full"),
    "case_beta": (lambda div, star: star, True, "spectrum not full"),
}


def _breaks_bound(spec_mask, allowed, exact: bool):
    if exact:
        return spec_mask != allowed
    return (spec_mask & ~allowed) != 0


def _spectrum_bound_violations(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Shared body for lemma22 / remark1 / lemma_b / lemma_c / case_beta."""
    covers, exact, detail = _SPECTRUM_BOUNDS[report.lemma]
    if isinstance(scope, ExhaustiveNormalized):
        sw = sweep_mod.run_normalized_sweep(scope.n, jobs=jobs)
        report.scanned = sw.size
        allowed = sweep_mod.allowed_spectrum_mask(sw.tri_mask, scope.n)
        mask = covers(sw.diversity, sw.sigma4star)
        report.stats["qualifying"] = int(mask.sum())
        for idx in np.nonzero(mask & _breaks_bound(sw.spec_mask, allowed, exact))[0]:
            report.add_violation({"index": int(idx), "detail": f"{report.lemma} spectrum bound"})
        return
    for key, g in _graph_instances(scope):
        report.scanned += 1
        census = triangle_census(g)
        if not covers(census.diversity, first_all_distinct_k4(g) is not None):
            continue
        tri_mask = np.array([sum(1 << s for s in census.signs)], dtype=np.uint8)
        allowed = int(sweep_mod.allowed_spectrum_mask(tri_mask, g.n)[0])
        spec_mask = sum(1 << s for s in hamiltonian_spectrum(g).realized)
        if _breaks_bound(spec_mask, allowed, exact):
            report.add_violation({"instance": key, "detail": detail})


def _verify_proposition_norm(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Normalizing v rewrites each remaining edge to its old triangle label."""
    for key, g in _graph_instances(scope):
        report.scanned += 1
        census_signs = triangle_census(g).signs
        div = len(census_signs)
        for v in g.vertices():
            gn, _ = normalize_at(g, v)
            for u in g.vertices():
                if u != v and gn.sign(u, v) != F22.E:
                    report.add_violation({"instance": key, "detail": f"star at {v} not identity"})
            for a, b in all_edges(g.n):
                if v in (a, b):
                    continue
                expect = triangle_sign(g, (a, b, v))
                if gn.sign(a, b) != expect:
                    report.add_violation(
                        {"instance": key, "detail": f"edge ({a},{b}) wrong after normalizing {v}"}
                    )
                elif div == 3 and expect not in census_signs:
                    report.add_violation(
                        {"instance": key, "detail": "edge label outside the three"}
                    )


def _verify_lemma11(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """One shared value between the pairs spreads the four sums over all."""
    for y1 in NONZERO:
        for y2 in NONZERO:
            if y1 == y2:
                continue
            for z1 in ELEMENTS:
                for z2 in ELEMENTS:
                    if z1 == z2:
                        continue
                    shared = len({y1, y2} & {z1, z2})
                    if shared != 1:
                        continue
                    report.scanned += 1
                    if set(pair_sums(y1, y2, z1, z2)) != set(ELEMENTS):
                        report.add_violation(
                            {"tuple": [str(v) for v in (y1, y2, z1, z2)]}
                        )


def _verify_lemma12(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Matched or complementary pairs collapse the sums to x, x, y, y."""
    for y1 in NONZERO:
        for y2 in NONZERO:
            if y1 == y2:
                continue
            complement = set(ELEMENTS) - {y1, y2}
            for z1 in ELEMENTS:
                for z2 in ELEMENTS:
                    if z1 == z2:
                        continue
                    if {z1, z2} != {y1, y2} and {z1, z2} != complement:
                        continue
                    report.scanned += 1
                    sums = pair_sums(y1, y2, z1, z2)
                    values = sorted(set(sums))
                    counts = sorted(sums.count(v) for v in values)
                    if counts != [2, 2]:
                        report.add_violation(
                            {"tuple": [str(v) for v in (y1, y2, z1, z2)],
                             "sums": [str(s) for s in sums]}
                        )


def _verify_lemma14(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """All four K4 triangle labels sum to identity; short of all-distinct
    they pair up as x, x, y, y."""
    for index, g in _k4_domain():
        report.scanned += 1
        tris = classify_k4(g, (1, 2, 3, 4)).triangle_signs
        if tris[0] ^ tris[1] ^ tris[2] ^ tris[3]:
            report.add_violation({"index": index, "detail": "triangle labels do not sum to e"})
        counts = sorted(tris.count(v) for v in set(tris))
        if counts not in ([1, 1, 1, 1], [4], [2, 2]):
            report.add_violation({"index": index, "detail": f"pattern {counts} not x,x,y,y"})


def _verify_key_lemma(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """On all-distinct K4s, each label is hit by an even number of paths."""
    star_count = 0
    for index, g in _k4_domain():
        report.scanned += 1
        if _canonical_sigma4star(g) is None:
            continue
        star_count += 1
        totals = k4_path_report(g).totals
        odd = [str(s) for s, c in totals.items() if c % 2]
        if odd:
            report.add_violation({"index": index, "odd_labels": odd})
    report.stats["sigma4star_count"] = star_count


_TABLE1_AGREE = {
    F22.A: (True, True, False),
    F22.E: (False, True, True),
    F22.B: (True, False, True),
    F22.C: (False, False, False),
}


def _verify_table1(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Disjoint-pair dichotomy: when the pair sum matches a containing
    circle's label the four paths of the group realize all labels,
    otherwise they pair up s, s, t, t."""
    for index, g in _k4_domain():
        order = _canonical_sigma4star(g)
        if order is None:
            continue
        report.scanned += 1
        rows = g.rows

        def sig(a: int, b: int) -> int:
            return rows[order[a - 1]][order[b - 1]]
        circle_signs = {
            "C1": sig(1, 2) ^ sig(2, 3) ^ sig(3, 4) ^ sig(1, 4),
            "C2": sig(1, 2) ^ sig(2, 4) ^ sig(3, 4) ^ sig(1, 3),
            "C3": sig(1, 3) ^ sig(2, 3) ^ sig(2, 4) ^ sig(1, 4),
        }
        if (circle_signs["C1"], circle_signs["C2"], circle_signs["C3"]) != (
            F22.B,
            F22.A,
            F22.C,
        ):
            report.add_violation({"index": index, "detail": "canonical circle labels off"})
            continue
        groups = [
            ((1, 2), (3, 4), "C1", "C2"),
            ((1, 4), (2, 3), "C1", "C3"),
            ((1, 3), (2, 4), "C2", "C3"),
        ]
        s_first = sig(1, 2) ^ sig(3, 4)
        expect_agree = _TABLE1_AGREE[s_first]
        for gi, (ea, eb, ca, cb) in enumerate(groups):
            pair_sum = sig(*ea) ^ sig(*eb)
            agree = pair_sum in (circle_signs[ca], circle_signs[cb])
            if agree is not expect_agree[gi]:
                report.add_violation(
                    {"index": index, "group": gi + 1, "detail": "agree label off-table"}
                )
            group_signs = sorted(
                circle_signs[c] ^ sig(*e) for c in (ca, cb) for e in (ea, eb)
            )
            if agree:
                ok = len(set(group_signs)) == 4
            else:
                values = sorted(set(group_signs))
                ok = len(values) == 2 and all(group_signs.count(v) == 2 for v in values)
            if not ok:
                report.add_violation(
                    {"index": index, "group": gi + 1,
                     "signs": [str(ELEMENTS[s]) for s in group_signs],
                     "detail": "dichotomy broken"}
                )


def _verify_lemma4(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Per-start path multisets on all-distinct K4s: 2+2+2 or 3+1+1+1."""
    for index, g in _k4_domain():
        if _canonical_sigma4star(g) is None:
            continue
        report.scanned += 1
        for start in (1, 2, 3, 4):
            ms = hamiltonian_paths_spectrum(g, start)
            values = sorted(set(ms))
            counts = sorted(ms.count(v) for v in values)
            if counts not in ([2, 2, 2], [1, 1, 1, 3]):
                report.add_violation(
                    {"index": index, "start": start, "multiset": [str(s) for s in ms]}
                )


def _verify_lemma_same(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Three-way equivalence on all-distinct K4s: equal 2-2-2 multisets at
    two starts <=> a common-label triple (star or triangle) <=> a label no
    path realizes; all three name the same label."""
    for index, g in _k4_domain():
        if _canonical_sigma4star(g) is None:
            continue
        report.scanned += 1
        multisets = {v: hamiltonian_paths_spectrum(g, v) for v in (1, 2, 3, 4)}

        def shape222(ms: tuple[F22, ...]) -> bool:
            values = set(ms)
            return len(values) == 3 and all(ms.count(v) == 2 for v in values)

        witness_pairs = [
            (i, j)
            for i, j in combinations((1, 2, 3, 4), 2)
            if multisets[i] == multisets[j] and shape222(multisets[i])
        ]
        p1 = bool(witness_pairs)
        k4 = classify_k4(g, (1, 2, 3, 4))
        p2 = k4.common_triple is not None
        totals = k4_path_report(g).totals
        missing = [s for s in ELEMENTS if totals[s] == 0]
        p3 = bool(missing)
        if not (p1 == p2 == p3):
            report.add_violation(
                {"index": index, "p1": p1, "p2": p2, "p3": p3}
            )
            continue
        if p1:
            if len(missing) != 1:
                report.add_violation({"index": index, "detail": f"{len(missing)} labels missing"})
                continue
            gap = missing[0]
            if k4.common_triple.sign != gap:
                report.add_violation(
                    {"index": index, "detail": "triple label differs from missing label"}
                )
            for i, j in witness_pairs:
                if set(multisets[i]) != set(ELEMENTS) - {gap}:
                    report.add_violation(
                        {"index": index, "detail": "witness multiset misses wrong label"}
                    )


def _verify_thm11(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """A start with four distinct path labels exists iff no common triple."""
    for index, g in _k4_domain():
        if _canonical_sigma4star(g) is None:
            continue
        report.scanned += 1
        has_four = any(
            len(set(hamiltonian_paths_spectrum(g, v))) == 4 for v in (1, 2, 3, 4)
        )
        no_triple = classify_k4(g, (1, 2, 3, 4)).common_triple is None
        if has_four is not no_triple:
            report.add_violation(
                {"index": index, "four_label_start": has_four, "triple_free": no_triple}
            )


def _verify_case_alpha_forest(scope: Scope, report: VerificationReport, jobs: int) -> None:
    """Diversity 4 without an all-distinct K4: the per-label least edges
    off a normalized hub exist and form a forest."""
    if isinstance(scope, ExhaustiveNormalized):
        sw = sweep_mod.run_normalized_sweep(scope.n, jobs=jobs)
        report.scanned = sw.size
        qualifying = (sw.diversity == 4) & ~sw.sigma4star
        report.stats["qualifying"] = int(qualifying.sum())
        if not qualifying.any():
            return
        missing = qualifying & (sw.edge_mask != 15)
        for idx in np.nonzero(missing)[0]:
            report.add_violation({"index": int(idx), "detail": "a label is missing off-hub"})
        fe = free_edges(scope.n)
        m = len(fe)
        lut = np.zeros(m ** 4, dtype=bool)
        for key in range(m ** 4):
            lut[key] = is_forest([fe[(key // m**p) % m] for p in range(4)])
        f = sw.first_edge.astype(np.int64)
        keys = f[:, 0] + m * f[:, 1] + m * m * f[:, 2] + m ** 3 * f[:, 3]
        good = lut[keys]
        bad = qualifying & (sw.edge_mask == 15) & ~good
        for idx in np.nonzero(bad)[0]:
            report.add_violation({"index": int(idx), "detail": "witness edges contain a cycle"})
        return
    for key, g in _graph_instances(scope):
        report.scanned += 1
        if triangle_census(g).diversity != 4 or first_all_distinct_k4(g) is not None:
            continue
        report.stats["qualifying"] = report.stats.get("qualifying", 0) + 1
        try:
            distinct_sign_edge_structure(g, 1)
        except TheoryViolationError:
            report.add_violation({"instance": key, "detail": "witness edges contain a cycle"})
        except ValueError as exc:
            report.add_violation({"instance": key, "detail": str(exc)})


# ---------------------------------------------------------------------------
# Registry and entry point
# ---------------------------------------------------------------------------

_GRAPH_SCOPES = (ExhaustiveK4, ExhaustiveNormalized, RandomScope)

_REGISTRY: dict[str, tuple[Callable, tuple, str]] = {
    "lemma1": (_verify_lemma1, _GRAPH_SCOPES,
               "diversity <= 3 forces every K4 to at most two triangle labels"),
    "lemma5": (_verify_lemma5, (ExhaustiveNormalized, RandomScope),
               "diversity 3 means every hub basis realizes all three labels"),
    "lemma22": (_spectrum_bound_violations,
                (ExhaustiveNormalized, RandomScope),
                "diversity <= 2 bounds the spectrum by the parity pair"),
    "remark1": (_spectrum_bound_violations,
                (ExhaustiveNormalized, RandomScope),
                "diversity 1 pins the spectrum to one forced label"),
    "proposition_norm": (_verify_proposition_norm, (ExhaustiveK4, RandomScope),
                         "normalizing rewrites each edge to its old triangle label"),
    "lemma11": (_verify_lemma11, (ExhaustiveGroup,),
                "one shared value spreads the four pair sums over the group"),
    "lemma12": (_verify_lemma12, (ExhaustiveGroup,),
                "matched or complementary pairs collapse sums to x,x,y,y"),
    "lemma14": (_verify_lemma14, (ExhaustiveK4,),
                "K4 triangle labels sum to identity and pair up off the all-distinct case"),
    "key_lemma": (_verify_key_lemma, (ExhaustiveK4,),
                  "per-label Hamiltonian path counts are even on all-distinct K4s"),
    "table1": (_verify_table1, (ExhaustiveK4,),
               "agree/not-agree dichotomy for each disjoint edge pair"),
    "lemma4": (_verify_lemma4, (ExhaustiveK4,),
               "per-start path multisets are 2+2+2 or 3+1+1+1"),
    "lemma_same": (_verify_lemma_same, (ExhaustiveK4,),
                   "equal 2-2-2 multisets <=> common-label triple <=> missing path label"),
    "thm11": (_verify_thm11, (ExhaustiveK4,),
              "a four-label start exists iff there is no common-label triple"),
    "lemma_b": (_spectrum_bound_violations,
                (ExhaustiveNormalized, RandomScope),
                "exactly three triangle labels give the full spectrum (n > 5)"),
    "lemma_c": (_spectrum_bound_violations,
                (ExhaustiveNormalized, RandomScope),
                "four triangle labels give the full spectrum (n > 5)"),
    "case_alpha_forest": (_verify_case_alpha_forest, (ExhaustiveNormalized, RandomScope),
                          "the four per-label witness edges form a forest"),
    "case_beta": (_spectrum_bound_violations,
                  (ExhaustiveNormalized, RandomScope),
                  "an all-distinct K4 gives the full spectrum (n > 5)"),
}

#: Claims whose graph-domain statements require n > 5.
_NEEDS_N6 = {"lemma_b", "lemma_c", "case_beta"}

#: Default cap on exhaustive domain sizes (the n=6 family).
MAX_EXHAUSTIVE = 4 ** 10


def lemma_ids() -> list[str]:
    return list(_REGISTRY)


def describe(lemma_id: str) -> str:
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown claim id {lemma_id!r}")
    return _REGISTRY[lemma_id][2]


def verify(
    lemma_id: str,
    scope: Scope | str,
    *,
    seed: int = 0,
    jobs: int = 1,
    force: bool = False,
) -> VerificationReport:
    """Check one claim over one domain and report violations verbatim.

    Exhaustive scopes above :data:`MAX_EXHAUSTIVE` instances are refused
    unless ``force`` is set.  Random scopes embed their seed in the
    report, so any violation can be replayed.
    """
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown claim id {lemma_id!r}")
    if isinstance(scope, str):
        scope = parse_scope(scope, seed)
    fn, allowed, _ = _REGISTRY[lemma_id]
    if not isinstance(scope, allowed):
        names = ", ".join(a.__name__ for a in allowed)
        raise ValueError(f"{lemma_id} supports scopes: {names}")
    if isinstance(scope, ExhaustiveNormalized):
        size = normalized_domain_size(scope.n)
        if size > MAX_EXHAUSTIVE and not force:
            raise ValueError(
                f"domain of {size} exceeds the cap {MAX_EXHAUSTIVE}; pass force=True"
            )
    # every scope these claims allow has an n
    if lemma_id in _NEEDS_N6 and scope.n < 6:
        raise ValueError(f"{lemma_id} is a statement about n > 5")

    report = VerificationReport(lemma_id, scope.describe(), 0)
    if isinstance(scope, RandomScope):
        report.stats["seed"] = scope.seed
    start = time.perf_counter()
    fn(scope, report, jobs)
    report.elapsed = time.perf_counter() - start
    return report
