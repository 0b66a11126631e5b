"""Machine verification of every structural claim, over finite domains.

Each claim has a stable identifier, a one-line statement (``describe``)
and findings that re-derive it from group, graph, census, sweep and
oracle primitives — never from the constructive solver — so a solver bug
cannot vouch for itself.  Four families, one loop: a family's findings
read its domain one record at a time and yield the rows scanned, each
violation's key and detail, and stats; :func:`verify` alone refuses a
scope, counts the domain, names each violation by its scope's key and
sums the stats.

* The eight sweep claims reduce :class:`sweep.BatchAnalysis` batches of
  the hub-normalized family, the 4,096 K4 labelings or seeded random
  rows (n <= the oracle's enumeration bound).
* The six K4 claims read one :class:`K4Record` per K4 labeling, its
  labels from :mod:`census` and its path labels from the oracle's
  per-start multisets.
* The two group claims read each qualifying quadruple.
* ``proposition_norm`` normalizes each K4 labeling or seeded random
  instance at every vertex.

Exhaustive scopes enumerate their whole domain exactly once and name a
violation by its ``index`` (a group quadruple by its ``tuple``); random
scopes draw seeded instances, named by ``instance`` (the seed), so a
failing report can be replayed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .census import CommonSignTriple, classify_k4, is_forest, triangle_census
from .graph import SignedCompleteGraph, triangle_sign
from .group import ELEMENTS, F22, NONZERO, pair_sums
from .io_gen import free_edges, gen_random, normalized_domain_size, random_sign_matrix
from .oracle import ENUMERATION_BOUND, hamiltonian_paths_spectrum
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
    """All hub-normalized labelings at n, 3 <= n <= 6 (what the sweep takes)."""

    n: int

    def __post_init__(self) -> None:
        _at_least("N", self.n, 3)
        sweep_mod.check_sweep_range(self.n)

    def describe(self) -> str:
        return f"all {normalized_domain_size(self.n)} hub-normalized labelings at n={self.n}"


@dataclass(frozen=True)
class RandomScope:
    """Seeded instances gen_random(n, seed), ..., gen_random(n, seed+count-1),
    for n >= 3, 1 <= count <= ``sweep.MAX_SWEEP_ROWS`` and seed >= 0."""

    n: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        _at_least("N", self.n, 3)
        _at_least("COUNT", self.count, 1)
        _at_least("seed", self.seed, 0)
        if self.count > sweep_mod.MAX_SWEEP_ROWS:
            raise ValueError(f"COUNT must be at most MAX_SWEEP_ROWS={sweep_mod.MAX_SWEEP_ROWS}, "
                             f"got {self.count}")

    def describe(self) -> str:
        return f"{self.count} seeded random instances at n={self.n} (seed {self.seed})"


Scope = ExhaustiveK4 | ExhaustiveGroup | ExhaustiveNormalized | RandomScope


#: Each scope kind with its class and the names of its integer arguments.
_SCOPE_FORMS = {
    "exhaustive_k4": (ExhaustiveK4, ()),
    "exhaustive_group": (ExhaustiveGroup, ()),
    "exhaustive_normalized": (ExhaustiveNormalized, ("N",)),
    "random": (RandomScope, ("N", "COUNT")),
}


def parse_scope(text: str, seed: int = 0) -> Scope:
    """Parse a scope spec: ``exhaustive_k4``, ``exhaustive_group``,
    ``exhaustive_normalized:N`` or ``random:N:COUNT``.  Any other text,
    trailing text included, is a ``ValueError``."""
    kind, *args = text.strip().split(":")
    if kind not in _SCOPE_FORMS:
        raise ValueError(f"unknown scope {text!r}")
    cls, names = _SCOPE_FORMS[kind]
    try:
        if len(args) != len(names):
            raise ValueError("expected " + ":".join((kind, *names)))
        values = [_scope_int(token, name) for token, name in zip(args, names)]
        return RandomScope(*values, seed) if cls is RandomScope else cls(*values)
    except ValueError as exc:
        raise ValueError(f"scope {text!r}: {exc}") from None


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
# K4 domain
# ---------------------------------------------------------------------------

K4_DOMAIN_SIZE = 4096


def k4_from_index(index: int) -> SignedCompleteGraph:
    """The K4 whose six edge labels are the base-4 digits of ``index``."""
    return SignedCompleteGraph(4, bytes((index >> (2 * k)) & 3 for k in range(6)))


class K4Record(NamedTuple):
    """One K4 labeling: its triangle labels (123, 124, 134, 234) and
    common-label triple from :func:`census.classify_k4`; for an
    all-distinct K4 the frame ``order`` [v1, v2, v3, v4], in which the
    triangles omitting v1, v4, v3, v2 carry e, a, b, c (else None); and
    its path labels: ``per_start[v]`` from
    :func:`oracle.hamiltonian_paths_spectrum` at v, and ``totals`` per
    label over all 12 paths, in ``ELEMENTS`` order."""

    index: int
    rows: tuple[bytes, ...]
    tris: tuple[F22, ...]
    triple: Optional[CommonSignTriple]
    order: Optional[list[int]]
    per_start: dict[int, tuple[F22, ...]]
    totals: dict[F22, int]


def _k4_records() -> Iterator[K4Record]:
    """One record per K4 labeling, in index order."""
    for index in range(K4_DOMAIN_SIZE):
        g = k4_from_index(index)
        k4 = classify_k4(g, (1, 2, 3, 4))
        omitted = dict(zip(k4.triangle_signs, (4, 3, 2, 1)))
        order = [omitted[s] for s in (F22.E, F22.C, F22.B, F22.A)] if len(omitted) == 4 else None
        per_start = {v: hamiltonian_paths_spectrum(g, v) for v in g.vertices()}
        # each of the 12 paths has two ends, so it is seen from two starts
        ends = Counter(s for ms in per_start.values() for s in ms)
        totals = {s: ends[s] // 2 for s in ELEMENTS}
        yield K4Record(index, g.rows, k4.triangle_signs, k4.common_triple, order,
                       per_start, totals)


# ---------------------------------------------------------------------------
# Claims and their findings
# ---------------------------------------------------------------------------

class _Claim(NamedTuple):
    """One claim: its one-line statement, the scope kinds it allows, its
    findings, whether it is a statement about n > 5, and the largest n of
    its random scopes.  ``findings(scope)`` yields ``(rows scanned,
    [(key, detail fields), ...], stats)`` per batch, record, quadruple or
    instance."""

    statement: str
    scopes: tuple
    findings: Callable
    needs_n6: bool = False
    random_max_n: Optional[int] = None


def _batches(scope: Scope) -> Iterable[tuple[sweep_mod.BatchAnalysis, np.ndarray]]:
    """The scope's rows as sweep batches, each with the keys naming its rows:
    the 4,096 K4 indices at once, else family indices or the seeds of
    random instances one chunk of ``sweep._CHUNK`` keys at a time."""
    if isinstance(scope, ExhaustiveK4):
        index = np.arange(K4_DOMAIN_SIZE)
        yield sweep_mod.analyze_sign_matrix(4, (index[:, None] >> 2 * np.arange(6)) & 3), index
        return
    if isinstance(scope, ExhaustiveNormalized):
        first, stop = 0, normalized_domain_size(scope.n)
    else:
        first, stop = scope.seed, scope.seed + scope.count
    for start in range(first, stop, sweep_mod._CHUNK):
        keys = np.arange(start, min(start + sweep_mod._CHUNK, stop))
        if isinstance(scope, ExhaustiveNormalized):
            batch = sweep_mod.run_normalized_sweep(scope.n, start, start + len(keys))
        else:
            batch = sweep_mod.analyze_sign_matrix(scope.n, random_sign_matrix(scope.n, keys))
        yield batch, keys


_SWEEP_SCOPES = (ExhaustiveNormalized, RandomScope)


def _sweep_claim(statement: str, reduce: Callable, detail: str,
                 scopes: tuple = _SWEEP_SCOPES, needs_n6: bool = False) -> _Claim:
    """A claim whose findings run ``reduce(batch) -> (violating rows,
    stats)`` over every batch of a scope, keying each violating row."""

    def findings(scope: Scope) -> Iterator:
        for batch, keys in _batches(scope):
            bad, stats = reduce(batch)
            yield len(keys), [(int(key), {"detail": detail}) for key in keys[bad]], stats

    return _Claim(statement, scopes, findings, needs_n6, ENUMERATION_BOUND)


def _lemma1(b: sweep_mod.BatchAnalysis):
    """Diversity <= 3 forces every K4 to at most two triangle labels."""
    bad = b.quad3 | ((b.diversity <= 3) & b.sigma4star)
    return bad, {"sigma4star_count": int(b.sigma4star.sum())}


def _lemma5(b: sweep_mod.BatchAnalysis):
    """With exactly three triangle labels, every hub basis realizes all three."""
    three = b.diversity == 3
    bad = three & (b.hub_mask != b.tri_mask[:, None]).any(axis=1)
    return bad, {"diversity3_count": int(three.sum())}


def _spectrum_bound(covers: Callable, exact: bool) -> Callable:
    """Reducer for a claim bounding the spectra of the rows ``covers``
    selects: equal to the label set the triangle labels imply (``exact``),
    or only inside it."""

    def reduce(b: sweep_mod.BatchAnalysis):
        allowed = sweep_mod.allowed_spectrum_mask(b.tri_mask, b.n)
        qualifying = covers(b)
        broken = b.spec_mask != allowed if exact else (b.spec_mask & ~allowed) != 0
        return qualifying & broken, {"qualifying": int(qualifying.sum())}

    return reduce


#: Largest n of a ``proposition_norm`` random scope: one instance costs
#: about n^3 label reads, about 0.7 s at n = 100 on one Xeon core.
PROPOSITION_NORM_MAX_N = 100


def _proposition_norm(scope: Scope) -> Iterator:
    """Findings of :func:`_normalization_errors` over each K4 labeling or
    each seeded random instance."""
    random = isinstance(scope, RandomScope)
    for key in range(scope.seed, scope.seed + scope.count) if random else range(K4_DOMAIN_SIZE):
        g = gen_random(scope.n, key) if random else k4_from_index(key)
        yield 1, [(key, {"detail": d}) for d in _normalization_errors(g)], {}


def _normalization_errors(g: SignedCompleteGraph) -> Iterator[str]:
    """Normalizing v rewrites each remaining edge to its old triangle label:
    one detail per edge of ``g`` that breaks it, at each vertex v."""
    census_signs = triangle_census(g).signs
    div = len(census_signs)
    for v in g.vertices():
        gn, _ = normalize_at(g, v)
        for u in g.vertices():
            if u != v and gn.sign(u, v) != F22.E:
                yield f"star at {v} not identity"
        for a, b in combinations(g.vertices(), 2):
            if v in (a, b):
                continue
            expect = triangle_sign(g, (a, b, v))
            if gn.sign(a, b) != expect:
                yield f"edge ({a},{b}) wrong after normalizing {v}"
            elif div == 3 and expect not in census_signs:
                yield "edge label outside the three"


def _group_claim(statement: str, hypothesis: Callable, check: Callable) -> _Claim:
    """A claim whose findings run ``check(y1, y2, z1, z2)``, which yields
    violation details, over every pair of distinct nonzero y1, y2 and
    distinct z1, z2 that meets ``hypothesis``."""

    def findings(scope: Scope) -> Iterator:
        for quad in product(NONZERO, NONZERO, ELEMENTS, ELEMENTS):
            y1, y2, z1, z2 = quad
            if y1 != y2 and z1 != z2 and hypothesis({y1, y2}, {z1, z2}):
                yield 1, [([str(v) for v in quad], d) for d in check(*quad)], {}

    return _Claim(statement, (ExhaustiveGroup,), findings)


def _shape(labels: Iterable[F22]) -> list[int]:
    """The sorted multiplicities of the values in ``labels``."""
    return sorted(Counter(labels).values())


def _lemma11(y1: F22, y2: F22, z1: F22, z2: F22) -> Iterator[dict]:
    """One shared value between the pairs spreads the four sums over all."""
    if set(pair_sums(y1, y2, z1, z2)) != set(ELEMENTS):
        yield {}


def _lemma12(y1: F22, y2: F22, z1: F22, z2: F22) -> Iterator[dict]:
    """Matched or complementary pairs collapse the sums to x, x, y, y."""
    sums = pair_sums(y1, y2, z1, z2)
    if _shape(sums) != [2, 2]:
        yield {"sums": [str(s) for s in sums]}


def _k4_claim(statement: str, check: Callable, all_distinct: bool = True,
              stat: Optional[str] = None) -> _Claim:
    """A claim whose findings run ``check(record)``, which yields violation
    details, over every :class:`K4Record` (or the all-distinct ones);
    ``stat`` counts the all-distinct labelings."""

    def findings(scope: Scope) -> Iterator:
        for r in _k4_records():
            if not all_distinct or r.order is not None:
                stats = {stat: int(r.order is not None)} if stat else {}
                yield 1, [(r.index, d) for d in check(r)], stats

    return _Claim(statement, (ExhaustiveK4,), findings)


def _lemma14(r: K4Record) -> Iterator[dict]:
    """All four K4 triangle labels sum to identity; short of all-distinct
    they pair up as x, x, y, y."""
    t = r.tris
    if t[0] ^ t[1] ^ t[2] ^ t[3]:
        yield {"detail": "triangle labels do not sum to e"}
    elif _shape(t) not in ([1, 1, 1, 1], [4], [2, 2]):
        yield {"detail": f"pattern {_shape(t)} not x,x,y,y"}


def _key_lemma(r: K4Record) -> Iterator[dict]:
    """On all-distinct K4s, each label is hit by an even number of paths."""
    odd = [str(s) for s, c in r.totals.items() if c % 2]
    if r.order is not None and odd:
        yield {"odd_labels": odd}


_TABLE1_AGREE = {
    F22.A: (True, True, False),
    F22.E: (False, True, True),
    F22.B: (True, False, True),
    F22.C: (False, False, False),
}


def _table1(r: K4Record) -> Iterator[dict]:
    """Disjoint-pair dichotomy: when the pair sum matches a containing
    circle's label the four paths of the group realize all labels,
    otherwise they pair up s, s, t, t."""
    order, rows = r.order, r.rows

    def sig(a: int, b: int) -> int:
        return rows[order[a - 1]][order[b - 1]]
    circle_signs = {
        "C1": sig(1, 2) ^ sig(2, 3) ^ sig(3, 4) ^ sig(1, 4),
        "C2": sig(1, 2) ^ sig(2, 4) ^ sig(3, 4) ^ sig(1, 3),
        "C3": sig(1, 3) ^ sig(2, 3) ^ sig(2, 4) ^ sig(1, 4),
    }
    if tuple(circle_signs.values()) != (F22.B, F22.A, F22.C):
        yield {"detail": "canonical circle labels off"}
        return
    disjoint_pairs = [
        ((1, 2), (3, 4), "C1", "C2"),
        ((1, 4), (2, 3), "C1", "C3"),
        ((1, 3), (2, 4), "C2", "C3"),
    ]
    expect_agree = _TABLE1_AGREE[sig(1, 2) ^ sig(3, 4)]
    for gi, (ea, eb, ca, cb) in enumerate(disjoint_pairs):
        agree = (sig(*ea) ^ sig(*eb)) in (circle_signs[ca], circle_signs[cb])
        if agree is not expect_agree[gi]:
            yield {"group": gi + 1, "detail": "agree label off-table"}
        group_signs = sorted(circle_signs[c] ^ sig(*e) for c in (ca, cb) for e in (ea, eb))
        if _shape(group_signs) != ([1, 1, 1, 1] if agree else [2, 2]):
            yield {"group": gi + 1,
                   "signs": [str(ELEMENTS[s]) for s in group_signs],
                   "detail": "dichotomy broken"}


def _lemma4(r: K4Record) -> Iterator[dict]:
    """Per-start path multisets on all-distinct K4s: 2+2+2 or 3+1+1+1."""
    for start, ms in r.per_start.items():
        if _shape(ms) not in ([2, 2, 2], [1, 1, 1, 3]):
            yield {"start": start, "multiset": [str(s) for s in ms]}


def _lemma_same(r: K4Record) -> Iterator[dict]:
    """Three-way equivalence on all-distinct K4s: equal 2-2-2 multisets at
    two starts <=> a common-label triple (star or triangle) <=> a label no
    path realizes; all three name the same label."""
    ms = r.per_start
    witnesses = [ms[i] for i, j in combinations((1, 2, 3, 4), 2)
                 if ms[i] == ms[j] and _shape(ms[i]) == [2, 2, 2]]
    p1 = bool(witnesses)
    p2 = r.triple is not None
    missing = [s for s in ELEMENTS if r.totals[s] == 0]
    p3 = bool(missing)
    if not (p1 == p2 == p3):
        yield {"p1": p1, "p2": p2, "p3": p3}
    elif p1 and len(missing) != 1:
        yield {"detail": f"{len(missing)} labels missing"}
    elif p1:
        gap = missing[0]
        if r.triple.sign != gap:
            yield {"detail": "triple label differs from missing label"}
        for w in witnesses:
            if set(w) != set(ELEMENTS) - {gap}:
                yield {"detail": "witness multiset misses wrong label"}


def _thm11(r: K4Record) -> Iterator[dict]:
    """A start with four distinct path labels exists iff no common triple."""
    has_four = any(len(set(ms)) == 4 for ms in r.per_start.values())
    no_triple = r.triple is None
    if has_four is not no_triple:
        yield {"four_label_start": has_four, "triple_free": no_triple}


def _case_alpha_forest(b: sweep_mod.BatchAnalysis):
    """Diversity 4 without an all-distinct K4: the per-label least edges
    off a normalized hub exist and form a forest."""
    qualifying = (b.diversity == 4) & ~b.sigma4star
    bad = qualifying & (b.edge_mask != 15)
    edges = free_edges(b.n)
    for r in np.nonzero(qualifying & ~bad)[0]:
        bad[r] = not is_forest([edges[k] for k in b.first_edge[r]])
    return bad, {"qualifying": int(qualifying.sum())}


# ---------------------------------------------------------------------------
# Registry and entry point
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, _Claim] = {
    "lemma1": _sweep_claim("diversity <= 3 forces every K4 to at most two triangle labels",
                           _lemma1, "a K4 with 3 labels, or 4 at diversity <= 3",
                           scopes=(ExhaustiveK4, *_SWEEP_SCOPES)),
    "lemma5": _sweep_claim("diversity 3 means every hub basis realizes all three labels",
                           _lemma5, "a hub basis misses a label"),
    "lemma22": _sweep_claim("diversity <= 2 bounds the spectrum by the parity pair",
                            _spectrum_bound(lambda b: b.diversity <= 2, False),
                            "parity bound broken"),
    "remark1": _sweep_claim("diversity 1 pins the spectrum to one forced label",
                            _spectrum_bound(lambda b: b.diversity == 1, True),
                            "forced label broken"),
    "proposition_norm": _Claim("normalizing rewrites each edge to its old triangle label",
                               (ExhaustiveK4, RandomScope), _proposition_norm,
                               random_max_n=PROPOSITION_NORM_MAX_N),
    "lemma11": _group_claim("one shared value spreads the four pair sums over the group",
                            lambda y, z: len(y & z) == 1, _lemma11),
    "lemma12": _group_claim("matched or complementary pairs collapse sums to x,x,y,y",
                            lambda y, z: z == y or z == set(ELEMENTS) - y, _lemma12),
    "lemma14": _k4_claim("K4 triangle labels sum to identity and pair up off the all-distinct case",
                         _lemma14, all_distinct=False),
    "key_lemma": _k4_claim("per-label Hamiltonian path counts are even on all-distinct K4s",
                           _key_lemma, all_distinct=False, stat="sigma4star_count"),
    "table1": _k4_claim("agree/not-agree dichotomy for each disjoint edge pair", _table1),
    "lemma4": _k4_claim("per-start path multisets are 2+2+2 or 3+1+1+1", _lemma4),
    "lemma_same": _k4_claim(
        "equal 2-2-2 multisets <=> common-label triple <=> missing path label", _lemma_same),
    "thm11": _k4_claim("a four-label start exists iff there is no common-label triple", _thm11),
    "lemma_b": _sweep_claim("exactly three triangle labels give the full spectrum (n > 5)",
                            _spectrum_bound(lambda b: b.diversity == 3, True),
                            "spectrum not full", needs_n6=True),
    "lemma_c": _sweep_claim("four triangle labels give the full spectrum (n > 5)",
                            _spectrum_bound(lambda b: b.diversity == 4, True),
                            "spectrum not full", needs_n6=True),
    "case_alpha_forest": _sweep_claim("the four per-label witness edges form a forest",
                                      _case_alpha_forest,
                                      "witness edges missing or containing a cycle"),
    "case_beta": _sweep_claim("an all-distinct K4 gives the full spectrum (n > 5)",
                              _spectrum_bound(lambda b: b.sigma4star, True),
                              "spectrum not full", needs_n6=True),
}

#: The key that names a violation, by scope kind.
_KEY_NAMES = {ExhaustiveK4: "index", ExhaustiveNormalized: "index",
              RandomScope: "instance", ExhaustiveGroup: "tuple"}


def lemma_ids() -> list[str]:
    return list(_REGISTRY)


def describe(lemma_id: str) -> str:
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown claim id {lemma_id!r}")
    return _REGISTRY[lemma_id].statement


def verify(
    lemma_id: str,
    scope: Scope | str,
    *,
    seed: int = 0,
) -> VerificationReport:
    """Check one claim over one domain and report violations verbatim.

    Every refusal comes before any row is drawn: an unknown id, a scope
    the claim does not allow, n < 6 for a statement about n > 5, and a
    random scope above the claim's size limit.  Random reports embed
    their seed, so any violation can be replayed.
    """
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown claim id {lemma_id!r}")
    if isinstance(scope, str):
        scope = parse_scope(scope, seed)
    claim = _REGISTRY[lemma_id]
    if not isinstance(scope, claim.scopes):
        names = ", ".join(a.__name__ for a in claim.scopes)
        raise ValueError(f"{lemma_id} supports scopes: {names}")
    # every scope these claims allow has an n
    if claim.needs_n6 and scope.n < 6:
        raise ValueError(f"{lemma_id} is a statement about n > 5")
    if isinstance(scope, RandomScope) and scope.n > claim.random_max_n:
        raise ValueError(f"{lemma_id} checks random scopes up to n = {claim.random_max_n}, "
                         f"got n = {scope.n}")

    report = VerificationReport(lemma_id, scope.describe(), 0)
    if isinstance(scope, RandomScope):
        report.stats["seed"] = scope.seed
    key_name = _KEY_NAMES[type(scope)]
    start = time.perf_counter()
    for scanned, found, stats in claim.findings(scope):
        report.scanned += scanned
        for key, detail in found:
            report.add_violation({key_name: key, **detail})
        for stat, count in stats.items():
            report.stats[stat] = report.stats.get(stat, 0) + count
    report.elapsed = time.perf_counter() - start
    return report
