import json
import time
import tracemalloc

import numpy as np
import pytest

from doublesign import F22, build, io_gen, lemma_lab, lemma_ids, verify
from doublesign.cli import main
from doublesign.lemma_lab import (
    MAX_STORED_VIOLATIONS,
    ExhaustiveGroup,
    ExhaustiveK4,
    ExhaustiveNormalized,
    RandomScope,
    describe,
    parse_scope,
)


def test_registry_covers_the_claim_catalog():
    expected = {
        "lemma1", "lemma5", "lemma22", "remark1", "proposition_norm",
        "lemma11", "lemma12", "lemma14", "key_lemma", "table1", "lemma4",
        "lemma_same", "thm11", "lemma_b", "lemma_c", "case_alpha_forest",
        "case_beta",
    }
    assert set(lemma_ids()) == expected
    for lemma in expected:
        assert describe(lemma)


def test_parse_scope_forms():
    assert parse_scope("exhaustive_k4") == ExhaustiveK4()
    assert parse_scope("exhaustive_group") == ExhaustiveGroup()
    assert parse_scope("exhaustive_normalized:5") == ExhaustiveNormalized(5)
    assert parse_scope("random:7:100", seed=9) == RandomScope(7, 100, 9)
    for bad in ("everything", "random:7", "exhaustive_k4:5", "exhaustive_group:junk",
                "random:7:100)", "exhaustive_normalized:5)"):
        with pytest.raises(ValueError):
            parse_scope(bad)
    with pytest.raises(ValueError, match="unknown scope"):
        parse_scope("exhaustive_normalized(5)")


@pytest.mark.parametrize(
    "lemma,scope,code",
    [
        ("lemma_b", "random:6:-5", 2),
        ("lemma_b", "random:6:0", 2),
        ("lemma1", "random:2:5", 2),
        ("lemma1", "exhaustive_normalized:0", 2),
        ("lemma1", "exhaustive_normalized:-1", 2),
        ("lemma1", "exhaustive_normalized:2", 2),
        ("lemma1", "random:3:5", 0),  # no K4 at n = 3, so nothing to violate
        ("lemma_b", "random:6:99999999999999999999", 2),  # COUNT above 4^10 rows
        # the sweep runs in one process, so there is no worker count to pass
        pytest.param("lemma_b", "exhaustive_normalized:6 --jobs 2", 2,
                     id="lemma_b-exhaustive_normalized:6-jobs2-2"),
        # a negative seed, refused by name before any row is drawn
        pytest.param("lemma_b", "random:6:5 --seed -3", 2, id="lemma_b-random:6:5-seed-3-2"),
        # scope objects handed to verify directly, past the scope parser
        pytest.param("lemma1", lambda: ExhaustiveNormalized(2), 2,
                     id="lemma1-ExhaustiveNormalized(2)-2"),
        pytest.param("lemma1", lambda: RandomScope(6, -3, 0), 2,
                     id="lemma1-RandomScope(6,-3,0)-2"),
        pytest.param("lemma1", lambda: RandomScope(6, 5, -3), 2,
                     id="lemma1-RandomScope(6,5,-3)-2"),
    ],
)
def test_degenerate_scopes_are_usage_errors_or_pass(lemma, scope, code, capsys):
    if callable(scope):
        with pytest.raises(ValueError, match="must be at least"):
            verify(lemma, scope())
        return
    scope, *options = scope.split()
    try:
        exit_code = main(["verify", "--lemma", lemma, "--scope", scope, *options])
    except SystemExit as exc:  # argparse refuses an unknown option
        exit_code = exc.code
    assert exit_code == code
    if code == 2:
        named = repr(scope)
        if options[:1] == ["--jobs"]:
            named = "unrecognized arguments: --jobs 2"
        elif options:
            named = f"seed must be at least 0, got {options[-1]}"
        assert named in capsys.readouterr().err
    else:
        assert "PASS over 5 seeded" in capsys.readouterr().out


def test_unknown_lemma():
    with pytest.raises(KeyError):
        verify("lemma99", "exhaustive_k4")


def test_scope_mismatch_is_a_usage_error():
    with pytest.raises(ValueError, match="supports scopes"):
        verify("lemma11", "exhaustive_k4")
    with pytest.raises(ValueError, match="supports scopes"):
        verify("key_lemma", "exhaustive_group")


def test_a_sweep_of_more_than_4_10_rows_is_refused_before_any_chunk(monkeypatch, capsys):
    from doublesign import sweep

    def no_chunk(*args):
        raise AssertionError(f"swept a chunk {args}")

    monkeypatch.setattr(sweep, "_sweep_chunk", no_chunk)
    with pytest.raises(ValueError, match="range of 1073741824 rows exceeds MAX_SWEEP_ROWS=1048576"):
        verify("lemma_b", "exhaustive_normalized:7")
    with pytest.raises(ValueError, match="exceeds MAX_SWEEP_ROWS"):
        sweep.run_normalized_sweep(7, 5, 6 + 4 ** 10)
    assert main(["verify", "--lemma", "lemma1", "--scope", "exhaustive_normalized:8"]) == 2
    assert "exceeds MAX_SWEEP_ROWS" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3000, 10**6])
def test_an_oversized_exhaustive_scope_is_refused_fast_and_small(n, capsys):
    # refused before the domain size 4^((n-1)(n-2)/2) is built or rendered
    tracemalloc.start()
    begin = time.perf_counter()
    try:
        code = main(["verify", "--lemma", "lemma1", "--scope", f"exhaustive_normalized:{n}"])
        elapsed = time.perf_counter() - begin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"n={n} is above the enumeration bound 10" in capsys.readouterr().err
    assert elapsed < 1.0 and peak < 1 << 20


def test_an_exhaustive_scope_is_checked_one_chunk_at_a_time():
    # the 4^10-row family would be 15 MiB of batch arrays at once; streamed,
    # one 65,536-row chunk is alive at a time and nothing outlives the call
    tracemalloc.start()
    try:
        report = verify("lemma_b", "exhaustive_normalized:6")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.scanned == 4 ** 10
    assert peak < 8 << 20 and held < 1 << 20


def test_n6_statements_refuse_small_n():
    with pytest.raises(ValueError, match="n > 5"):
        verify("lemma_b", "exhaustive_normalized:5")
    with pytest.raises(ValueError, match="n > 5"):
        verify("lemma_c", "random:5:10")


@pytest.mark.parametrize(
    "lemma,scope,expected_scanned",
    [
        ("lemma11", "exhaustive_group", 48),
        ("lemma12", "exhaustive_group", 24),
        ("lemma14", "exhaustive_k4", 4096),
        ("key_lemma", "exhaustive_k4", 4096),
        ("table1", "exhaustive_k4", 1536),
        ("lemma4", "exhaustive_k4", 1536),
        ("lemma_same", "exhaustive_k4", 1536),
        ("thm11", "exhaustive_k4", 1536),
        ("lemma1", "exhaustive_k4", 4096),
    ],
)
def test_finite_domains_pass_with_exact_counts(lemma, scope, expected_scanned):
    report = verify(lemma, scope)
    assert report.passed
    assert report.scanned == expected_scanned


def test_key_lemma_reports_all_distinct_count():
    report = verify("key_lemma", "exhaustive_k4")
    assert report.stats["sigma4star_count"] == 1536


def test_small_exhaustive_normalized_domains():
    report = verify("lemma1", "exhaustive_normalized:5")
    assert report.passed and report.scanned == 4096
    report = verify("lemma5", "exhaustive_normalized:5")
    assert report.passed and report.scanned == 4096
    report = verify("lemma22", "exhaustive_normalized:4")
    assert report.passed and report.scanned == 64


def test_random_scope_is_deterministic_and_embeds_seed():
    a = verify("proposition_norm", "random:6:50", seed=7)
    b = verify("proposition_norm", "random:6:50", seed=7)
    assert a.passed and b.passed
    assert a.scanned == b.scanned == 50
    assert a.stats["seed"] == 7


def test_random_scope_graph_lemmas_pass():
    for lemma in ("lemma_b", "lemma_c", "case_beta", "case_alpha_forest", "lemma5"):
        report = verify(lemma, "random:6:120", seed=3)
        assert report.passed, (lemma, report.violations[:2])
    for lemma in ("lemma_c", "case_beta"):
        report = verify(lemma, "random:10:30", seed=3)
        assert report.passed and report.scanned == 30, (lemma, report.violations[:2])


SWEEP_CLAIMS = ("lemma1", "lemma5", "lemma22", "remark1", "lemma_b", "lemma_c",
                "case_beta", "case_alpha_forest")


def test_random_scopes_above_the_enumeration_bound_are_refused_before_any_row(
        monkeypatch, capsys):
    def no_rows(*args):
        raise AssertionError("rows generated for a refused scope")

    monkeypatch.setattr(io_gen, "random_sign_matrix", no_rows)
    monkeypatch.setattr(lemma_lab, "random_sign_matrix", no_rows)
    for lemma in SWEEP_CLAIMS:
        with pytest.raises(ValueError, match=f"{lemma} checks random scopes up to n = 10"):
            verify(lemma, "random:11:5")
    assert main(["verify", "--lemma", "lemma_b", "--scope", "random:12:50"]) == 2
    assert "lemma_b checks random scopes up to n = 10, got n = 12" in capsys.readouterr().err
    monkeypatch.setattr(lemma_lab, "gen_random", no_rows)
    with pytest.raises(ValueError,
                       match="proposition_norm checks random scopes up to n = 100, got n = 101"):
        verify("proposition_norm", "random:101:1")
    assert main(["verify", "--lemma", "proposition_norm", "--scope", "random:2000:1"]) == 2
    assert "proposition_norm checks random scopes up to n = 100, got n = 2000" in (
        capsys.readouterr().err)


def test_a_random_count_above_4_10_rows_is_refused_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows generated for a refused scope")

    monkeypatch.setattr(lemma_lab, "random_sign_matrix", no_rows)
    monkeypatch.setattr(lemma_lab, "gen_random", no_rows)
    begin = time.perf_counter()
    for lemma, scope in (("lemma_b", "random:6:99999999999999999999"),
                         ("proposition_norm", "random:6:1048577")):
        with pytest.raises(ValueError, match=f"scope '{scope}': COUNT must be at most "
                                             "MAX_SWEEP_ROWS=1048576"):
            verify(lemma, scope)
    assert time.perf_counter() - begin < 0.1
    assert parse_scope("random:6:1048576") == RandomScope(6, 4 ** 10, 0)


def test_a_proposition_norm_scope_above_its_work_bound_is_refused_before_any_instance(
        monkeypatch):
    # one instance costs about n^3 label reads, so COUNT * N^3 is bounded
    # by the largest n = 7 scope, 4^10 * 7^3; at n = 8 that is COUNT <= 702,464
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(lemma_lab, "gen_random", drawn)
    begin = time.perf_counter()
    for scope in ("random:100:360", "random:8:702465", "random:100:1048576"):
        with pytest.raises(ValueError, match=r"^proposition_norm checks random scopes up to "
                                             r"COUNT \* N\^3 = 359661568, got \d+$"):
            verify("proposition_norm", scope)
    assert time.perf_counter() - begin < 0.1
    for scope in ("random:7:1048576", "random:100:359", "random:8:702464"):
        with pytest.raises(Drawn):
            verify("proposition_norm", scope)


#: Per claim (and case), field values that make an n = 6 batch row break
#: it: an all-distinct K4 at diversity 3, a K4 with three labels, a
#: diversity-3 row whose last hub sees only two, spectra outside or short
#: of the law, and four witness edges around the triangle 2-3-4.
CORRUPTIONS = {
    "lemma1": {"diversity": 3, "tri_mask": 7, "sigma4star": True},
    "lemma1/quad3": {"quad3": True},
    "lemma5": {"diversity": 3, "tri_mask": 7, "hub_mask": (7, 7, 7, 7, 7, 3)},
    "lemma22": {"diversity": 2, "tri_mask": 3, "spec_mask": 15},
    "remark1": {"diversity": 1, "tri_mask": 1, "spec_mask": 15},
    "lemma_b": {"diversity": 3, "tri_mask": 7, "spec_mask": 7},
    "lemma_c": {"diversity": 4, "tri_mask": 15, "spec_mask": 7},
    "case_beta": {"diversity": 4, "tri_mask": 15, "sigma4star": True, "spec_mask": 7},
    "case_alpha_forest": {"diversity": 4, "tri_mask": 15, "sigma4star": False,
                          "hub_mask": 15, "first_edge": (0, 1, 4, 2)},
}


#: Per scope, the batch a corruption lands in and the key of its first
#: row: the third 65,536-row chunk of the n = 6 family, or the one batch
#: of 40 seeds starting at seed 5.
TARGET_BATCH = {"exhaustive_normalized:6": (2, 2 * 65_536), "random:6:40": (0, 5)}


@pytest.mark.parametrize("scope,key", [("exhaustive_normalized:6", "index"),
                                       ("random:6:40", "instance")])
@pytest.mark.parametrize("case", CORRUPTIONS)
def test_a_corrupted_batch_row_is_reported_by_its_key(case, scope, key, monkeypatch):
    lemma = case.split("/")[0]
    batches = lemma_lab._batches
    target, first = TARGET_BATCH[scope]

    def corrupted(rows):
        def source(scope):
            for i, (batch, keys) in enumerate(batches(scope)):
                if i == target:
                    for name, value in CORRUPTIONS[case].items():
                        getattr(batch, name)[rows] = value
                yield batch, keys
        return source

    clean = verify(lemma, scope, seed=5)
    assert clean.passed
    monkeypatch.setattr(lemma_lab, "_batches", corrupted([17]))
    report = verify(lemma, scope, seed=5)
    assert report.violation_count == 1
    assert [v[key] for v in report.violations] == [first + 17]
    monkeypatch.setattr(lemma_lab, "_batches", corrupted(np.arange(2, 32)))
    report = verify(lemma, scope, seed=5)
    assert report.violation_count == 30
    assert [v[key] for v in report.violations] == [
        first + r for r in range(2, 2 + MAX_STORED_VIOLATIONS)]
    assert len({v["detail"] for v in report.violations}) == 1
    assert report.scanned == clean.scanned and report.stats.keys() == clean.stats.keys()
    monkeypatch.undo()
    assert verify(lemma, scope, seed=5).passed  # no corrupted batch outlives its verify


#: Per K4 claim, a change of one all-distinct record (one with a common
#: triple) that breaks it: labels that do not sum to e, an odd path count,
#: two frame vertices swapped, a one-label multiset, a lost triple.
K4_CORRUPTIONS = {
    "lemma14": lambda r: r._replace(tris=(F22.E, F22.E, F22.E, F22.A)),
    "key_lemma": lambda r: r._replace(totals={**r.totals, F22.E: r.totals[F22.E] + 1}),
    "table1": lambda r: r._replace(order=[r.order[1], r.order[0], *r.order[2:]]),
    "lemma4": lambda r: r._replace(per_start={**r.per_start, 1: (F22.E,) * 6}),
    "lemma_same": lambda r: r._replace(triple=None),
    "thm11": lambda r: r._replace(triple=None),
}


@pytest.mark.parametrize("lemma", K4_CORRUPTIONS)
def test_a_corrupted_k4_record_is_reported_by_its_index(lemma, monkeypatch):
    records = lemma_lab._k4_records
    target = next(r.index for r in records() if r.triple is not None)
    clean = verify(lemma, "exhaustive_k4")
    assert clean.passed

    def corrupted():
        for r in records():
            yield K4_CORRUPTIONS[lemma](r) if r.index == target else r

    monkeypatch.setattr(lemma_lab, "_k4_records", corrupted)
    report = verify(lemma, "exhaustive_k4")
    assert report.violation_count == 1
    assert report.violations[0]["index"] == target
    assert report.scanned == clean.scanned and report.stats == clean.stats


def test_a_wrong_path_multiset_is_reported_by_its_index_and_start(monkeypatch):
    # the K4 claims read the oracle's per-start multisets by this name
    paths = lemma_lab.hamiltonian_paths_spectrum
    target = next(r.index for r in lemma_lab._k4_records() if r.order is not None)
    bad = lemma_lab.k4_from_index(target)
    monkeypatch.setattr(lemma_lab, "hamiltonian_paths_spectrum",
                        lambda g, v: (F22.E,) * 6 if (g, v) == (bad, 3) else paths(g, v))
    report = verify("lemma4", "exhaustive_k4")
    assert report.violation_count == 1
    assert report.violations[0]["index"] == target
    assert report.violations[0]["start"] == 3


@pytest.mark.parametrize("scope,key,target", [("random:6:40", "instance", 17),
                                              ("exhaustive_k4", "index", 1234)])
def test_a_wrong_normalization_is_reported_by_its_key(scope, key, target, monkeypatch):
    # proposition_norm reads each normalized graph through this name
    normalize = lemma_lab.normalize_at
    bad = lemma_lab.gen_random(6, target) if key == "instance" else lemma_lab.k4_from_index(target)

    def wrong(g, v):
        gn, zeta = normalize(g, v)
        if (g, v) == (bad, 1):
            gn = build(gn.n, [(a, b, s ^ F22.A if (a, b) == (2, 3) else s)
                              for a, b, s in gn.edges()])
        return gn, zeta

    assert verify("proposition_norm", scope, seed=5).passed
    monkeypatch.setattr(lemma_lab, "normalize_at", wrong)
    report = verify("proposition_norm", scope, seed=5)
    assert report.violations == [{key: target, "detail": "edge (2,3) wrong after normalizing 1"}]
    assert report.violation_count == 1


@pytest.mark.parametrize("lemma,quad", [("lemma11", (F22.A, F22.B, F22.A, F22.C)),
                                        ("lemma12", (F22.A, F22.B, F22.B, F22.A))])
def test_a_corrupted_pair_sum_is_reported_by_its_tuple(lemma, quad, monkeypatch):
    pair_sums = lemma_lab.pair_sums
    clean = verify(lemma, "exhaustive_group")
    assert clean.passed
    monkeypatch.setattr(lemma_lab, "pair_sums",
                        lambda *q: (F22.E,) * 4 if q == quad else pair_sums(*q))
    report = verify(lemma, "exhaustive_group")
    assert report.violation_count == 1
    assert report.violations[0]["tuple"] == [str(v) for v in quad]
    assert report.scanned == clean.scanned


def test_report_serializes_to_json():
    report = verify("lemma12", "exhaustive_group")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["lemma"] == "lemma12"
    assert payload["passed"] is True
    assert payload["violation_count"] == 0
    assert "group quadruples" in payload["domain"]
