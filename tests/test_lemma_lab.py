import json

import pytest

from doublesign import lemma_ids, verify
from doublesign.cli import main
from doublesign.lemma_lab import (
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
    assert parse_scope("exhaustive_normalized(5)") == ExhaustiveNormalized(5)
    assert parse_scope("random:7:100", seed=9) == RandomScope(7, 100, 9)
    with pytest.raises(ValueError):
        parse_scope("everything")
    with pytest.raises(ValueError):
        parse_scope("random:7")


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
        # scope objects handed to verify directly, past the scope parser
        pytest.param("lemma1", lambda: ExhaustiveNormalized(2), 2,
                     id="lemma1-ExhaustiveNormalized(2)-2"),
        pytest.param("lemma1", lambda: RandomScope(6, -3, 0), 2,
                     id="lemma1-RandomScope(6,-3,0)-2"),
    ],
)
def test_degenerate_scopes_are_usage_errors_or_pass(lemma, scope, code, capsys):
    if callable(scope):
        with pytest.raises(ValueError, match="must be at least"):
            verify(lemma, scope())
        return
    assert main(["verify", "--lemma", lemma, "--scope", scope]) == code
    if code == 2:
        assert repr(scope) in capsys.readouterr().err
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


def test_exhaustive_cap_requires_force():
    with pytest.raises(ValueError, match="force"):
        verify("lemma_b", "exhaustive_normalized:7")


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


def test_report_serializes_to_json():
    report = verify("lemma12", "exhaustive_group")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["lemma"] == "lemma12"
    assert payload["passed"] is True
    assert payload["violation_count"] == 0
    assert "group quadruples" in payload["domain"]
