import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesign import (
    F22,
    ParseError,
    SignedCompleteGraph,
    gen_exhaustive_normalized,
    gen_random,
    instance_from_index,
    lemma_lab,
    named_instance,
    parse,
    serialize,
    triangle_census,
    triangle_sign,
)
from doublesign.cli import main
from doublesign.io_gen import MAX_GENERATED_N, normalized_domain_size, random_sign_matrix


class TestExhaustiveFamily:
    def test_stream_lengths(self):
        assert sum(1 for _ in gen_exhaustive_normalized(4)) == 64
        assert normalized_domain_size(5) == 4096
        assert normalized_domain_size(6) == 4 ** 10

    def test_index_zero_is_identity(self):
        assert instance_from_index(4, 0) == named_instance("identity(4)")

    def test_stream_matches_index_lookup(self):
        for i, g in enumerate(gen_exhaustive_normalized(4)):
            assert g == instance_from_index(4, i)

    def test_hub_star_is_pinned(self):
        g = instance_from_index(6, 987654)
        assert all(g.sign(1, v) == F22.E for v in range(2, 7))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            instance_from_index(4, 64)
        with pytest.raises(ValueError):
            gen_exhaustive_normalized(8)


class TestRandom:
    def test_same_seed_same_instance(self):
        assert gen_random(7, 123) == gen_random(7, 123)

    def test_instances_are_valid(self):
        g = gen_random(9, 5)
        assert len(list(g.edges())) == 36

    def test_negative_seed_is_refused_by_name(self, capsys):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            gen_random(7, -1)
        assert main(["construct", "--random", "7", "--seed", "-1"]) == 2
        assert "seed must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("call", [
        lambda: gen_random(MAX_GENERATED_N + 1, 0),
        lambda: gen_random(100_000, 0),
        lambda: named_instance(f"identity({MAX_GENERATED_N + 1})"),
        lambda: named_instance("identity(100000)"),
        lambda: main(["census", "--random", "100000"]),
        lambda: main(["construct", "--named", "identity(100000)"]),
        lambda: main(["gen", "--random", "100000"]),
        lambda: instance_from_index(3000, 0),
        lambda: instance_from_index(100_000, 0),
    ], ids=["random-above", "random", "identity-above", "identity", "cli-census",
            "cli-construct", "cli-gen", "index-3000", "index"])
    def test_oversized_instances_are_refused_fast_and_small(self, call, capsys):
        tracemalloc.start()
        begin = time.perf_counter()
        try:
            try:
                result = call()
            except ValueError as exc:
                result = str(exc)
            elapsed = time.perf_counter() - begin
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1 << 20
        if isinstance(result, str):  # the library call's ValueError
            message = result
        else:
            assert result == 2
            message = capsys.readouterr().err
        assert f"is above MAX_GENERATED_N={MAX_GENERATED_N}" in message

    def test_the_size_bound_admits_the_documented_sizes(self):
        assert MAX_GENERATED_N >= 200
        assert gen_random(MAX_GENERATED_N, 0).n == MAX_GENERATED_N
        assert named_instance(f"identity({MAX_GENERATED_N})").n == MAX_GENERATED_N

    def test_matrix_matches_scalar_generator(self):
        mat = random_sign_matrix(6, range(40, 60))
        for row, seed in zip(mat, range(40, 60)):
            assert bytes(row) == gen_random(6, seed)._signs


class TestNamed:
    def test_documented_triangle_labels(self, share_vertex_k4, triangle_k4):
        for g in (share_vertex_k4, triangle_k4):
            tris = tuple(
                triangle_sign(g, t) for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
            )
            assert tris == (F22.A, F22.B, F22.C, F22.E)

    def test_identity_instance(self):
        assert triangle_census(named_instance("identity(5)")).diversity == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown instance"):
            named_instance("mystery")
        with pytest.raises(ValueError):
            named_instance("identity(two)")


class TestSerialization:
    def test_round_trip_named(self, share_vertex_k4):
        assert parse(serialize(share_vertex_k4)) == share_vertex_k4

    def test_round_trip_many_random_records(self):
        rng = random.Random(0)
        for trial in range(10_000):
            g = gen_random(rng.randint(3, 8), trial)
            assert parse(serialize(g)) == g

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_with_comments_blanks_and_bit_pairs(self, data):
        n = data.draw(st.integers(2, 9))
        m = n * (n - 1) // 2
        labels = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        g = SignedCompleteGraph.from_signs(n, labels)
        header, *edges = serialize(g).splitlines()
        lines = [header]
        for line in edges:
            u, v, label = line.split()
            if data.draw(st.booleans()):
                label = format(F22.parse(label), "02b")
            tail = data.draw(st.sampled_from(["", " # note", "\n", "\n# c\n"]))
            lines.append(f"{u} {v} {label}{tail}")
        assert parse("# instance\n\n" + "\n".join(lines)) == g

    def test_missing_edge_names_the_pair(self):
        text = "n=3\n1 2 a\n1 3 b\n"
        with pytest.raises(ParseError, match=r"missing edge \(2, 3\)"):
            parse(text)

    def test_large_header_fails_fast_without_building_the_edge_list(self):
        # the adversarial-header test below bounds its time and memory
        with pytest.raises(ParseError, match=r"missing edge \(1, 2\)"):
            parse("n=100000\n")

    @pytest.mark.parametrize("n", [10, 10**4, 10**8, 10**12])
    @pytest.mark.parametrize("edge_lines", range(4))
    def test_adversarial_header_fails_fast_and_small(self, n, edge_lines):
        text = f"n={n}\n" + "".join(["1 2 a\n", "1 3 b\n", "2 3 c\n"][:edge_lines])
        tracemalloc.start()
        begin = time.perf_counter()
        try:
            with pytest.raises(ParseError, match="missing edge"):
                parse(text)
            elapsed = time.perf_counter() - begin
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1 << 20

    def test_bad_label_reports_line_number(self):
        text = "n=3\n1 2 a\n1 3 d\n2 3 b\n"
        with pytest.raises(ParseError, match="line 3"):
            parse(text)

    def test_duplicate_edge(self):
        text = "n=3\n1 2 a\n2 1 a\n2 3 b\n1 3 b\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse(text)

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse("1 2 a\n")

    @pytest.mark.parametrize("text,message", [
        ("n=x\n", "line 1: bad vertex count 'n=x'"),
        ("# c\nn=1\n", "line 2: need n >= 2"),
        ("n=3\n1 2\n", "line 2: expected 'u v <label>', got '1 2'"),
        ("n=3\n1 x a\n", "line 2: bad vertex in '1 x a'"),
        ("n=3\n1 2 a\n1 4 b\n", "line 3: vertex out of range for n=3: (1, 4)"),
        ("n=3\n\n2 2 a\n", "line 3: degenerate edge (2, 2)"),
        ("", "empty input: missing 'n=<N>' header"),
    ], ids=["bad-count", "n-1", "two-fields", "bad-vertex", "out-of-range", "degenerate",
            "empty"])
    def test_each_parse_error_names_its_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_comments_and_blanks_ignored(self, share_vertex_k4):
        text = "# fixture\n\n" + serialize(share_vertex_k4).replace("\n", "\n\n")
        assert parse(text) == share_vertex_k4


class TestCli:
    def test_gen_census_spectrum_pipeline(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        assert main(["gen", "--named", "share_vertex_k4", "--out", str(path)]) == 0
        assert main(["census", "--in", str(path), "--json"]) == 0
        census = json.loads(capsys.readouterr().out)
        assert census["diversity"] == 4
        assert census["k4"]["common_triple_star"] == 1
        assert main(["spectrum", "--in", str(path), "--witness", "--json"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["counts"] == {"e": 0, "a": 1, "b": 1, "c": 1}
        assert spec["witnesses"]["b"] == [1, 2, 3, 4]

    def test_census_output_is_pinned(self, capsys):
        assert main(["census", "--random", "9", "--seed", "2", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"n": 9, "diversity": 4, "triangle_counts": {"e": 15, "a": 19, "b": 22, '
            '"c": 28}, "k4": {"total": 126, "all_distinct": 46, "common_triple_star": 4, '
            '"common_triple_triangle": 6}}\n'
        )
        assert main(["census", "--random", "9", "--seed", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "k4: 46/126 all-distinct (4 star triples, 6 triangle triples)"
        )

    def test_census_refuses_a_graph_above_its_cap_before_any_scan(self, monkeypatch, capsys):
        from doublesign import cli

        def no_scan(g):
            raise AssertionError(f"scanned a graph on {g.n} vertices")

        monkeypatch.setattr(cli, "triangle_census", no_scan)
        begin = time.perf_counter()
        assert main(["census", "--named", f"identity({cli.MAX_CENSUS_N + 1})"]) == 2
        assert time.perf_counter() - begin < 0.1
        assert "census scans n <= MAX_CENSUS_N=100, got n=101" in capsys.readouterr().err

    def test_spectrum_output_is_pinned(self, capsys):
        args = ["spectrum", "--random", "10", "--seed", "3", "--witness"]
        assert main(args + ["--json"]) == 0
        assert capsys.readouterr().out == (
            '{"n": 10, "counts": {"e": 45152, "a": 45568, "b": 44800, "c": 45920}, '
            '"realized": ["a", "b", "c", "e"], "witnesses": {"e": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], '
            '"a": [1, 2, 3, 4, 5, 6, 7, 9, 8, 10], "b": [1, 2, 3, 4, 5, 6, 7, 8, 10, 9], '
            '"c": [1, 2, 3, 4, 5, 6, 9, 8, 7, 10]}}\n'
        )
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == [
            "n=10 circles=181440",
            "counts: e=45152 a=45568 b=44800 c=45920",
            "realized: a b c e",
            "witness e: 1 2 3 4 5 6 7 8 9 10",
            "witness a: 1 2 3 4 5 6 7 9 8 10",
            "witness b: 1 2 3 4 5 6 7 8 10 9",
            "witness c: 1 2 3 4 5 6 9 8 7 10",
        ]

    def test_spectrum_refuses_above_the_bound_before_generating(self, monkeypatch, capsys):
        def no_graph(n, seed):
            raise AssertionError(f"generated a graph on {n} vertices")

        monkeypatch.setattr("doublesign.io_gen.gen_random", no_graph)
        assert main(["spectrum", "--random", "100000"]) == 2
        assert capsys.readouterr().err == "error: n=100000 exceeds the enumeration ceiling 11\n"
        assert main(["spectrum", "--random", "12"]) == 2
        assert "n=12 exceeds the enumeration ceiling 11" in capsys.readouterr().err
        start = time.perf_counter()
        assert main(["spectrum", "--random", "15"]) == 2
        assert time.perf_counter() - start < 0.1
        assert "n=15 exceeds the enumeration ceiling 11" in capsys.readouterr().err
        # the ceiling is the only limit: no option moves it
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--random", "11", "--bound", "11"])
        assert exc.value.code == 2

    def test_construct_refusal_exit_code(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["gen", "--named", "identity(6)", "--out", str(path)])
        assert main(["construct", "--in", str(path)]) == 1
        assert main(["construct", "--named", "identity(6)", "--json"]) == 1
        assert capsys.readouterr().out == (
            '{"refused": "triangle diversity bounds the spectrum to {e}"}\n'
        )

    def test_construct_success(self, capsys):
        assert main(["construct", "--random", "7", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(w["sign"] for w in payload["witnesses"]) == ["a", "b", "c", "e"]
        assert payload["trace"]
        assert main(["construct", "--random", "7", "--seed", "3", "--trace"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "witness e: 1 2 3 6 5 4 7",
            "witness a: 1 4 5 6 3 2 7",
            "witness b: 1 2 4 5 6 3 7",
            "witness c: 1 2 7 4 5 6 3",
            "trace: lemma_c/case_beta/case1",
        ]

    def test_normalize_flag(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["gen", "--named", "share_vertex_k4", "--out", str(path)])
        assert main(["census", "--in", str(path), "--normalize", "4", "--json"]) == 0
        census = json.loads(capsys.readouterr().out)
        assert census["diversity"] == 4  # switching never changes the census

    def test_verify_pass_and_fail_codes(self, capsys):
        assert main(["verify", "--lemma", "lemma12", "--scope", "exhaustive_group"]) == 0
        capsys.readouterr()
        assert main(["verify", "--lemma", "lemma_b", "--scope", "random:4:10"]) == 2

    def test_verify_failure_prints_each_violation(self, monkeypatch, capsys):
        pair_sums = lemma_lab.pair_sums
        quad = (F22.A, F22.B, F22.A, F22.C)
        monkeypatch.setattr(lemma_lab, "pair_sums",
                            lambda *q: (F22.E,) * 4 if q == quad else pair_sums(*q))
        assert main(["verify", "--lemma", "lemma11", "--scope", "exhaustive_group"]) == 1
        summary, *violations = capsys.readouterr().out.splitlines()
        assert summary.startswith("lemma11: FAIL (1 violations) over ")
        assert violations == ["  violation: {'tuple': ['a', 'b', 'a', 'c']}"]

    def test_verify_json_report(self, capsys):
        assert main(["verify", "--lemma", "lemma11", "--scope", "exhaustive_group",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True and report["scanned"] == 48

    def test_gen_exhaustive_stream(self, capsys):
        assert main(["gen", "--exhaustive-normalized", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("# index") == 64

    def test_instance_source_is_required(self):
        assert main(["census"]) == 2

    @pytest.mark.parametrize("argv", [
        [],
        ["--random", "2"],
        ["--exhaustive-normalized", "7"],
        ["--exhaustive-normalized", "8"],
        ["--random", "4", "--named", "identity(3)"],
        ["--random", "7", "--seed", "-1"],
    ], ids=["no-source", "random-2", "exhaustive-7", "exhaustive-8", "two-sources",
            "negative-seed"])
    def test_gen_usage_error_leaves_the_out_file_as_it_was(self, argv, tmp_path, capsys):
        path = tmp_path / "keep.txt"
        path.write_text("n=3\n1 2 a\n1 3 b\n2 3 c\n")
        assert main(["gen", *argv, "--out", str(path)]) == 2
        assert path.read_text() == "n=3\n1 2 a\n1 3 b\n2 3 c\n"
        assert capsys.readouterr().err.startswith(("usage error: ", "error: "))

    def test_stdin_instance(self, monkeypatch, capsys):
        import io as _io

        from doublesign import io_gen as iog

        text = iog.serialize(named_instance("triangle_k4"))
        monkeypatch.setattr("sys.stdin", _io.StringIO(text))
        assert main(["census", "--in", "-", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["diversity"] == 4

    @pytest.mark.parametrize("argv", [
        ["census", "--in", "{dir}"],
        ["gen", "--named", "identity(6)", "--out", "{dir}"],
    ], ids=["census-in-dir", "gen-out-dir"])
    def test_a_directory_as_in_or_out_is_one_error_line(self, argv, tmp_path, capsys):
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(tmp_path) in captured.err
