import json
import random

import pytest

from doublesign import (
    F22,
    InstanceRecord,
    ParseError,
    gen_exhaustive_normalized,
    gen_random,
    instance_from_index,
    named_instance,
    parse,
    serialize,
    triangle_census,
    triangle_sign,
)
from doublesign.cli import main
from doublesign.io_gen import normalized_domain_size, random_sign_matrix


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
            list(gen_exhaustive_normalized(8))


class TestRandom:
    def test_same_seed_same_instance(self):
        assert gen_random(7, 123) == gen_random(7, 123)

    def test_instances_are_valid(self):
        g = gen_random(9, 5)
        assert len(list(g.edges())) == 36

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
        rec = InstanceRecord.from_graph(share_vertex_k4, {"name": "share_vertex_k4"})
        assert parse(serialize(rec)).to_graph() == share_vertex_k4

    def test_round_trip_many_random_records(self):
        rng = random.Random(0)
        for trial in range(10_000):
            n = rng.randint(3, 8)
            rec = InstanceRecord.from_graph(gen_random(n, trial))
            assert parse(serialize(rec)) == InstanceRecord(rec.n, rec.edges)

    def test_dict_round_trip(self, triangle_k4):
        rec = InstanceRecord.from_graph(triangle_k4, {"seed": 9})
        again = InstanceRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert again == rec

    def test_missing_edge_names_the_pair(self):
        text = "n=3\n1 2 a\n1 3 b\n"
        with pytest.raises(ParseError, match=r"missing edge \(2, 3\)"):
            parse(text)

    def test_large_header_fails_fast_without_building_the_edge_list(self):
        from doublesign.graph import all_edges

        before = all_edges.cache_info().currsize
        with pytest.raises(ParseError, match=r"missing edge \(1, 2\)"):
            parse("n=100000\n")
        assert all_edges.cache_info().currsize == before

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

    def test_comments_and_blanks_ignored(self, share_vertex_k4):
        rec = InstanceRecord.from_graph(share_vertex_k4)
        text = "# fixture\n\n" + serialize(rec).replace("\n", "\n\n")
        assert parse(text).to_graph() == share_vertex_k4


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

    def test_construct_refusal_exit_code(self, tmp_path):
        path = tmp_path / "g.txt"
        main(["gen", "--named", "identity(6)", "--out", str(path)])
        assert main(["construct", "--in", str(path)]) == 1

    def test_construct_success(self, capsys):
        assert main(["construct", "--random", "7", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(w["sign"] for w in payload["witnesses"]) == ["a", "b", "c", "e"]
        assert payload["trace"]

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

    def test_stdin_instance(self, monkeypatch, capsys):
        import io as _io

        from doublesign import io_gen as iog

        text = iog.serialize(InstanceRecord.from_graph(named_instance("triangle_k4")))
        monkeypatch.setattr("sys.stdin", _io.StringIO(text))
        assert main(["census", "--in", "-", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["diversity"] == 4
