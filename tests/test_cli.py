import errno
import io
import os
import shlex
import sys
from pathlib import Path

import pytest

from wordrep import cli
from wordrep.cli import main
from wordrep.core import complete_graph, cycle_graph
from wordrep.fileio import parse_graph, parse_orientation, print_graph
from wordrep.graph6 import parse_graph6, write_graph6
from wordrep.orient import is_semi_transitive, is_transitive
from wordrep.search import canonical_form


@pytest.fixture
def graph12_file(tmp_path):
    p = tmp_path / "g12.txt"
    from wordrep import catalog

    p.write_text(print_graph(catalog.get("graph12").graph))
    return str(p)


@pytest.fixture
def w12_file(tmp_path):
    p = tmp_path / "w12.txt"
    p.write_text(" ".join("4573275465142631256") + "\n")
    return str(p)


class TestVerify:
    def test_verified_exit_0(self, capsys, graph12_file, w12_file):
        assert main(["verify", graph12_file, w12_file, "-k", "1"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_refuted_exit_1_with_witness(self, capsys, graph12_file, w12_file):
        assert main(["verify", graph12_file, w12_file, "-k", "0"]) == 1
        assert "refuted" in capsys.readouterr().out

    def test_quiet(self, capsys, graph12_file, w12_file):
        assert main(["verify", "--quiet", graph12_file, w12_file, "-k", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_catalog_graph_name(self, capsys, w12_file):
        assert main(["verify", "graph12", w12_file, "-k", "1"]) == 0

    def test_parse_error_exit_2(self, capsys, tmp_path, w12_file):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense: x\n")
        assert main(["verify", str(bad), w12_file, "-k", "1"]) == 2

    def test_missing_file_exit_2(self, w12_file):
        assert main(["verify", "/no/such/file", w12_file]) == 2

    def test_negative_k_exit_2(self, capsys, graph12_file, w12_file):
        assert main(["verify", graph12_file, w12_file, "-k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestOrient:
    def test_check_catalog(self, capsys):
        assert main(["orient", "check", "chvatal-augmented"]) == 0
        assert "semi-transitive" in capsys.readouterr().out

    def test_check_shortcut_file(self, capsys, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text(
            "vertices: 1 2 3 4\n"
            "arc: 1 2\narc: 2 3\narc: 3 4\narc: 1 4\narc: 1 3\n"
        )
        assert main(["orient", "check", str(p)]) == 1
        assert "shortcut" in capsys.readouterr().out

    def test_check_cycle(self, capsys, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("vertices: 1 2 3\narc: 1 2\narc: 2 3\narc: 3 1\n")
        assert main(["orient", "check", str(p)]) == 1
        assert "cycle" in capsys.readouterr().out

    def test_paths(self, capsys):
        assert main(["orient", "paths", "3", "chvatal-augmented"]) == 0
        out = capsys.readouterr().out
        assert "path(s) with 3 arcs" in out

    def test_paths_bad_count(self):
        assert main(["orient", "paths", "x", "chvatal-augmented"]) == 2

    def test_paths_missing_args(self):
        assert main(["orient", "paths", "chvatal-augmented"]) == 2

    def test_search_found(self, capsys, tmp_path):
        p = tmp_path / "c5.txt"
        p.write_text(print_graph(cycle_graph(tuple("12345"))))
        assert main(["orient", "search", str(p)]) == 0
        D = parse_orientation(capsys.readouterr().out)
        assert is_semi_transitive(D)

    def test_search_none(self, capsys):
        assert main(["orient", "search", "w5"]) == 1
        assert "not word-representable" in capsys.readouterr().out

    def test_search_budget_env(self, monkeypatch, capsys):
        monkeypatch.setenv("WORDREP_MAX_NODES", "2")
        assert main(["orient", "search", "w5"]) == 3

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_non_positive_budget_env_exit_2(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("WORDREP_MAX_NODES", raw)
        assert main(["orient", "search", "w5"]) == 2
        assert f"bad WORDREP_MAX_NODES value '{raw}'" in capsys.readouterr().err

    def test_bad_budget_env(self, monkeypatch):
        monkeypatch.setenv("WORDREP_MAX_NODES", "lots")
        assert main(["orient", "search", "w5"]) == 2

    def test_transitive_search_takes_no_budget(self, monkeypatch, capsys):
        monkeypatch.setenv("WORDREP_MAX_NODES", "lots")
        assert main(["orient", "search-transitive", "bw3"]) == 0
        assert is_transitive(parse_orientation(capsys.readouterr().out))

    def test_check_transitive(self, capsys, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("vertices: a b c\narc: a b\narc: c b\n")
        assert main(["orient", "check-transitive", str(p)]) == 0
        p.write_text("vertices: a b c\narc: a b\narc: b c\n")
        assert main(["orient", "check-transitive", str(p)]) == 1

    def test_search_transitive_none(self, capsys, tmp_path):
        p = tmp_path / "c5.txt"
        p.write_text(print_graph(cycle_graph(tuple("12345"))))
        assert main(["orient", "search-transitive", str(p)]) == 1
        assert "not a comparability graph" in capsys.readouterr().out

    def test_searches_on_k50_exit_0(self, capsys, tmp_path):
        p = tmp_path / "k50.txt"
        p.write_text(print_graph(complete_graph(tuple(f"v{i}" for i in range(50)))))
        assert main(["orient", "search", str(p)]) == 0
        assert is_semi_transitive(parse_orientation(capsys.readouterr().out))
        assert main(["orient", "search-transitive", str(p)]) == 0
        assert is_transitive(parse_orientation(capsys.readouterr().out))


class TestConstruct:
    def test_split_byte_exact(self, capsys):
        assert main([
            "construct", "split", "split-min",
            "--clique", "1,2,3,4", "--independent", "5,6,7,8", "--compact",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            "12345678" "12348765" "12345678" "12356478"
            "41258367" "43125678" "43267158" "43215678"
        )
        assert "verified" in out[1]

    def test_split_missing_flags(self):
        assert main(["construct", "split", "split-min"]) == 2

    def test_mycielski_word(self, capsys):
        assert main(["construct", "mycielski-word", "5"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_double(self, capsys, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("4 2 5 3 5 2 1 4 4 2 1\n")
        assert main(["construct", "double", str(p), "--variant", "rpw", "--compact"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1352442535214421"

    def test_remove_matching_catalog_word(self, capsys):
        assert main([
            "construct", "remove-matching", "chvatal",
            "--word", "catalog:chvatal-augmented",
            "--edge", "1,3", "--edge", "2,4",
        ]) == 0
        assert "verified" in capsys.readouterr().out

    def test_remove_matching_bad_edge(self):
        assert main([
            "construct", "remove-matching", "chvatal",
            "--word", "catalog:chvatal-augmented", "--edge", "1",
        ]) == 2

    def test_remove_matching_needs_word(self):
        assert main(["construct", "remove-matching", "chvatal"]) == 2

    def test_three_perm(self, capsys, tmp_path):
        p = tmp_path / "perms.txt"
        p.write_text("1 2 3\n2 1 3\n1 2 3\n")
        assert main(["construct", "three-perm", str(p)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 1 2 3" in out
        G = parse_graph(out[out.index("vertices:"):])
        assert not G.has_edge_labels("1", "2")

    def test_three_perm_verifies_its_word(self, capsys, tmp_path, monkeypatch):
        # a wrong graph from the lemma is caught before "verified:" is printed
        p = tmp_path / "perms.txt"
        p.write_text("1 2 3\n2 1 3\n1 2 3\n")
        monkeypatch.setattr(cli, "three_perm_graph", lambda *perms: complete_graph(["1", "2", "3"]))
        assert main(["construct", "three-perm", str(p)]) == 2
        captured = capsys.readouterr()
        assert "verified:" not in captured.out
        assert captured.err.startswith("error:") and "failed verification" in captured.err

    @pytest.mark.parametrize("kind, commented, plain", [
        ("three-perm", "# three permutations of 1..3\n1 2 3\n3 2 1\n1 2 3\n", "1 2 3\n3 2 1\n1 2 3\n"),
        ("double", "1 2 1 2 # alternating\n", "1 2 1 2\n"),
    ])
    def test_word_file_comments_ignored(self, capsys, tmp_path, kind, commented, plain):
        # a comment's words are no letters of the alphabet read from the file
        outputs = []
        for name, text in (("commented.txt", commented), ("plain.txt", plain)):
            p = tmp_path / name
            p.write_text(text)
            assert main(["construct", kind, str(p)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["mycielski-word"], ["three-perm"], ["double"], ["split"], ["comp-ind"],
        ["remove-edges", "graph12"], ["remove-matching"],
    ], ids=lambda argv: argv[0])
    def test_too_few_inputs_exit_2(self, capsys, argv):
        assert main(["construct", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        # surplus inputs are rejected, not silently dropped; each of these
        # succeeds without its last input
        pytest.param(["mycielski-word", "5", "6"], id="mycielski-word-surplus"),
        pytest.param(
            ["remove-edges", "chvatal-augmented", "catalog:chvatal-augmented", "6"],
            id="remove-edges-surplus",
        ),
        pytest.param(
            ["remove-matching", "chvatal", "--word", "catalog:chvatal-augmented", "6",
             "--edge", "1,3", "--edge", "2,4"],
            id="remove-matching-surplus",
        ),
    ])
    def test_surplus_inputs_exit_2(self, capsys, argv):
        assert main(["construct", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("parts, short, word", [
        (["1,2"], [], "1243" "2143" "1243" "12413423" "12413423"),
        (["1,2", "3 4"], ["--short"], "1243" "2134" "12413423" "12413423"),
    ], ids=["long", "short"])
    def test_remove_edges(self, capsys, tmp_path, parts, short, word):
        # C4 and its 2-uniform representant 1 2 4 1 3 4 2 3
        g = tmp_path / "c4.txt"
        g.write_text(print_graph(cycle_graph(tuple("1234"))))
        w = tmp_path / "w.txt"
        w.write_text("1 2 4 1 3 4 2 3\n")
        part_args = [arg for part in parts for arg in ("--part", part)]
        assert main(["construct", "remove-edges", str(g), str(w), *part_args, *short, "--compact"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == word
        assert out[1] == "verified: 1-11-represents the graph minus the internal part edges"

    def test_comp_ind(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(
            "vertices: a b c d e\n"
            "edge: a b\nedge: b c\nedge: a d\nedge: c d\nedge: b e\n"
        )
        assert main([
            "construct", "comp-ind", str(p), "--comp", "a,b,c", "--independent", "d,e",
        ]) == 0
        assert "verified" in capsys.readouterr().out


class TestCatalogOperands:
    """Graph, orientation and word operands name catalog entries by one rule."""

    @pytest.mark.parametrize("argv, message", [
        (["orient", "search", "mycielski-c:2"], "Mycielski cycle needs n >= 3"),
        (["orient", "search", "catalog:mycielski-c:x"], "bad Mycielski cycle size"),
        (["orient", "check", "catalog:nope"], "unknown catalog entry 'nope'"),
        (["verify", "catalog:nope", "graph12"], "unknown catalog entry 'nope'"),
        (["verify", "graph12", "catalog:nope"], "unknown catalog entry 'nope'"),
    ], ids=["mycielski-size", "mycielski-bad-size", "orientation", "graph", "word"])
    def test_catalog_operand_reports_the_catalog_error(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "neither" not in err

    def test_bare_catalog_name_as_word(self, capsys):
        assert main(["verify", "graph12", "graph12", "-k", "1"]) == 0
        assert "verified" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["orient", "search", "nope"], ["orient", "check", "nope"], ["verify", "graph12", "nope"],
    ], ids=["graph", "orientation", "word"])
    def test_other_names_are_files(self, capsys, argv):
        assert main(argv) == 2
        assert "'nope' is neither a catalog name nor a file" in capsys.readouterr().err


class TestCensus:
    def test_n4(self, capsys):
        assert main(["census", "4"]) == 0
        assert "0 non-word-representable" in capsys.readouterr().out

    def test_n6_emit(self, capsys, tmp_path):
        out_file = tmp_path / "bad.g6"
        assert main(["census", "6", "--emit-graph6", str(out_file)]) == 0
        assert "1 non-word-representable" in capsys.readouterr().out
        lines = out_file.read_text().split()
        assert len(lines) == 1
        G = parse_graph6(lines[0])
        assert G.n == 6 and G.num_edges == 10

    def test_graph6_stream(self, capsys, tmp_path):
        stream = tmp_path / "in.g6"
        from wordrep.graph6 import write_graph6
        from wordrep.search import enumerate_nonisomorphic

        stream.write_text(
            "\n".join(write_graph6(G) for G in enumerate_nonisomorphic(5, connected_only=True))
        )
        assert main(["census", "--graph6", str(stream)]) == 0
        assert "examined 21 graphs, 0 non-word-representable" in capsys.readouterr().out

    def test_graph6_petersen(self, capsys, tmp_path):
        stream = tmp_path / "petersen.g6"
        stream.write_text("IheA@GUAo\n")
        assert main(["census", "--graph6", str(stream)]) == 0
        assert "n=10: examined 1 graphs, 0 non-word-representable" in capsys.readouterr().out

    def test_graph6_stdin(self, capsys, monkeypatch):
        from wordrep import catalog

        lines = [write_graph6(catalog.get("w5").graph), write_graph6(complete_graph(tuple("123456")))]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["census", "--graph6", "-"]) == 0
        assert "n=6: examined 2 graphs, 1 non-word-representable" in capsys.readouterr().out

    def test_unwritable_emit_exit_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.g6"
        assert main(["census", "5", "--emit-graph6", str(target)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_emit_fails_before_the_census(self, capsys, tmp_path, monkeypatch):
        # the output is opened first: a bad path costs no census
        calls = []
        monkeypatch.setattr(cli, "census_non_word_representable", lambda *a, **k: calls.append(a))
        target = tmp_path / "no" / "such" / "dir" / "x.g6"
        assert main(["census", "8", "--emit-graph6", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "examined" not in captured.out
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["census", "9"],
        ["census", "5", "--jobs", "0"],
        ["census", "--graph6", "{malformed}"],
    ], ids=["n-out-of-range", "jobs-zero", "malformed-graph6"])
    def test_failed_census_keeps_the_emit_file(self, capsys, tmp_path, argv):
        malformed = tmp_path / "bad.g6"
        malformed.write_text("=?\n")
        kept = tmp_path / "kept.g6"
        kept.write_text("ELrw\n")
        argv = [arg.format(malformed=malformed) for arg in argv]
        assert main(argv + ["--emit-graph6", str(kept)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert kept.read_text() == "ELrw\n"

    def test_census_replaces_the_emit_file(self, capsys, tmp_path):
        out_file = tmp_path / "old.g6"
        out_file.write_text("Bw\nBw\nBw\n")
        assert main(["census", "6", "--emit-graph6", str(out_file)]) == 0
        assert out_file.read_text() == "ELrw\n"

    def test_emit_to_stdout_ignores_a_file_named_dash(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text("kept\n")
        assert main(["census", "6", "--emit-graph6", "-"]) == 0
        assert capsys.readouterr().out == "n=6: examined 112 graphs, 1 non-word-representable\nELrw\n"
        assert (tmp_path / "-").read_text() == "kept\n"

    def test_missing_graph6_stream_exit_2(self, capsys, tmp_path):
        assert main(["census", "--graph6", str(tmp_path / "missing.g6")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_graph6_stream_with_header(self, capsys, tmp_path):
        from wordrep import catalog
        from wordrep.graph6 import HEADER, write_graph6

        stream = tmp_path / "w5.g6"
        stream.write_text(HEADER + write_graph6(catalog.get("w5").graph) + "\n")
        assert main(["census", "--graph6", str(stream)]) == 0
        assert "n=6: examined 1 graphs, 1 non-word-representable" in capsys.readouterr().out

    def test_graph6_stream_with_other_header_exit_2(self, capsys, tmp_path):
        stream = tmp_path / "in.s6"
        stream.write_text(">>sparse6<<:Bg\n")
        assert main(["census", "--graph6", str(stream)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "examined" not in captured.out

    @pytest.mark.parametrize("line", ["=?", "\x7f"], ids=["equals-sign", "del"])
    def test_invalid_graph6_size_byte_exit_2(self, capsys, tmp_path, line):
        stream = tmp_path / "bad.g6"
        stream.write_text(line + "\n")
        assert main(["census", "--graph6", str(stream)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "examined" not in captured.out

    @pytest.mark.parametrize("n", ["-1", "0", "9"])
    def test_n_out_of_range_exit_2(self, capsys, n):
        assert main(["census", n]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "1 <= n <= 8" in captured.err
        assert "examined" not in captured.out

    def test_jobs_zero_exit_2(self, capsys):
        assert main(["census", "5", "--jobs", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestFileErrors:
    """A file that cannot be read or written exits 2, never 1 (refuted)."""

    class _FullDisk(io.StringIO):
        # accepts every write and fails when closing flushes them, as a full disk does
        def close(self):
            super().close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def test_emit_failing_at_flush_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "open", lambda *a, **k: self._FullDisk(), raising=False)
        assert main(["census", "6", "--emit-graph6", "out.g6"]) == 2
        captured = capsys.readouterr()
        assert "n=6: examined 112 graphs, 1 non-word-representable" in captured.out
        assert captured.err.startswith("error:") and os.strerror(errno.ENOSPC) in captured.err
        assert "out.g6" in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_emit_to_full_device_exit_2(self, capsys):
        assert main(["census", "6", "--emit-graph6", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "/dev/full" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "{f}", "{f}"],
        ["orient", "check", "{f}"],
        ["construct", "double", "{f}"],
        ["construct", "three-perm", "{f}"],
        ["census", "--graph6", "{f}"],
    ], ids=["graph", "orientation", "word", "three-perm", "graph6"])
    def test_unreadable_file_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        f = tmp_path / "locked.txt"
        f.write_text("")

        def denied(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(cli.Path, "read_text", denied)
        assert main([arg.format(f=f) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and os.strerror(errno.EACCES) in captured.err


class TestCatalog:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "chvatal" in out and "graph17" in out

    def test_verify(self, capsys):
        assert main(["catalog", "verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_exits_1_on_a_failed_check(self, capsys, monkeypatch):
        from wordrep import catalog

        n, edges, words, arcs, _subsets = catalog._TABLE["graph17"]
        monkeypatch.setitem(catalog._TABLE, "graph17", (n, edges, words, arcs, {"independent": "1 2"}))
        assert main(["catalog", "verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  graph17: independent subset  (not independent)" in out.splitlines()
        assert "PASS  graph17: word k=1" in out.splitlines()

    def test_export_graphfile_roundtrip(self, capsys):
        assert main(["catalog", "export", "bw3"]) == 0
        G = parse_graph(capsys.readouterr().out)
        assert (G.n, G.num_edges) == (7, 9)

    def test_export_graph6(self, capsys):
        assert main(["catalog", "export", "w5", "--format", "graph6"]) == 0
        G = parse_graph6(capsys.readouterr().out.strip())
        from wordrep import catalog

        assert canonical_form(G) == canonical_form(catalog.get("w5").graph)

    def test_export_unknown(self):
        assert main(["catalog", "export", "nope"]) == 2

    def test_export_without_name_exit_2(self, capsys):
        assert main(["catalog", "export"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestUsageErrors:
    """Every usage error returns 2 with one error: line instead of raising SystemExit."""

    @pytest.mark.parametrize("argv", [
        [],
        ["construct", "nope"],
        ["orient", "nope", "x"],
    ], ids=["no-command", "construct-kind", "orient-action"])
    def test_unknown_or_missing_command_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: wordrep")

    @pytest.mark.parametrize("argv, foreign", [
        (["double", "catalog:chvatal-augmented"], ["--clique", "1"]),
        (["mycielski-word", "5"], ["--part", "1,2"]),
        (["split", "split-min", "--clique", "1,2,3,4", "--independent", "5,6,7,8"], ["--variant", "rpw"]),
        (["remove-matching", "chvatal", "--word", "catalog:chvatal-augmented", "--edge", "1,3", "--edge", "2,4"],
         ["--comp", "1"]),
    ], ids=lambda v: v[0])
    def test_flag_of_another_kind_exit_2(self, capsys, argv, foreign):
        assert main(["construct", *argv]) == 0
        capsys.readouterr()
        assert main(["construct", *argv, *foreign]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")

    def test_error_names_the_subcommand(self, capsys):
        assert main(["construct", "split", "split-min"]) == 2
        assert capsys.readouterr().err.startswith("error: wordrep construct split: ")

    def test_census_takes_n_or_graph6(self, capsys, tmp_path):
        from wordrep import catalog

        stream = tmp_path / "w5.g6"
        stream.write_text(write_graph6(catalog.get("w5").graph) + "\n")
        assert main(["census", "7", "--graph6", str(stream)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "examined" not in captured.out

    def test_kind_help_lists_its_own_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "split", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--clique" in out and "--compact" in out and "--part" not in out


def _readme_cli_examples() -> list[list[str]]:
    """The wordrep lines of README's CLI examples, continuations joined, comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("wordrep ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_parses(argv):
    cli.build_parser().parse_args(argv[1:])


class TestVersion:
    @pytest.mark.parametrize("have_ext, backend", [(False, "pure"), (True, "compiled")])
    def test_version_names_backend(self, capsys, monkeypatch, have_ext, backend):
        from wordrep import cli

        monkeypatch.setattr(cli, "HAVE_EXT", have_ext)
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"wordrep 0.1.0 (kernels: {backend})\n"

    def test_version_reports_loaded_backend(self, capsys):
        from wordrep import HAVE_EXT

        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.endswith(f"(kernels: {'compiled' if HAVE_EXT else 'pure'})\n")
