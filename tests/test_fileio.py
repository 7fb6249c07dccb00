import pytest

from wordrep.core import Graph, Word, cycle_graph, path_graph
from wordrep.fileio import (
    ParseError,
    parse_graph,
    parse_orientation,
    parse_words,
    print_graph,
    print_orientation,
    print_words,
)
from wordrep.orient import Orientation


class TestGraphFiles:
    def test_round_trip(self):
        G = cycle_graph(("a", "b", "c", "d"))
        assert parse_graph(print_graph(G)).same_graph(G)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nvertices: a b\nedge: a b  # trailing\n"
        G = parse_graph(text)
        assert G.labels == ("a", "b")
        assert G.num_edges == 1

    def test_missing_vertices(self):
        with pytest.raises(ParseError, match="missing vertices"):
            parse_graph("edge: a b\n")

    def test_duplicate_vertices_line(self):
        with pytest.raises(ParseError, match="duplicate vertices"):
            parse_graph("vertices: a\nvertices: b\n")

    def test_bad_edge_arity(self):
        with pytest.raises(ParseError, match="two endpoints"):
            parse_graph("vertices: a b c\nedge: a b c\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unrecognized directive"):
            parse_graph("vertices: a b\nfoo: a b\n")

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_graph("vertices: a b\nedge: a z\n")


    def test_no_label_reads_as_a_comment(self):
        # `#` starts a comment, so a label holding one would not survive
        # print then parse: the file of a vertex a#1 would fail to parse,
        # and the word `x# y x#` would read back as `x`
        with pytest.raises(ValueError, match="bad vertex label"):
            Graph.from_edges(("a#1", "b"), [("a#1", "b")])
        with pytest.raises(ValueError, match="bad vertex label"):
            Word.from_labels(("x#", "y"), ["x#", "y", "x#"])


class TestOrientationFiles:
    def test_round_trip(self):
        D = Orientation.from_arcs(path_graph(("a", "b", "c")), [("a", "b"), ("c", "b")])
        E = parse_orientation(print_orientation(D))
        assert E.base.same_graph(D.base)
        assert sorted(E.arcs()) == sorted(D.arcs())

    def test_duplicate_arc(self):
        with pytest.raises(ParseError, match="duplicate or conflicting"):
            parse_orientation("vertices: a b\narc: a b\narc: b a\n")

    def test_missing_vertices(self):
        with pytest.raises(ParseError, match="missing vertices"):
            parse_orientation("arc: a b\n")

    def test_bad_arc_arity(self):
        with pytest.raises(ParseError, match="two endpoints"):
            parse_orientation("vertices: a b\narc: a\n")


class TestWordFiles:
    def test_round_trip(self):
        words = [Word.compact("1213"), Word.compact("321", "123")]
        out = parse_words(print_words(words), ("1", "2", "3"))
        assert out == words

    def test_unknown_letter(self):
        with pytest.raises(ParseError, match="not in alphabet"):
            parse_words("1 2 9\n", ("1", "2"))

    def test_comments_skipped(self):
        out = parse_words("# header\n1 2\n\n2 1\n", ("1", "2"))
        assert len(out) == 2

    def test_alphabet_from_tokens_skips_comments(self):
        out = parse_words("# header a b\n3 1 # tail\n1 2 3\n")
        assert [w.alphabet for w in out] == [("3", "1", "2")] * 2
        assert [str(w) for w in out] == ["3 1", "1 2 3"]
