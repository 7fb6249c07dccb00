import pytest

from wordrep.core import (
    Graph,
    Word,
    check_permutation,
    complete_graph,
    count_pattern_11,
    cycle_graph,
    empty_graph,
    induced_subword,
    initial_permutation,
    is_permutation,
    iter_mask,
    path_graph,
    reverse,
)

W = Word.compact("42535214421")  # running example word over {1..5}


class TestGraph:
    def test_from_edges_basic(self):
        G = Graph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert G.n == 3
        assert G.num_edges == 2
        assert G.has_edge_labels("a", "b")
        assert not G.has_edge_labels("a", "c")
        assert G.edge_labels() == [("a", "b"), ("b", "c")]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(("a", "a"), [])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="bad vertex label"):
            Graph.from_edges(("a", "b c"), [])
        with pytest.raises(ValueError, match="bad vertex label"):
            Graph.from_edges(("a", ""), [])

    def test_labels_checked_after_a_good_tuple_is_cached(self):
        # a label tuple that passed is not checked again; bad ones, and the
        # masks of every graph, still are
        Graph(("a", "b"), (0, 0))
        Word(("a", "b"), (0, 1))
        Graph(("a", "b"), (0, 0))
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            Graph(("a", "a"), (0, 0))
        with pytest.raises(ValueError, match="duplicate alphabet labels"):
            Word(("a", "a"), ())
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            Graph(("a", "a"), (0, 0))
        for bad in (("a", "b c"), ("a", ""), ("a", 1)):
            with pytest.raises(ValueError, match="bad vertex label"):
                Graph(bad, (0, 0))
            with pytest.raises(ValueError, match="bad vertex label"):
                Word(bad, ())
        with pytest.raises(TypeError):
            Graph(("a", ["b"]), (0, 0))
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(("a", "b"), (0b10, 0b00))
        with pytest.raises(ValueError, match="self-loop"):
            Graph(("a", "b"), (0b01, 0b00))
        with pytest.raises(ValueError, match="out of range"):
            Graph(("a", "b"), (0b100, 0b00))
        with pytest.raises(ValueError, match="out of range"):
            Word(("a", "b"), (2,))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(("a", "b"), [("a", "a")])

    def test_index_edge_out_of_range_rejected(self):
        for pair in ((0, 5), (2, 1), (-1, 0)):
            with pytest.raises(ValueError, match="edge endpoint out of range"):
                Graph.from_index_edges(("a", "b"), [pair])
        with pytest.raises(ValueError, match="self-loop at b"):
            Graph.from_index_edges(("a", "b"), [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Graph.from_edges(("a", "b"), [("a", "z")])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(("a", "b"), (0b10, 0b00))

    def test_idx_and_unknown_label(self):
        G = path_graph(("a", "b", "c"))
        assert G.idx("b") == 1
        with pytest.raises(ValueError, match="unknown vertex"):
            G.idx("z")

    def test_degree_and_edges(self):
        G = complete_graph(("1", "2", "3", "4"))
        assert G.num_edges == 6
        assert all(G.degree(i) == 3 for i in range(4))
        assert G.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_same_graph_ignores_vertex_order(self):
        G = Graph.from_edges(("a", "b", "c"), [("a", "b")])
        H = Graph.from_edges(("c", "b", "a"), [("b", "a")])
        assert G.same_graph(H)
        assert not G.same_graph(Graph.from_edges(("a", "b", "c"), [("a", "c")]))
        assert not G.same_graph(Graph.from_edges(("a", "b", "z"), [("a", "b")]))

    def test_induced_subgraph(self):
        G = cycle_graph(("1", "2", "3", "4", "5"))
        H = G.induced_subgraph({"1", "2", "3"})
        assert H.labels == ("1", "2", "3")
        assert H.edge_labels() == [("1", "2"), ("2", "3")]
        with pytest.raises(ValueError, match="unknown vertex"):
            G.induced_subgraph({"1", "9"})

    def test_delete_vertex(self):
        G = complete_graph(("1", "2", "3"))
        H = G.delete_vertex("2")
        assert H.labels == ("1", "3")
        assert H.num_edges == 1

    def test_neighbors_in(self):
        G = cycle_graph(("1", "2", "3", "4"))
        assert G.neighbors_in("1", ["2", "3"]) == {"2"}
        assert G.neighbors_in("1", G.labels) == {"2", "4"}

    def test_clique_and_independent(self):
        G = complete_graph(("1", "2", "3", "4"))
        assert G.is_clique(["1", "2", "3"])
        assert not G.is_independent_set(["1", "2"])
        E = empty_graph(("1", "2", "3"))
        assert E.is_independent_set(["1", "2", "3"])
        assert not E.is_clique(["1", "2"])

    def test_is_connected(self):
        assert cycle_graph(("1", "2", "3")).is_connected()
        assert not Graph.from_edges(("1", "2", "3"), [("1", "2")]).is_connected()
        assert empty_graph(("1",)).is_connected()

    def test_relabel(self):
        G = path_graph(("a", "b"))
        H = G.relabel({"a": "x"})
        assert H.labels == ("x", "b")
        assert H.has_edge_labels("x", "b")


class TestWord:
    def test_from_labels_and_str(self):
        w = Word.from_labels(("x", "y"), ["x", "y", "x"])
        assert str(w) == "x y x"
        assert len(w) == 3

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            Word.from_labels(("x",), ["x", "z"])

    def test_compact_parse_and_print(self):
        w = Word.compact("1213")
        assert w.alphabet == ("1", "2", "3")
        assert w.compact_str() == "1213"

    def test_compact_str_needs_single_chars(self):
        w = Word.from_labels(("ab", "c"), ["ab", "c"])
        with pytest.raises(ValueError, match="single-character"):
            w.compact_str()

    def test_concat(self):
        a = Word.compact("12", "12")
        b = Word.compact("21", "12")
        assert a.concat(b).compact_str() == "1221"
        with pytest.raises(ValueError, match="alphabet mismatch"):
            a.concat(Word.compact("3"))

    def test_multiplicity_and_occurring(self):
        assert W.multiplicity("4") == 3
        assert W.multiplicity("1") == 2
        assert W.occurring() == {"1", "2", "3", "4", "5"}
        with pytest.raises(ValueError, match="unknown vertex"):
            W.multiplicity("9")

    def test_permutation_predicates(self):
        p = Word.compact("42531")
        assert is_permutation(p)
        assert check_permutation(p) is p
        assert not is_permutation(Word.compact("1213"))
        with pytest.raises(ValueError, match="not a permutation"):
            check_permutation(Word.compact("1213"))


class TestWordOps:
    def test_induced_subword(self):
        assert induced_subword(W, "4", "5").compact_str() == "45544"
        assert induced_subword(W, "1", "2").compact_str() == "22121"
        with pytest.raises(ValueError, match="distinct"):
            induced_subword(W, "4", "4")

    def test_initial_permutation(self):
        assert initial_permutation(W).compact_str() == "42531"
        with pytest.raises(ValueError, match="never occur"):
            initial_permutation(Word(("1", "2"), (0,)))

    def test_reverse(self):
        assert reverse(W).compact_str() == "12441253524"
        assert reverse(reverse(W)) == W

    def test_count_pattern_11(self):
        assert count_pattern_11(W, "4", "5") == 2  # 45544 has 55 and 44
        assert count_pattern_11(W, "2", "5") == 2  # 25522 has 55 and 22
        with pytest.raises(ValueError, match="distinct"):
            count_pattern_11(W, "1", "1")

    def test_count_pattern_11_simple(self):
        w = Word.compact("1122")
        assert count_pattern_11(w, "1", "2") == 2
        assert count_pattern_11(Word.compact("1212"), "1", "2") == 0


class TestGenerators:
    def test_cycle_needs_three(self):
        with pytest.raises(ValueError, match="at least 3"):
            cycle_graph(("1", "2"))

    def test_shapes(self):
        assert cycle_graph(("1", "2", "3", "4")).num_edges == 4
        assert path_graph(("1", "2", "3")).num_edges == 2
        assert complete_graph(("1", "2", "3", "4", "5")).num_edges == 10
        assert empty_graph(("1", "2")).num_edges == 0

    def test_iter_mask(self):
        assert list(iter_mask(0b101001)) == [0, 3, 5]
        assert list(iter_mask(0)) == []
