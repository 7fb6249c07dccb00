import random
from itertools import combinations, product

import pytest

from oracles import random_word, slow_graph_of_word, slow_pattern_11
from wordrep import catalog
from wordrep.core import (
    Graph,
    Word,
    complete_graph,
    count_pattern_11,
    cycle_graph,
    empty_graph,
    path_graph,
)
from wordrep.verify import (
    Verdict,
    alternates,
    graph_of_word,
    induces_copy,
    is_permutational,
    is_t_uniform,
    pattern_counts,
    uniformity,
    verify_k11,
)


class TestVerdict:
    def test_witness_iff_failure(self):
        assert Verdict(True)
        assert not Verdict(False, ("x", "y", 2, "edge"))
        with pytest.raises(ValueError):
            Verdict(True, ("x", "y", 2, "edge"))
        with pytest.raises(ValueError):
            Verdict(False)


class TestGraphOfWord:
    def test_small_example(self):
        w = Word.compact("1213")
        G0 = graph_of_word(w, 0)
        assert set(map(frozenset, G0.edge_labels())) == {
            frozenset({"1", "2"}),
            frozenset({"2", "3"}),
        }
        G1 = graph_of_word(w, 1)
        assert G1.has_edge_labels("1", "3")

    def test_matches_naive_oracle(self):
        rng = random.Random(7)
        labels = ("1", "2", "3", "4", "5")
        for _ in range(200):
            w = random_word(rng, labels, rng.randrange(0, 10))
            for k in (0, 1, 2):
                assert graph_of_word(w, k).same_graph(slow_graph_of_word(w, k))

    def test_missing_letter_rejected(self):
        w = Word(("1", "2"), (0, 0))
        with pytest.raises(ValueError, match="never occur"):
            graph_of_word(w, 0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            graph_of_word(Word.compact("12"), -1)

    def test_pattern_counts_match_pairwise(self):
        rng = random.Random(3)
        labels = ("a", "b", "c", "d")
        for _ in range(50):
            w = random_word(rng, labels, rng.randrange(0, 8))
            counts = pattern_counts(w)
            from wordrep._kernels import pair_index

            for i, j in combinations(range(4), 2):
                x, y = labels[i], labels[j]
                assert counts[pair_index(i, j, 4)] == slow_pattern_11(w, x, y)
                assert counts[pair_index(i, j, 4)] == count_pattern_11(w, x, y)


class TestVerifyK11:
    def test_simple_hold_and_fail(self):
        K2 = complete_graph(("x", "y"))
        assert verify_k11(Word.from_labels(("x", "y"), ["x", "y"]), K2, 0)
        v = verify_k11(Word.from_labels(("x", "y"), ["x", "x", "y"]), K2, 0)
        assert not v
        assert v.witness == ("x", "y", 1, "edge")

    def test_non_edge_witness(self):
        E2 = empty_graph(("x", "y"))
        v = verify_k11(Word.from_labels(("x", "y"), ["x", "y"]), E2, 0)
        assert v.witness == ("x", "y", 0, "non-edge")

    def test_negative_k_rejected(self):
        K2 = complete_graph(("x", "y"))
        with pytest.raises(ValueError, match="non-negative"):
            verify_k11(Word.from_labels(("x", "y"), ["x", "y"]), K2, -1)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            verify_k11(Word.compact("12"), complete_graph(("x", "y")), 0)

    def test_missing_letter(self):
        K2 = complete_graph(("x", "y"))
        with pytest.raises(ValueError, match="never occur"):
            verify_k11(Word(("x", "y"), (0, 0)), K2, 0)

    def test_verify_agrees_with_graph_of_word(self):
        rng = random.Random(11)
        labels = ("1", "2", "3", "4", "5")
        for _ in range(100):
            w = random_word(rng, labels, rng.randrange(0, 10))
            k = rng.randrange(0, 2)
            G = graph_of_word(w, k)
            assert verify_k11(w, G, k)
            # a perturbed graph must be refuted
            i, j = sorted(rng.sample(range(5), 2))
            adj = list(G.adj)
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
            H = Graph(G.labels, tuple(adj))
            assert not verify_k11(w, H, k)


class TestWordPredicates:
    def test_alternates_equals_zero_count(self):
        rng = random.Random(5)
        labels = ("p", "q", "r")
        for _ in range(100):
            w = random_word(rng, labels, rng.randrange(0, 8))
            for x, y in combinations(labels, 2):
                assert alternates(w, x, y) == (slow_pattern_11(w, x, y) == 0)

    def test_uniformity(self):
        assert uniformity(Word.compact("1221", "12")) == 2
        assert uniformity(Word.compact("122", "12")) is None
        assert is_t_uniform(Word.compact("121212"), 3)
        assert not is_t_uniform(Word.compact("121212"), 2)

    def test_empty_alphabet_is_t_uniform_for_every_t(self):
        empty = Word((), ())
        assert uniformity(empty) is None
        assert all(is_t_uniform(empty, t) for t in range(5))
        # a letter that never occurs makes a word 0-uniform and nothing else
        assert is_t_uniform(Word(("a",), ()), 0)
        assert not is_t_uniform(Word(("a",), ()), 1)

    def test_is_permutational(self):
        assert is_permutational(Word.compact("123321213"))
        assert not is_permutational(Word.compact("1233212"))  # wrong length
        assert not is_permutational(Word.compact("123321113"))  # bad block


class TestInducesCopy:
    def test_cycle_in_wheel(self):
        # W5 = C5 plus a hub
        labels = tuple(str(i) for i in range(1, 7))
        edges = [(str(i), str(i % 5 + 1)) for i in range(1, 6)]
        edges += [("6", str(i)) for i in range(1, 6)]
        W5 = Graph.from_edges(labels, edges)
        C5 = cycle_graph(("a", "b", "c", "d", "e"))
        assert induces_copy(W5, {"1", "2", "3", "4", "5"}, C5)
        assert not induces_copy(W5, {"1", "2", "3", "4", "6"}, C5)
        # BW3 with its vertices renamed and listed in another order
        bw3 = catalog.get("bw3").graph
        rename = {lab: f"v{lab}" for lab in bw3.labels}
        G = Graph.from_edges(
            [rename[lab] for lab in reversed(bw3.labels)],
            [(rename[u], rename[v]) for u, v in bw3.edge_labels()],
        )
        assert induces_copy(G, G.labels, bw3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            induces_copy(complete_graph(("1", "2", "3")), {"1", "2"}, cycle_graph(("a", "b", "c")))

    def test_path_vs_triangle(self):
        K3 = complete_graph(("1", "2", "3"))
        P3 = path_graph(("a", "b", "c"))
        assert not induces_copy(K3, K3.labels, P3)
        assert induces_copy(P3, P3.labels, path_graph(("x", "y", "z")))
        # same degree sequence, not isomorphic: degrees cannot decide it
        C6 = cycle_graph(tuple("123456"))
        two_K3 = Graph.from_edges(tuple("abcdef"), [
            ("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"),
        ])
        assert not induces_copy(C6, C6.labels, two_K3)
        assert not induces_copy(two_K3, two_K3.labels, C6)
