import hashlib
import random
from itertools import permutations

import pytest

from oracles import reference_comparability_perm_rep, relabelled

from wordrep import construct
from wordrep.catalog import get
from wordrep.construct import (
    CompIndPartition,
    ConstructionError,
    SplitPartition,
    comp_ind_partition,
    comp_plus_ind_word,
    comparability_perm_rep,
    double_word,
    mycielski,
    mycielski_cycle_word,
    remove_edge_sets,
    remove_matching,
    split_word,
    three_perm_graph,
)
from wordrep.core import Graph, Word, complete_graph, cycle_graph, path_graph
from wordrep.orient import Orientation, is_transitive, search_transitive
from wordrep.search import chromatic_number, enumerate_nonisomorphic
from wordrep.verify import graph_of_word, is_permutational, is_t_uniform, verify_k11


class TestThreePerm:
    def test_non_edge_rule(self):
        p1 = Word.compact("123")
        p2 = Word.compact("213")
        p3 = Word.compact("123")
        G = three_perm_graph(p1, p2, p3)
        # pair {1,2}: same order in p1/p3, opposite in p2 -> non-edge
        assert not G.has_edge_labels("1", "2")
        assert G.has_edge_labels("1", "3")
        assert G.has_edge_labels("2", "3")

    def test_matches_counting_semantics(self):
        rng = random.Random(4)
        labels = tuple("12345")
        for _ in range(100):
            ps = []
            for _ in range(3):
                seq = list(labels)
                rng.shuffle(seq)
                ps.append(Word.from_labels(labels, seq))
            G = three_perm_graph(*ps)
            w = ps[0].concat(ps[1], ps[2])
            assert G.same_graph(graph_of_word(w, 1))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            three_perm_graph(Word.compact("11"), Word.compact("12"), Word.compact("12"))

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="share an alphabet"):
            three_perm_graph(Word.compact("12"), Word.compact("12"), Word.compact("34"))


class TestDoubleWord:
    W = Word.compact("42535214421")

    def test_ww(self):
        out = double_word(self.W, "ww")
        assert out.compact_str() == "4253521442142535214421"
        assert verify_k11(out, graph_of_word(self.W, 0), 1)

    def test_rpw(self):
        out = double_word(self.W, "rpw")
        assert out.compact_str() == "1352442535214421"
        assert verify_k11(out, graph_of_word(self.W, 0), 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            double_word(self.W, "xx")


class TestRemoveEdgeSets:
    # C4 has the 2-uniform representant 1 2 4 1 3 4 2 3
    C4 = cycle_graph(tuple("1234"))
    WC4 = Word.compact("12413423")

    def test_remove_one_edge(self):
        out = remove_edge_sets(self.C4, self.WC4, [["1", "2"]])
        H = Graph.from_edges(tuple("1234"), [("2", "3"), ("3", "4"), ("4", "1")])
        assert verify_k11(out, H, 1)

    def test_short_form(self):
        out = remove_edge_sets(self.C4, self.WC4, [["1", "2"]], short=True)
        long = remove_edge_sets(self.C4, self.WC4, [["1", "2"]])
        assert len(out) == len(long) - 4

    def test_empty_parts_keep_graph(self):
        out = remove_edge_sets(self.C4, self.WC4, [])
        assert verify_k11(out, self.C4, 1)

    def test_rejects_nonuniform_word(self):
        w = Word.compact("124134232")
        with pytest.raises(ValueError, match="not uniform"):
            remove_edge_sets(self.C4, w, [])

    def test_rejects_word_on_other_letters(self):
        with pytest.raises(ValueError, match="alphabet does not match"):
            remove_edge_sets(self.C4, Word.compact("12351235"), [])

    def test_rejects_wrong_word(self):
        w = Word.compact("12341234")  # 2-uniform but represents K4 minus nothing sensible
        with pytest.raises(ValueError, match="does not 0-11-represent"):
            remove_edge_sets(self.C4, w, [])

    def test_rejects_overlapping_parts(self):
        with pytest.raises(ValueError, match="disjoint"):
            remove_edge_sets(self.C4, self.WC4, [["1", "2"], ["2", "3"]])

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            remove_edge_sets(self.C4, self.WC4, [["9"]])


class TestRemoveMatching:
    def test_path_from_cycle(self):
        # remove edge {1,4} from C4 to get P4; C4's representant is uniform
        C4 = cycle_graph(tuple("1234"))
        P4 = Graph.from_edges(tuple("1234"), [("1", "2"), ("2", "3"), ("3", "4")])
        out = remove_matching(P4, [("1", "4")], Word.compact("12413423"))
        assert verify_k11(out, P4, 1)

    def test_rejects_existing_edge(self):
        C4 = cycle_graph(tuple("1234"))
        with pytest.raises(ValueError, match="already present"):
            remove_matching(C4, [("1", "2")], Word.compact("12413423"))

    def test_rejects_non_matching(self):
        P4 = Graph.from_edges(tuple("1234"), [("1", "2"), ("2", "3"), ("3", "4")])
        with pytest.raises(ValueError, match="not a matching"):
            remove_matching(P4, [("1", "4"), ("1", "3")], Word.compact("12413423"))

    def test_verifies_its_word_once(self, monkeypatch):
        # remove_edge_sets checks its word against G minus the matching, which is H
        levels = []

        def spy(w, G, k):
            levels.append(k)
            return verify_k11(w, G, k)

        monkeypatch.setattr(construct, "verify_k11", spy)
        H = get("chvatal").graph
        out = remove_matching(H, [("1", "3"), ("2", "4")], get("chvatal-augmented").golden_words[0][0])
        assert levels.count(1) == 1
        assert verify_k11(out, H, 1)


def _split_min_partition() -> SplitPartition:
    entry = get("split-min")
    return SplitPartition(entry.graph, tuple("1234"), tuple("5678"))


class TestSplit:
    def test_partition_validation(self):
        G = _split_min_partition().graph
        with pytest.raises(ValueError, match="partition"):
            SplitPartition(G, tuple("123"), tuple("5678"))
        with pytest.raises(ValueError, match="not a clique"):
            SplitPartition(G, tuple("1235"), tuple("4678"))
        K4 = complete_graph(tuple("1234"))
        with pytest.raises(ValueError, match="not an independent set"):
            SplitPartition(
                Graph.from_edges(tuple("12345"), K4.edge_labels() + [("4", "5")]),
                tuple("123"),
                tuple("45"),
            )

    def test_split_word_worked_example(self):
        word = split_word(_split_min_partition())
        assert word.compact_str() == (
            "12345678" "12348765" "12345678" "12356478"
            "41258367" "43125678" "43267158" "43215678"
        )
        assert is_permutational(word)
        assert verify_k11(word, _split_min_partition().graph, 1)

    def test_split_word_random_instances(self):
        rng = random.Random(6)
        for _ in range(50):
            k = rng.randrange(1, 5)
            m = rng.randrange(1, 5)
            labels = tuple(f"a{i}" for i in range(k)) + tuple(f"b{i}" for i in range(m))
            clique = labels[:k]
            ind = labels[k:]
            edges = [(clique[i], clique[j]) for i in range(k) for j in range(i + 1, k)]
            edges += [(a, b) for a in clique for b in ind if rng.random() < 0.5]
            G = Graph.from_edges(labels, edges)
            word = split_word(SplitPartition(G, clique, ind))
            assert verify_k11(word, G, 1)


class TestComparability:
    def test_perm_rep_covers_non_edges_both_ways(self):
        D = Orientation.from_arcs(path_graph(tuple("abc")), [("a", "b"), ("c", "b")])
        perms = comparability_perm_rep(D)
        seqs = [p.label_seq() for p in perms]
        # non-edge {a,c} must appear in both orders across the list
        orders = {tuple(s.index(x) < s.index("c") for x in "a") for s in seqs}
        assert len(orders) == 2

    def test_perm_rep_rejects_non_transitive(self):
        D = Orientation.from_arcs(path_graph(tuple("abc")), [("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="not transitive"):
            comparability_perm_rep(D)

    def test_perm_rep_matches_reference_up_to_7(self):
        # every comparability graph on n <= 7 vertices, and a relabelling of each
        rng = random.Random(7)
        checked = 0
        for n in range(1, 8):
            for G in enumerate_nonisomorphic(n):
                for H in (G, relabelled(rng, G)):
                    D = search_transitive(H)
                    if D is None:
                        continue
                    got = [p.letters for p in comparability_perm_rep(D)]
                    assert got == [p.letters for p in reference_comparability_perm_rep(D)]
                    checked += 1
        assert checked == 2 * 1019

    def test_comp_ind_partition_rejects_odd_cycle(self):
        C5 = cycle_graph(tuple("12345"))
        G = Graph.from_edges(tuple("123456"), C5.edge_labels() + [("1", "6")])
        with pytest.raises(ValueError, match="comparability"):
            comp_ind_partition(G, list("12345"), ["6"])

    def test_comp_plus_ind_word_small(self):
        # A = path a-b-c (a comparability graph), B = {d, e} independent
        edges = [("a", "b"), ("b", "c"), ("a", "d"), ("c", "d"), ("b", "e")]
        G = Graph.from_edges(tuple("abcde"), edges)
        P = comp_ind_partition(G, ["a", "b", "c"], ["d", "e"])
        word = comp_plus_ind_word(P)
        assert is_permutational(word)
        assert verify_k11(word, G, 1)

    def test_comp_ind_partition_validation(self):
        G = Graph.from_edges(tuple("abc"), [("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="independent"):
            comp_ind_partition(G, ["a"], ["b", "c"])


class TestMycielski:
    def test_mycielski_c5_is_grotzsch_like(self):
        G = mycielski(cycle_graph(tuple(f"v{i}" for i in range(1, 6))))
        assert G.n == 11
        assert G.num_edges == 20
        assert chromatic_number(G) == 4
        assert "x" in G.labels and "u3" in G.labels

    def test_shadow_labels_prime_fallback(self):
        G = mycielski(path_graph(("a", "b")))
        assert set(G.labels) == {"a", "b", "a'", "b'", "x"}
        assert G.has_edge_labels("a", "b'")
        assert G.has_edge_labels("x", "a'")
        assert not G.has_edge_labels("x", "a")
        assert not G.has_edge_labels("a'", "b'")

    def test_apex_label_collision(self):
        G = mycielski(path_graph(("x", "y")))
        assert "x'" in G.labels  # shadow of x
        apex = [lab for lab in G.labels if lab == "x''"]
        assert apex  # apex renamed to avoid both x and x'

    def test_cycle_word_small(self):
        w = mycielski_cycle_word(3)
        assert str(w) == "v2 u1 u2 v1 v3 u2 u3 v2 v1 u3 u1 v3"
        assert is_t_uniform(w, 2)

    def test_cycle_word_matches_target(self):
        for n in (3, 4, 5, 8):
            w = mycielski_cycle_word(n)
            target = mycielski(cycle_graph([f"v{i}" for i in range(1, n + 1)])).delete_vertex("x")
            assert graph_of_word(w, 0).same_graph(target)

    def test_cycle_word_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            mycielski_cycle_word(2)


def _pinned_corpus_lines():
    """Words of split_word, comp_plus_ind_word and remove_edge_sets on a seeded corpus."""
    rng = random.Random(15)
    for _ in range(100):
        k, m = rng.randrange(0, 5), rng.randrange(1, 5)
        labels = [f"v{i}" for i in range(k + m)]
        rng.shuffle(labels)
        clique, ind = labels[:k], labels[k:]
        edges = [(clique[i], clique[j]) for i in range(k) for j in range(i + 1, k)]
        edges += [(a, b) for a in clique for b in ind if rng.random() < 0.5]
        G = Graph.from_edges(sorted(labels), edges)
        yield "split " + str(split_word(SplitPartition(G, tuple(clique), tuple(ind))))
    made = 0
    while made < 100:
        labels = [f"v{i}" for i in range(rng.randrange(2, 7))]
        edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:] if rng.random() < 0.5]
        G = Graph.from_edges(labels, edges)
        order = labels[:]
        rng.shuffle(order)
        ind = []
        for v in order[: rng.randrange(1, len(order))]:
            if not any(G.has_edge_labels(v, b) for b in ind):
                ind.append(v)
        comp = [v for v in order if v not in ind]
        try:
            P = comp_ind_partition(G, comp, ind)
        except ValueError:
            continue
        made += 1
        yield "comp-ind " + str(comp_plus_ind_word(P))
    for _ in range(100):
        labels = [f"v{i}" for i in range(rng.randrange(2, 7))]
        seq = labels * rng.randrange(1, 4)
        rng.shuffle(seq)
        w = Word.from_labels(labels, seq)
        G = graph_of_word(w, 0)
        order = labels[:]
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(len(order) + 1), rng.randrange(1, 4)))
        parts = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        for short in (False, True):
            yield f"remove-edges {short} " + str(remove_edge_sets(G, w, parts, short=short))


class TestPinnedWords:
    def test_corpus_digest(self):
        lines = list(_pinned_corpus_lines())
        assert len(lines) == 400
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "69fd820a99398b37fb2470c1a876c2d1d3f939605f929f3bfebb3279c37b3329"
