import hashlib
import random

import pytest

from oracles import (
    brute_force_automorphisms,
    brute_force_uniform_word,
    relabelled,
    slow_canonical_bits_upto,
    slow_is_canonical_deletion,
    slow_is_sole_canonical_deletion,
    slow_search_k11_word,
    slow_search_uniform_word,
)
from wordrep import _kernels, orient, search
from wordrep.core import Graph, complete_graph, cycle_graph, empty_graph, path_graph
from wordrep.graph6 import HEADER, parse_graph6, write_graph6
from wordrep.orient import BudgetExceeded, _Budget, search_semi_transitive
from wordrep.search import (
    SearchBudget,
    _automorphisms,
    _search_word,
    canonical_form,
    census_from_graph6,
    census_non_word_representable,
    chromatic_number,
    enumerate_nonisomorphic,
    find_k11_representant,
    find_uniform_representant,
    graph_from_canonical_bits,
    is_word_representable,
)
from wordrep.verify import graph_of_word, uniformity, verify_k11


PETERSEN_G6 = "IheA@GUAo"


def _w5() -> Graph:
    labels = tuple(str(i) for i in range(1, 7))
    edges = [(str(i), str(i % 5 + 1)) for i in range(1, 6)]
    edges += [("6", str(i)) for i in range(1, 6)]
    return Graph.from_edges(labels, edges)


class TestDecision:
    def test_small_positives(self):
        assert is_word_representable(complete_graph(tuple("1234")))
        assert is_word_representable(cycle_graph(tuple("12345")))
        assert is_word_representable(empty_graph(tuple("123")))

    def test_w5_negative(self):
        assert not is_word_representable(_w5())


class TestBudget:
    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)

    def test_word_search_budget_exhaustion(self):
        C6 = cycle_graph(tuple("123456"))
        # 7 nodes are enough for the pre-check, so the word search raises
        assert search_semi_transitive(C6, max_nodes=7) is not None
        with pytest.raises(BudgetExceeded):
            find_uniform_representant(C6, SearchBudget(max_nodes=7))

    def test_pre_check_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            find_uniform_representant(_w5(), SearchBudget(max_nodes=3))


class TestFindUniform:
    def test_k2(self):
        w = find_uniform_representant(complete_graph(("x", "y")))
        assert str(w) == "x y"

    def test_c4(self):
        C4 = cycle_graph(tuple("1234"))
        w = find_uniform_representant(C4)
        assert w is not None
        assert uniformity(w) == 2
        assert verify_k11(w, C4, 0)

    def test_not_representable_returns_none(self):
        assert find_uniform_representant(_w5()) is None

    def test_found_words_always_verify(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randrange(3, 6)
            labels = tuple(str(i) for i in range(n))
            edges = [
                (labels[i], labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            G = Graph.from_edges(labels, edges)
            w = find_uniform_representant(G, SearchBudget(max_uniformity=4))
            assert w is not None  # all graphs on < 6 vertices are representable
            assert verify_k11(w, G, 0)


class TestFindK11:
    def test_k2_at_k1(self):
        w = find_k11_representant(complete_graph(("x", "y")), 1, SearchBudget(max_word_length=4))
        assert str(w) == "x y"

    def test_empty_graph_at_k0(self):
        E3 = empty_graph(tuple("123"))
        w = find_k11_representant(E3, 0, SearchBudget(max_word_length=8))
        assert w is not None
        assert verify_k11(w, E3, 0)

    def test_length_budget_returns_none(self):
        # C4 needs more than 5 letters at k=0
        assert find_k11_representant(cycle_graph(tuple("1234")), 0, SearchBudget(max_word_length=5)) is None

    def test_negative_k_raises_before_search(self):
        C4 = cycle_graph(tuple("1234"))
        for budget in (SearchBudget(max_nodes=2), SearchBudget()):
            with pytest.raises(ValueError, match="k must be non-negative"):
                find_k11_representant(C4, -1, budget)

    def test_node_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            find_k11_representant(cycle_graph(tuple("1234")), 0, SearchBudget(max_nodes=3))


class TestWordSearch:
    """``_search_word`` against the two searches it replaced (same word and
    same node count) and against a brute force over uniform words."""

    @staticmethod
    def _deepen(search, steps):
        # the finders' loop: one counter over the steps, stop at the first word
        counter = _Budget(None)
        for step in steps:
            w = search(step, counter)
            if w is not None:
                break
        return w, counter.used

    def test_uniform_matches_parent_search_up_to_6(self):
        for n in range(1, 7):
            for G in enumerate_nonisomorphic(n):
                got = self._deepen(lambda t, c: _search_word(G, 0, n * t, t, c), range(1, 4))
                want = self._deepen(lambda t, c: slow_search_uniform_word(G, t, c), range(1, 4))
                assert got == want, G

    def test_k11_matches_parent_search_up_to_4(self):
        for n in range(1, 5):
            for G in enumerate_nonisomorphic(n):
                for k in range(3):
                    got = self._deepen(lambda L, c: _search_word(G, k, L, None, c), range(n, 8))
                    want = self._deepen(lambda L, c: slow_search_k11_word(G, k, L, c), range(n, 8))
                    assert got == want, (G, k)

    def test_uniform_matches_brute_force_up_to_4(self):
        # with sound prunes, the depth-first search in letter order returns
        # the lexicographically first word of the smallest uniformity
        for n in range(1, 5):
            for G in enumerate_nonisomorphic(n):
                got, _ = self._deepen(lambda t, c: _search_word(G, 0, n * t, t, c), range(1, 3))
                assert got == brute_force_uniform_word(G, 2), G

    def test_last_copy_counts_its_own_11(self):
        # x x y y: the last y makes the pair's second 11, so the quota rule
        # must not refuse it for having only one 11 before it is placed
        w = _search_word(empty_graph(("x", "y")), 1, 4, 2, _Budget(None))
        assert str(w) == "x x y y"


class TestEnumeration:
    def test_counts_all(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_nonisomorphic(n)) == count

    def test_counts_n8(self, monkeypatch):
        # the full family is grown (about 2 s); the connected one is then
        # read off it, so no smaller connected family is ever built
        monkeypatch.setattr(search, "_enum_cache", {})
        assert sum(1 for _ in enumerate_nonisomorphic(8)) == 12346
        assert sum(1 for _ in enumerate_nonisomorphic(8, connected_only=True)) == 11117
        assert not any(connected for n, connected in search._enum_cache if n < 8)

    def test_counts_connected(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_nonisomorphic(n, connected_only=True)) == count

    def test_connected_family_is_the_connected_part(self, monkeypatch):
        # the connected family is grown from connected parents only; it must
        # still be exactly the connected members of the full family, in order.
        # An empty cache makes sure the grown families are the ones compared,
        # not ones read off an already built full family.
        monkeypatch.setattr(search, "_enum_cache", {})
        grown = [[G.adj for G in enumerate_nonisomorphic(n, connected_only=True)] for n in range(1, 8)]
        assert all(connected for _n, connected in search._enum_cache)
        for n in range(1, 8):
            assert grown[n - 1] == [G.adj for G in enumerate_nonisomorphic(n) if G.is_connected()]
        # with the full family built, the connected one is read off it
        monkeypatch.setattr(search, "_enum_cache", {(n, False): search._enum_cache[n, False] for n in range(1, 8)})
        for n in range(1, 8):
            assert [G.adj for G in enumerate_nonisomorphic(n, connected_only=True)] == grown[n - 1]

    def test_growth_matches_unfiltered_growth_up_to_7(self, monkeypatch):
        # the canonical-deletion filter drops extensions, never classes.
        # Connected families first, so that they are grown, not read off.
        monkeypatch.setattr(search, "_enum_cache", {})
        for connected in (True, False):
            for n in range(1, 8):
                assert search._canonical_bits_upto(n, connected) == slow_canonical_bits_upto(n, connected)

    def test_canonical_form_calls_at_7(self, monkeypatch):
        # the extensions that pass the filter and the orbit pruning at n = 7
        # (3,771 connected and 5,096 in all without the filter; 1,192 and
        # 1,401 with the degree rule alone)
        calls = []
        monkeypatch.setattr(search, "canonical_form", lambda G: calls.append(G) or canonical_form(G))
        for connected, expected in ((True, 903), (False, 1096)):
            monkeypatch.setattr(search, "_enum_cache", {})
            search._canonical_bits_upto(6, connected)
            calls.clear()
            search._canonical_bits_upto(7, connected)
            assert len(calls) == expected
        # a census grows the connected families on 2..6 vertices and decides
        # level 7 as it grows it; the 510 children whose new vertex is their
        # only canonical deletion and whose extension succeeds get no form
        # (1,048 calls with a form for every child; 1,361 with the degree
        # rule alone)
        monkeypatch.setattr(search, "_enum_cache", {})
        calls.clear()
        census_non_word_representable(7)
        assert len(calls) == 538

    @staticmethod
    def _keeps(adj, connected):
        # the filter's decision for the child with masks adj, grown by its
        # last vertex from the parent without it; the oracles must agree
        last = len(adj) - 1
        parent = [m & ~(1 << last) for m in adj[:last]]
        keeps = search._deletion_rule(parent, connected)(adj[last])
        assert bool(keeps) == slow_is_canonical_deletion(adj, connected)
        assert (keeps == search._SOLE) == slow_is_sole_canonical_deletion(adj, connected)
        return keeps

    def test_canonical_deletion_rule(self):
        keeps = self._keeps
        DROP, TIED, SOLE = search._DROP, search._TIED, search._SOLE
        # a path 0-2-1 grown by its middle vertex: the leaves are lighter
        # and are not cut vertices
        assert keeps([0b100, 0b100, 0b011], True) == DROP
        assert keeps([0b100, 0b100, 0b011], False) == DROP
        # two K4s, {0..3} and {5..8}, joined through vertex 4 (degree 2, a
        # cut vertex).  Vertex 8 (degree 3) is of minimum degree among the
        # non-cut vertices only; no connected graph on 8 or fewer vertices
        # has every vertex of minimum degree a cut vertex.  Vertex 8 ties
        # with 6 and 7 at degree 3 and sum 10
        pairs = [(i, j) for k in (0, 5) for i in range(k, k + 4) for j in range(i + 1, k + 4)]
        G = Graph.from_index_edges(tuple(str(i) for i in range(9)), pairs + [(3, 4), (4, 5)])
        assert keeps(G.adj, True) == TIED
        assert keeps(G.adj, False) == DROP
        # every vertex of K_4 ties at degree 3 and sum 9: ties are allowed
        K4 = complete_graph(tuple("1234"))
        assert keeps(K4.adj, True) == keeps(K4.adj, False) == TIED
        # degree ties decided by neighbour-degree sums: the star with centre
        # 0 and leaves 1, 2, 3, grown by a leaf 4 on leaf 1.  Vertex 4 has
        # degree 1 and sum 2; leaves 2 and 3 have degree 1 and sum 3
        star = [0b1110, 0b0001, 0b0001, 0b0001]
        assert keeps(star[:1] + [star[1] | 0b10000] + star[2:] + [0b10], True) == DROP
        assert keeps(star[:1] + [star[1] | 0b10000] + star[2:] + [0b10], False) == DROP
        # grown on the centre instead, vertex 4 ties with every leaf at
        # degree 1 and sum 4
        assert keeps([star[0] | 0b10000] + star[1:] + [0b1], True) == TIED
        assert keeps([star[0] | 0b10000] + star[1:] + [0b1], False) == TIED
        # the path 0-1-2 grown by a leaf 3 on 0: vertex 3 (degree 1, sum 2)
        # ties with leaf 2 (degree 1, sum 2)
        assert keeps([0b1010, 0b0101, 0b0010, 0b0001], True) == TIED
        # a pendant 3 on vertex 0 of the triangle 0-1-2 is the only vertex
        # of degree 1
        pendant = [0b1110, 0b0101, 0b0011, 0b0001]
        assert keeps(pendant, True) == keeps(pendant, False) == SOLE
        # a tie with a cut vertex does not count in the connected family: the
        # triangle 0-1-4, the path 4-2-5 and the diamond 5-6-3-7 (no edge
        # 5-7), grown by 7 on 3 and 6.  Vertex 7 (degree 2, sum 6) ties only
        # with the cut vertex 2; the only connected graph on 8 or fewer
        # vertices with such a vertex
        pairs = [(0, 1), (0, 4), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (5, 6), (3, 7), (6, 7)]
        G = Graph.from_index_edges(tuple(str(i) for i in range(8)), pairs)
        assert keeps(G.adj, True) == SOLE
        assert keeps(G.adj, False) == TIED

    def test_deletion_rule_matches_oracle_up_to_6(self):
        # the parent-table filter decides every extension of every parent
        # on at most 6 vertices as the child-level oracles do, keep or drop
        # and sole or not, on each parent as enumerated and relabelled
        rng = random.Random(10)
        for connected in (True, False):
            for m in range(1, 7):
                for H in enumerate_nonisomorphic(m, connected):
                    for F in (H, relabelled(rng, H)):
                        keeps = search._deletion_rule(F.adj, connected)
                        for nbh in range(1 if connected else 0, 1 << m):
                            child = [a | (nbh >> v & 1) << m for v, a in enumerate(F.adj)] + [nbh]
                            rule = keeps(nbh)
                            assert bool(rule) == slow_is_canonical_deletion(child, connected)
                            assert (rule == search._SOLE) == slow_is_sole_canonical_deletion(child, connected)

    def test_automorphisms_match_brute_force(self):
        # each graph as enumerated, and relabelled so that its refined
        # classes are not runs of consecutive indices
        rng = random.Random(7)
        for n in range(1, 7):
            for G in enumerate_nonisomorphic(n):
                for F in (G, relabelled(rng, G)):
                    assert sorted(_automorphisms(F)) == brute_force_automorphisms(F)

    def test_automorphisms_match_brute_force_at_7(self):
        labels = tuple("1234567")
        graphs = [
            cycle_graph(labels),
            complete_graph(labels),
            Graph.from_index_edges(labels, [(i, j) for i in range(3) for j in range(3, 7)]),
            empty_graph(labels),
        ]
        rng = random.Random(77)
        for _ in range(10):
            pairs = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.5]
            graphs.append(Graph.from_index_edges(labels, pairs))
        for G in graphs:
            assert sorted(_automorphisms(G)) == brute_force_automorphisms(G)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            list(enumerate_nonisomorphic(0))
        with pytest.raises(ValueError):
            list(enumerate_nonisomorphic(9))

    def test_canonical_form_isomorphism_invariant(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(2, 7)
            labels = tuple(str(i) for i in range(n))
            edges = [
                (labels[i], labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            G = Graph.from_edges(labels, edges)
            assert canonical_form(G) == canonical_form(relabelled(rng, G))

    def test_canonical_form_separates(self):
        assert canonical_form(cycle_graph(tuple("1234"))) != canonical_form(path_graph(tuple("1234")))
        assert canonical_form(complete_graph(tuple("1234"))) != canonical_form(cycle_graph(tuple("1234")))

    def test_canonical_form_petersen(self, monkeypatch):
        # one refined class of 10 vertices (10! orderings), on the pure
        # kernel; the form is the one the exhaustive kernel computed
        monkeypatch.setattr(_kernels, "HAVE_EXT", False)
        G = parse_graph6(PETERSEN_G6)
        rng = random.Random(10)
        for _ in range(3):
            assert canonical_form(relabelled(rng, G)) == (10, 487837009056)

    def test_bits_roundtrip(self):
        G = cycle_graph(tuple("12345"))
        n, bits = canonical_form(G)
        H = graph_from_canonical_bits(n, bits)
        assert canonical_form(H) == (n, bits)


# sha256 prefixes of the census and enumeration output, as recorded in
# BENCH_pr6.json (identical_output_sha256_16) with its identical_output_method
PINNED_CENSUS = {5: "241d83f56f9b66b0", 6: "dda559b94539c0f7", 7: "e5ff377c1f392d05"}
PINNED_ENUMERATION = {
    (1, False): "e9dfc3de7acd56bc", (1, True): "e9dfc3de7acd56bc",
    (2, False): "f855b3dfb088a4fc", (2, True): "b88797b3fac3b1fe",
    (3, False): "3fa1fd22f7677bab", (3, True): "e7eab17a23fb01ae",
    (4, False): "28b0a7de118784fb", (4, True): "ed52234f2ddcf84b",
    (5, False): "5f3d6fcbdfc815af", (5, True): "3c2e71dcb4953741",
    (6, False): "8be78edb77b777af", (6, True): "bcf6006e2c2fffbb",
    (7, False): "6d16b69436f2ebc7", (7, True): "ca2ac08ce1557842",
}


def _sha16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_output_matches_recorded_hashes(monkeypatch):
    monkeypatch.setattr(search, "_enum_cache", {})
    for n, digest in PINNED_CENSUS.items():
        r = census_non_word_representable(n)
        assert _sha16((r.n, r.examined, [(G.labels, G.adj) for G in r.non_word_representable])) == digest
    for (n, connected), digest in PINNED_ENUMERATION.items():
        assert _sha16([(G.labels, G.adj) for G in enumerate_nonisomorphic(n, connected)]) == digest


class TestCensus:
    def test_small_counts(self):
        assert len(census_non_word_representable(4).non_word_representable) == 0
        r5 = census_non_word_representable(5)
        assert r5.examined == 21
        assert len(r5.non_word_representable) == 0

    def test_n6_is_w5(self):
        r = census_non_word_representable(6)
        assert r.examined == 112
        assert len(r.non_word_representable) == 1
        assert canonical_form(r.non_word_representable[0]) == canonical_form(_w5())

    def test_range_check(self):
        for n in (-1, 0, 9):
            with pytest.raises(ValueError, match=r"census supports 1 <= n <= 8"):
                census_non_word_representable(n)
        with pytest.raises(ValueError, match="jobs"):
            census_non_word_representable(5, jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            census_from_graph6([write_graph6(complete_graph(tuple("123")))], jobs=0)

    def test_census_from_graph6(self):
        # shuffled lines of relabelled graphs give the built-in census exactly
        rng = random.Random(6)
        lines = []
        for G in enumerate_nonisomorphic(6, connected_only=True):
            lines.append(write_graph6(relabelled(rng, G)))
        lines += lines[:10]  # duplicates must be deduplicated
        rng.shuffle(lines)
        r = census_from_graph6(lines)
        assert r == census_non_word_representable(6)
        assert r.examined == 112
        assert len(r.non_word_representable) == 1

    @staticmethod
    def _record_budgets(monkeypatch) -> list:
        budgets = []

        class Recorded(orient._Budget):
            def __init__(self, limit):
                super().__init__(limit)
                budgets.append(self)

        monkeypatch.setattr(orient, "_Budget", Recorded)
        return budgets

    def test_search_nodes_n7(self, monkeypatch):
        # a full search of each of the 853 graphs: 10,371 nodes for the 828
        # yes-instances and 6,376 for the 25 no-instances
        lines = [write_graph6(G) for G in enumerate_nonisomorphic(7, connected_only=True)]
        budgets = self._record_budgets(monkeypatch)
        r = census_from_graph6(lines)
        assert len(budgets) == r.examined == 853
        assert sum(b.used for b in budgets) == 16747

    def test_grown_census_nodes_n7(self, monkeypatch):
        # full searches of the 112 parents and of the 42 forms no extension
        # decided, plus the arcs of 846 extensions (803 succeed): 7,792 nodes
        # instead of the 16,747 of a full search per graph
        search._canonical_bits_upto(6, True)
        budgets = self._record_budgets(monkeypatch)
        r = census_non_word_representable(7)
        assert (r.examined, len(r.non_word_representable)) == (853, 25)
        assert len(budgets) == 112 + 42 + 846
        assert sum(b.used for b in budgets) == 7792

    def test_grown_verdicts_equal_full_search_up_to_7(self, monkeypatch):
        # every "yes" of an extension is a semi-transitive orientation, every
        # inherited "no" names a refuted parent that the child induces, and
        # every verdict is a full search's.  The children counted without a
        # form (the extended orientations whose form no verdict holds) are
        # distinct classes, and together with the verdicts they are the
        # whole level
        extended = []

        def checked(G, succ):
            extended.append(orient.Orientation(G, succ))
            return extended[-1]

        monkeypatch.setattr(search, "Orientation", checked)
        kinds = {}
        for n in range(2, 8):
            extended.clear()
            verdicts, skipped = search._grown_verdicts(n, 1)
            assert all(orient.is_semi_transitive(D) for D in extended)
            forms = [canonical_form(D.base)[1] for D in extended]
            sole_forms = [form for form in forms if form not in verdicts]
            assert len(set(sole_forms)) == len(sole_forms) == skipped
            assert sorted(set(sole_forms) | set(verdicts)) == search._canonical_bits_upto(n, True)
            assert len(extended) == skipped + sum(1 for ok, parent in verdicts.values() if ok and parent is not None)
            for form, (ok, parent) in verdicts.items():
                G = graph_from_canonical_bits(n, form)
                assert ok == is_word_representable(G)
                if parent is None:
                    kind = "searched"
                else:
                    kind = "extended" if ok else "inherited"
                    H = graph_from_canonical_bits(n - 1, parent)
                    assert (search_semi_transitive(H) is not None) == ok
                    assert (n - 1, parent) in {canonical_form(G.delete_vertex(v)) for v in G.labels}
                kinds[n, kind] = kinds.get((n, kind), 0) + 1
            kinds[n, "sole"] = skipped
        assert not any(kind == "inherited" for n, kind in kinds if n < 7)
        # census 7: 803 forms extended, 510 of them counted without a form
        split = tuple(kinds[7, kind] for kind in ("extended", "sole", "inherited", "searched"))
        assert split == (293, 510, 8, 42)
        assert census_non_word_representable(1) == search.CensusResult(1, 1, ())

    def test_grown_verdicts_identical_across_jobs(self):
        assert search._grown_verdicts(7, 2) == search._grown_verdicts(7, 1)

    def test_census_8(self):
        # the published count (Kitaev-Lozin, Words and Graphs); the digest is
        # that of census_from_graph6 over the 11,117 graphs, a full search
        # each.  About 5 s from an empty cache on the pure kernels (2 vCPUs),
        # 3.8 s of it to grow and decide the 8-vertex family.
        r = census_non_word_representable(8)
        assert (r.examined, len(r.non_word_representable)) == (11117, 929)
        assert _sha16((r.n, r.examined, [(G.labels, G.adj) for G in r.non_word_representable])) == "f353ee79b0b78929"

    def test_census_from_graph6_reads_the_header(self):
        # the optional header may prefix a graph's line, as the format
        # description writes it, or stand on a line of its own
        r = census_from_graph6([HEADER + write_graph6(_w5())])
        assert r.examined == 1
        assert [canonical_form(G) for G in r.non_word_representable] == [canonical_form(_w5())]
        r = census_from_graph6([HEADER, write_graph6(_w5()), ""])
        assert (r.examined, len(r.non_word_representable)) == (1, 1)

    def test_census_from_graph6_rejects_other_headers(self):
        with pytest.raises(ValueError):
            census_from_graph6([">>sparse6<<:Bg"])

    def test_census_from_graph6_rejects_mixed_n(self):
        lines = [write_graph6(complete_graph(tuple("123"))), write_graph6(complete_graph(tuple("1234")))]
        with pytest.raises(ValueError, match="mixes"):
            census_from_graph6(lines)


class TestChromatic:
    def test_known_values(self):
        assert chromatic_number(empty_graph(tuple("123"))) == 1
        assert chromatic_number(path_graph(tuple("1234"))) == 2
        assert chromatic_number(cycle_graph(tuple("12345"))) == 3
        assert chromatic_number(cycle_graph(tuple("123456"))) == 2
        assert chromatic_number(complete_graph(tuple("12345"))) == 5
        assert chromatic_number(_w5()) == 4

    def test_range_check(self):
        with pytest.raises(ValueError):
            chromatic_number(empty_graph(tuple(f"v{i}" for i in range(17))))
