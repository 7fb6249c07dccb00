import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import chain, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import (
    brute_force_automorphisms,
    brute_force_uniform_word,
    relabelled,
    search_only_extend,
    slow_canonical_bits_upto,
    slow_degree_sum_triangle_triples,
    slow_is_canonical_deletion,
    slow_is_sole_canonical_deletion,
    slow_search_k11_word,
    slow_search_uniform_word,
)
from wordrep import _kernels, construct, core, orient, search
from wordrep.construct import ConstructionError
from wordrep.core import Graph, complete_graph, cycle_graph, empty_graph, iter_mask, path_graph
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
from wordrep.verify import Verdict, graph_of_word, uniformity, verify_k11


PETERSEN_G6 = "IheA@GUAo"
SRC = Path(__file__).resolve().parent.parent / "src"


def _record_lookups(mp) -> set:
    """Patch ``search._refuted_deletion`` through the monkeypatch ``mp`` to
    collect the forms that a lookup decides, as (n, form) pairs; return that
    set."""
    looked_up = set()
    lookup = search._refuted_deletion

    def recorded(n, form, refuted):
        deletion = lookup(n, form, refuted)
        if deletion is not None:
            looked_up.add((n, form))
        return deletion

    mp.setattr(search, "_refuted_deletion", recorded)
    return looked_up


def _parent_graph(parent) -> Graph:
    """The graph that a grown verdict names as its parent, by the parent's
    adjacency masks."""
    return Graph(tuple(str(i + 1) for i in range(len(parent))), parent)


def _is_connected_deletion(G, parent) -> bool:
    """Is the graph with adjacency masks ``parent`` on G.n - 1 vertices a
    connected one-vertex deletion of G?"""
    form = canonical_form(_parent_graph(parent))
    deletions = (G.delete_vertex(v) for v in G.labels)
    return any(D.is_connected() and canonical_form(D) == form for D in deletions)


def _is_minimal_non_word_representable(G) -> bool:
    return not is_word_representable(G) and all(is_word_representable(G.delete_vertex(v)) for v in G.labels)


@pytest.fixture(scope="module")
def census_8():
    """``census_non_word_representable(8)`` from one growth of level 8,
    shared by the tests that read it: the result, the grown verdicts, the
    forms that a lookup decided and, for each level n = 2..8, the
    representatives of level n - 1 that it was grown from."""
    grown = []
    parents = {}
    grow = search._grown_verdicts
    level_children = search._level_children

    def recorded(n, level_parents):
        parents[n] = level_parents
        return level_children(n, level_parents)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_grown_verdicts", lambda n, jobs: grown.append(grow(n, jobs)) or grown[-1])
        mp.setattr(search, "_level_children", recorded)
        looked_up = _record_lookups(mp)
        result = census_non_word_representable(8)
    return SimpleNamespace(result=result, verdicts=grown[0][0], looked_up=looked_up, parents=parents)


@pytest.fixture
def fake_executor(monkeypatch):
    """A stand-in for ``ProcessPoolExecutor``, where
    ``search._full_orientations`` looks it up, that records each
    ``max_workers`` and maps in-process: no process is started."""

    class FakeExecutor:
        workers = []
        maps = []

        def __init__(self, max_workers):
            self.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            self.maps.append(fn)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    return FakeExecutor


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

    def test_found_word_passes_the_construction_gate(self, monkeypatch):
        monkeypatch.setattr(construct, "verify_k11", lambda w, G, k: Verdict(False, ("x", "y", 0, "edge")))
        with pytest.raises(ConstructionError, match="failed verification at k=0"):
            find_uniform_representant(complete_graph(("x", "y")))

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
                    got = self._deepen(lambda L, c: _search_word(G, k, L, L, c), range(n, 8))
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
        # the connected family is grown (about 2 s); the full one adds the
        # forms of the 1,229 disconnected complements.  The digests are those
        # of the growth that listed every automorphism
        monkeypatch.setattr(search, "_enum_cache", {})
        every = [(G.labels, G.adj) for G in enumerate_nonisomorphic(8)]
        connected = [(G.labels, G.adj) for G in enumerate_nonisomorphic(8, connected_only=True)]
        assert (len(every), _sha16(every)) == (12346, "396a4aece822e518")
        assert (len(connected), _sha16(connected)) == (11117, "2742da3077c58766")

    def test_counts_connected(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_nonisomorphic(n, connected_only=True)) == count

    def test_connected_family_is_the_connected_part(self):
        # the connected family must be exactly the connected members of the
        # full family, in order
        for n in range(1, 8):
            assert [G.adj for G in enumerate_nonisomorphic(n, connected_only=True)] == [
                G.adj for G in enumerate_nonisomorphic(n) if G.is_connected()
            ]

    def test_growth_matches_unfiltered_growth_up_to_7(self, monkeypatch):
        # the canonical-deletion filter drops extensions, never classes; the
        # complements of the connected graphs add every other class.  The
        # reference grows each family on its own, without the filter
        monkeypatch.setattr(search, "_enum_cache", {})
        for n in range(1, 8):
            assert search._canonical_bits_upto(n) == slow_canonical_bits_upto(n, True)
            assert [G.adj for G in enumerate_nonisomorphic(n)] == [
                graph_from_canonical_bits(n, bits).adj for bits in slow_canonical_bits_upto(n, False)
            ]

    def test_canonical_form_calls_at_7(self, monkeypatch):
        # the extensions that pass the filter and the orbit pruning at n = 7
        # (3,771 without the filter, 1,192 with the degree rule alone); the
        # full family adds the forms of the 191 disconnected complements
        calls = []
        monkeypatch.setattr(search, "canonical_form", lambda G: calls.append(G) or canonical_form(G))
        for connected, expected in ((True, 903), (False, 903 + 191)):
            monkeypatch.setattr(search, "_enum_cache", {})
            search._canonical_bits_upto(6)
            calls.clear()
            list(enumerate_nonisomorphic(7, connected))
            assert len(calls) == expected
        # a census decides every level as it grows it from the one-vertex
        # graph.  A child met once in its level's growth (a sole child, or a
        # tied child alone in its invariant's bucket) whose extension
        # succeeds gets no form (758 children on 7 vertices); every other
        # child gets one: 8 on 6 vertices and 145 on 7.  Looking up the 40
        # open forms on 7 vertices costs 7 forms of 6-vertex deletions, all
        # hits.  That is 160 forms; 206 ({6: 14 + 7, 7: 185}) when the
        # invariant had no triangle counts, 545 when levels 2..6 were
        # enumerated with a form for every child and only sole children
        # went without one (1,048 with a form for every child; 1,361 with
        # the degree rule alone)
        calls.clear()
        census_non_word_representable(7)
        assert Counter(G.n for G in calls) == {6: 8 + 7, 7: 145}

    @staticmethod
    def _keeps(adj):
        # the filter's decision for the child with masks adj, grown by its
        # last vertex from the parent without it; the oracles must agree
        last = len(adj) - 1
        parent = [m & ~(1 << last) for m in adj[:last]]
        keeps = search._deletion_rule(parent)[0](adj[last])
        assert bool(keeps) == slow_is_canonical_deletion(adj)
        assert (keeps == search._SOLE) == slow_is_sole_canonical_deletion(adj)
        return keeps

    def test_canonical_deletion_rule(self):
        keeps = self._keeps
        DROP, TIED, SOLE = search._DROP, search._TIED, search._SOLE
        # a path 0-2-1 grown by its middle vertex: the leaves are lighter
        # and are not cut vertices
        assert keeps([0b100, 0b100, 0b011]) == DROP
        # two K4s, {0..3} and {5..8}, joined through vertex 4 (degree 2, a
        # cut vertex).  Vertex 8 (degree 3) is of minimum degree among the
        # non-cut vertices only; no connected graph on 8 or fewer vertices
        # has every vertex of minimum degree a cut vertex.  Vertex 8 ties
        # with 6 and 7 at degree 3 and sum 10
        pairs = [(i, j) for k in (0, 5) for i in range(k, k + 4) for j in range(i + 1, k + 4)]
        G = Graph.from_index_edges(tuple(str(i) for i in range(9)), pairs + [(3, 4), (4, 5)])
        assert keeps(G.adj) == TIED
        # every vertex of K_4 ties at degree 3 and sum 9: ties are allowed
        assert keeps(complete_graph(tuple("1234")).adj) == TIED
        # degree ties decided by neighbour-degree sums: the star with centre
        # 0 and leaves 1, 2, 3, grown by a leaf 4 on leaf 1.  Vertex 4 has
        # degree 1 and sum 2; leaves 2 and 3 have degree 1 and sum 3
        star = [0b1110, 0b0001, 0b0001, 0b0001]
        assert keeps(star[:1] + [star[1] | 0b10000] + star[2:] + [0b10]) == DROP
        # grown on the centre instead, vertex 4 ties with every leaf at
        # degree 1 and sum 4
        assert keeps([star[0] | 0b10000] + star[1:] + [0b1]) == TIED
        # the path 0-1-2 grown by a leaf 3 on 0: vertex 3 (degree 1, sum 2)
        # ties with leaf 2 (degree 1, sum 2)
        assert keeps([0b1010, 0b0101, 0b0010, 0b0001]) == TIED
        # a pendant 3 on vertex 0 of the triangle 0-1-2 is the only vertex
        # of degree 1
        assert keeps([0b1110, 0b0101, 0b0011, 0b0001]) == SOLE
        # a tie with a cut vertex does not count: the triangle 0-1-4, the
        # path 4-2-5 and the diamond 5-6-3-7 (no edge 5-7), grown by 7 on 3
        # and 6.  Vertex 7 (degree 2, sum 6) ties only with the cut vertex 2;
        # the only connected graph on 8 or fewer vertices with such a vertex
        pairs = [(0, 1), (0, 4), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (5, 6), (3, 7), (6, 7)]
        G = Graph.from_index_edges(tuple(str(i) for i in range(8)), pairs)
        assert keeps(G.adj) == SOLE

    def test_deletion_rule_matches_oracle_up_to_6(self):
        # the parent-table filter decides every extension of every parent
        # on at most 6 vertices as the child-level oracles do, keep or drop
        # and sole or not, on each parent as enumerated and relabelled; the
        # invariant read off the parent's tables is the child's sorted
        # (degree, neighbour-degree sum, triangles) triples
        rng = random.Random(10)
        for m in range(1, 7):
            for H in enumerate_nonisomorphic(m, connected_only=True):
                for F in (H, relabelled(rng, H)):
                    keeps, invariant = search._deletion_rule(F.adj)
                    for nbh in range(1, 1 << m):
                        child = [a | (nbh >> v & 1) << m for v, a in enumerate(F.adj)] + [nbh]
                        rule = keeps(nbh)
                        assert bool(rule) == slow_is_canonical_deletion(child)
                        assert (rule == search._SOLE) == slow_is_sole_canonical_deletion(child)
                        assert invariant(nbh) == bytes(chain.from_iterable(slow_degree_sum_triangle_triples(child)))

    @staticmethod
    def _check_cosets(G):
        # the representatives followed by every twin swap are the whole
        # group, each automorphism once, so no two representatives differ
        # by a twin swap; each maps every twin class onto its image in
        # increasing order.  Twins are the pairs whose transposition is an
        # automorphism, by brute force
        n = G.n
        every = brute_force_automorphisms(G)
        known = set(every)

        def swapped(u, v):
            return tuple(v if w == u else u if w == v else w for w in range(n))

        classes = {tuple(u for u in range(n) if u == v or swapped(u, v) in known) for v in range(n)}
        twins = search._twin_classes(G.adj)
        assert {tuple(iter_mask(t)) for t in twins} == classes
        swaps = [{}]
        for cls in classes:
            swaps = [{**s, **dict(zip(cls, image))} for s in swaps for image in permutations(cls)]
        reps = _automorphisms(G.adj, twins)
        group = [tuple(s.get(v, v) for v in p) for p in reps for s in swaps]
        assert sorted(group) == every
        assert len(set(group)) == len(group)
        for p in reps:
            assert all(sorted(p[v] for v in cls) == [p[v] for v in cls] for cls in classes)

    def test_automorphisms_match_brute_force(self):
        # each graph as enumerated, and relabelled so that its refined
        # classes are not runs of consecutive indices
        rng = random.Random(7)
        for n in range(1, 7):
            for G in enumerate_nonisomorphic(n):
                for F in (G, relabelled(rng, G)):
                    self._check_cosets(F)

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
            self._check_cosets(G)

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
# BENCH_pr6.json (identical_output_sha256_16) with its identical_output_method;
# the census ones for n = 1..4 were taken the same way from the census that
# grew the levels below n with a canonical form for every child
PINNED_CENSUS = {
    1: "7ca102f39cea7f41", 2: "35c8a16f61d31378", 3: "c1df72db5030b5d3", 4: "ef953d9517b63cfd",
    5: "241d83f56f9b66b0", 6: "dda559b94539c0f7", 7: "e5ff377c1f392d05",
}
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
        # levels 2..7 grown from the one-vertex graph: full searches of the
        # 35 forms (2 on 6 vertices, 33 on 7) that neither an extension nor
        # a lookup decided, plus the arcs of the 204 of the 989 extensions
        # (945 succeed) that the sink test leaves to a search: 3,456 nodes
        # instead of the 16,747 of a full search per graph (4,712 when all
        # 989 extensions ran a search; 5,478 when each of the 112 parents
        # on 6 vertices got a full search and 846 children were extended;
        # 7,792 when the 7 looked-up forms were searched too)
        budgets = self._record_budgets(monkeypatch)
        r = census_non_word_representable(7)
        assert (r.examined, len(r.non_word_representable)) == (853, 25)
        assert len(budgets) == 35 + 204
        assert sum(b.used for b in budgets) == 3456

    def test_extensions_equal_search_only_extensions_up_to_7(self, monkeypatch):
        # every extension of census 7, on levels 2..7 (a census n < 7 grows
        # its levels the same way), returns the orientation, or None, of the
        # search that ran before the sink test; 785 of the 989 pass the sink
        # test
        extend = search._extend
        sink_test = search._sink_is_semi_transitive
        calls, sinks = [], []

        def checked(child, nbh, start):
            D = extend(child, nbh, start)
            expected = search_only_extend(child, nbh, start)
            assert (None if D is None else D.succ) == (None if expected is None else expected.succ)
            calls.append(child.n)
            return D

        monkeypatch.setattr(search, "_extend", checked)
        monkeypatch.setattr(search, "_sink_is_semi_transitive", lambda *args: sinks.append(sink_test(*args)) or sinks[-1])
        census_non_word_representable(7)
        assert (len(calls), len(sinks), sum(sinks)) == (989, 989, 785)

    def test_sink_test_matches_semi_transitivity(self):
        # random semi-transitive parents on up to 10 vertices: a sparse
        # random graph oriented along a random vertex order, kept if semi-
        # transitive, or the search's orientation of a dense random graph.
        # For every neighbourhood of a new vertex, the mask test says
        # whether the new vertex as a sink keeps the orientation semi-
        # transitive, as the full check of the child's orientation does
        rng = random.Random(28)
        outcomes = Counter()
        for m, dense in chain(((m, False) for m in range(1, 11)), ((m, True) for m in range(4, 11))):
            labels = tuple(str(v) for v in range(m))
            D = None
            while D is None:
                order = rng.sample(range(m), m)
                arcs = [(order[a], order[b]) for a in range(m) for b in range(a + 1, m)
                        if rng.random() < (0.6 if dense else 0.3)]
                H = Graph.from_index_edges(labels, arcs)
                if dense:
                    D = search_semi_transitive(H)
                else:
                    D = orient.Orientation.from_arcs(H, [(labels[x], labels[y]) for x, y in arcs])
                    D = D if orient.is_semi_transitive(D) else None
            succ = D.succ
            desc, anc = orient._reachability(succ)
            for nbh in range(1, 1 << m):
                child = search._grown(H.adj, nbh)
                sink = orient.Orientation(child, tuple(s | (nbh >> u & 1) << m for u, s in enumerate(succ)) + (0,))
                verdict = search._sink_is_semi_transitive(H.adj, desc, anc, nbh)
                assert verdict == orient.is_semi_transitive(sink)
                outcomes[verdict] += 1
        assert min(outcomes.values()) > 500

    def test_grown_verdicts_equal_full_search_up_to_7(self, monkeypatch):
        # every "yes" of an extension is a semi-transitive orientation, and
        # every verdict is a full search's.  Every extended "yes" names a
        # word-representable parent and every inherited or looked-up "no" a
        # refuted one, each a connected one-vertex deletion of the child.
        # The children counted without a form (the extended orientations of
        # level n whose form no verdict holds; the levels below are
        # extended too) are distinct classes, and together with the
        # verdicts they are the whole level
        extended = []

        def checked(G, succ):
            extended.append(orient.Orientation(G, succ))
            return extended[-1]

        monkeypatch.setattr(search, "Orientation", checked)
        looked_up = _record_lookups(monkeypatch)
        kinds = {}
        for n in range(2, 8):
            extended.clear()
            verdicts, skipped = search._grown_verdicts(n, 1)
            assert all(orient.is_semi_transitive(D) for D in extended)
            forms = [canonical_form(D.base)[1] for D in extended if D.base.n == n]
            unique_forms = [form for form in forms if form not in verdicts]
            assert len(set(unique_forms)) == len(unique_forms) == skipped
            assert sorted(set(unique_forms) | set(verdicts)) == search._canonical_bits_upto(n)
            assert len(forms) == skipped + sum(1 for ok, parent in verdicts.values() if ok and parent is not None)
            for form, (ok, parent) in verdicts.items():
                G = graph_from_canonical_bits(n, form)
                assert ok == is_word_representable(G)
                if parent is None:
                    kind = "searched" if ok else "searched no"
                    if not ok:
                        assert _is_minimal_non_word_representable(G)
                else:
                    kind = "looked-up" if (n, form) in looked_up else "extended" if ok else "inherited"
                    H = _parent_graph(parent)
                    assert (search_semi_transitive(H) is not None) == ok
                    assert _is_connected_deletion(G, parent)
                kinds[n, kind] = kinds.get((n, kind), 0) + 1
            kinds[n, "unique"] = skipped
        assert not any(kind in ("inherited", "looked-up") for n, kind in kinds if n < 7)
        assert [kinds.get((n, "searched no"), 0) for n in range(2, 8)] == [0, 0, 0, 0, 1, 10]
        # census 7: 805 forms extended, 758 of them counted without a form
        # (718 when the invariant had no triangle counts; 510 when only
        # sole children were); 25 "no"s, of which only the 10 minimal ones
        # are searched
        split = tuple(kinds[7, kind] for kind in ("extended", "unique", "inherited", "looked-up", "searched", "searched no"))
        assert split == (47, 758, 8, 7, 23, 10)
        assert census_non_word_representable(1) == search.CensusResult(1, 1, ())

    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, fake_executor):
        # under fork an executor starts all its workers on the first submit
        forms = search._canonical_bits_upto(7)[:100]
        expected = [search._full_orientation(7, bits) for bits in forms]
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert search._full_orientations(7, forms, 64) == expected
        assert search._full_orientations(7, forms, 2) == expected
        assert fake_executor.workers == [3, 2]
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._full_orientations(7, forms, 64) == expected
        assert fake_executor.workers == [3, 2]

    def test_pool_only_when_two_workers_get_a_chunk(self, monkeypatch, fake_executor):
        # a chunk is 16 forms: 16 forms run in-process, 17 get two workers,
        # and no pool has more workers than chunks
        forms = search._canonical_bits_upto(7)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        for count in (0, 1, 16, 17, 33):
            expected = [search._full_orientation(7, bits) for bits in forms[:count]]
            assert search._full_orientations(7, forms[:count], 8) == expected
        assert fake_executor.workers == [2, 3]

    def test_census_1_runs_no_search(self, monkeypatch, fake_executor):
        # the one-vertex graph is counted without a form: no pool is built,
        # and no search makes a budget
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        budgets = self._record_budgets(monkeypatch)
        assert census_non_word_representable(1, jobs=2) == search.CensusResult(1, 1, ())
        assert (fake_executor.workers, fake_executor.maps, budgets) == ([], [], [])

    def test_census_7_builds_one_pool_and_census_6_none(self, monkeypatch, fake_executor):
        # census 6 leaves 2 forms to a full search on 6 vertices; census 7
        # the same 2, and 33 on 7 vertices
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert census_non_word_representable(6, jobs=2) == census_non_word_representable(6)
        assert fake_executor.workers == []
        assert census_non_word_representable(7, jobs=2) == census_non_word_representable(7)
        assert fake_executor.workers == [2]

    def test_pool_is_capped_by_the_cpus_this_process_may_use(self, monkeypatch, fake_executor):
        # under taskset or a cpuset, os.cpu_count() still counts every CPU
        forms = search._canonical_bits_upto(7)[:200]
        monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        search._full_orientations(7, forms, 4)
        assert fake_executor.workers == []
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        search._full_orientations(7, forms, 4)
        assert fake_executor.workers == [3]
        # without an affinity mask, the CPU count caps the pool
        monkeypatch.delattr(search.os, "sched_getaffinity")
        search._full_orientations(7, forms, 16)
        assert fake_executor.workers == [3, 8]

    def test_one_job_never_loads_the_process_pool(self):
        # a fresh interpreter: this one may have loaded it for other reasons.
        # Nor does a census whose levels each leave fewer than two chunks of
        # 16 forms to a full search (none up to 5 vertices), whatever the jobs
        code = "\n".join((
            "import contextlib, io, sys",
            "import wordrep, wordrep.cli",
            "from wordrep import search",
            "assert len(search.census_non_word_representable(6).non_word_representable) == 1",
            "assert search.census_non_word_representable(5, jobs=2).examined == 21",
            "with contextlib.redirect_stdout(io.StringIO()) as out:",
            "    assert wordrep.cli.main(['census', '6']) == 0",
            "    assert wordrep.cli.main(['census', '1', '--jobs', '2']) == 0",
            "assert out.getvalue()",
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))",
        ))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[]"]

    def test_census_from_graph6_in_a_pool_equals_one_job(self, monkeypatch):
        # the 112 forms are 7 chunks: a real pool of two workers
        workers = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        lines = [write_graph6(G) for G in enumerate_nonisomorphic(6, connected_only=True)]
        expected = census_from_graph6(lines)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        assert census_from_graph6(lines, jobs=2) == expected
        assert workers == [2]

    def test_census_7_builds_graphs_only_where_needed(self, monkeypatch):
        # parents stay adjacency masks, their automorphisms need no refined
        # classes, and a lookup builds a Graph only for a deletion whose
        # form it compares (1,300 Graphs and 303 refinements when each
        # parent was a Graph with refined classes)
        counts = Counter()
        post_init = core.Graph.__post_init__
        refine = core._refined_classes
        form = search.canonical_form

        def counted(name, fn):
            return lambda *args: counts.update([name]) or fn(*args)

        monkeypatch.setattr(core.Graph, "__post_init__", counted("graphs", post_init))
        monkeypatch.setattr(core, "_refined_classes", counted("refined", refine))
        monkeypatch.setattr(search, "_refined_classes", counted("refined", refine), raising=False)
        monkeypatch.setattr(search, "canonical_form", counted("forms", form))
        assert census_non_word_representable(7).examined == 853
        assert counts["graphs"] <= 1115
        assert counts["refined"] == counts["forms"] == 160

    def test_grown_verdicts_identical_across_jobs(self):
        assert search._grown_verdicts(7, 2) == search._grown_verdicts(7, 1)

    def test_census_8(self, census_8):
        # the published count (Kitaev-Lozin, Words and Graphs); the digest is
        # that of census_from_graph6 over the 11,117 graphs, a full search
        # each
        r = census_8.result
        assert (r.examined, len(r.non_word_representable)) == (11117, 929)
        assert _sha16((r.n, r.examined, [(G.labels, G.adj) for G in r.non_word_representable])) == "f353ee79b0b78929"

    def test_census_8_searches_only_minimal_no_instances(self, census_8):
        # of the 929 "no"s, 528 are inherited from a refuted parent, 354 are
        # looked up and the 47 minimal ones are searched.  Every looked-up
        # or inherited "no" names a refuted level-7 form that is a connected
        # one-vertex deletion of it
        refuted = {form for form, (ok, _parent) in search._grown_verdicts(7, 1)[0].items() if not ok}
        assert len(refuted) == 25
        searched_no = looked_up = 0
        for form, (ok, parent) in census_8.verdicts.items():
            if ok:
                continue
            G = graph_from_canonical_bits(8, form)
            if parent is None:
                searched_no += 1
                assert _is_minimal_non_word_representable(G)
            else:
                looked_up += (8, form) in census_8.looked_up
                assert canonical_form(_parent_graph(parent))[1] in refuted
                assert _is_connected_deletion(G, parent)
        assert (searched_no, looked_up, len(census_8.looked_up)) == (47, 354, 354 + 7)

    def test_lone_tied_children_are_met_once(self, census_8):
        # on every level of census 8, a tied child alone in its invariant's
        # bucket, like a sole child, has a canonical form that no other
        # kept child of its level has; the kept children of the
        # representatives are every class of the level (OEIS A001349)
        counts = []
        for n, parents in sorted(census_8.parents.items()):
            kept = [(key, canonical_form(search._grown(adj, nbh))) for adj, _succ in parents
                    for nbh, key in search._children(n, adj)]
            forms = Counter(form for _key, form in kept)
            keys = Counter(key for key, _form in kept if key is not None)
            assert all(forms[form] == 1 for key, form in kept if key is None or keys[key] == 1)
            lone = sum(1 for count in keys.values() if count == 1)
            counts.append((len(forms), len(kept), sum(keys.values()), lone))
        # (classes, kept children, tied children, lone tied children) for
        # n = 2..8: at n = 7, 98 of the 363 tied children share a bucket
        # (140, and 51, 223 and 1,521 lone ones at n = 6, 7, 8, when the
        # invariant had no triangle counts)
        assert counts == [
            (1, 1, 1, 1), (2, 2, 2, 2), (6, 6, 5, 5), (21, 21, 13, 13), (112, 115, 63, 57),
            (853, 903, 363, 265), (11117, 12113, 4056, 2070),
        ]

    def test_census_from_graph6_reads_the_header(self):
        # the optional header may prefix a graph's line, as the format
        # description writes it, or stand on a line of its own
        r = census_from_graph6([HEADER + write_graph6(_w5())])
        assert r.examined == 1
        assert [canonical_form(G) for G in r.non_word_representable] == [canonical_form(_w5())]
        r = census_from_graph6([HEADER, write_graph6(_w5()), ""])
        assert (r.examined, len(r.non_word_representable)) == (1, 1)

    def test_census_from_graph6_of_no_graph_and_of_the_empty_graph(self):
        # "?" is the graph on no vertices, word-representable by the empty word
        assert census_from_graph6([]) == search.CensusResult(0, 0, ())
        assert census_from_graph6(["?"]) == search.CensusResult(0, 1, ())

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
