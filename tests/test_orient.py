import random
from collections import Counter

import pytest

from oracles import (
    all_orientations,
    backtracking_transitive,
    exhaustive_semi_transitive,
    exhaustive_transitive,
    reference_adjacency_check,
    reference_orientation_check,
    relabelled,
    slow_search_semi_transitive,
    slow_search_transitive,
)
from wordrep import _kernels, catalog
from wordrep.core import Graph, complete_graph, cycle_graph, path_graph
from wordrep.orient import (
    BudgetExceeded,
    Orientation,
    directed_paths_with_arcs,
    find_shortcut,
    is_acyclic,
    is_semi_transitive,
    is_transitive,
    orient_by_coloring,
    search_semi_transitive,
    search_transitive,
)
from wordrep.search import enumerate_nonisomorphic
from wordrep.verify import verify_k11


def _w5() -> Graph:
    labels = tuple(str(i) for i in range(1, 7))
    edges = [(str(i), str(i % 5 + 1)) for i in range(1, 6)]
    edges += [("6", str(i)) for i in range(1, 6)]
    return Graph.from_edges(labels, edges)


# A 4-vertex graph with a forced shortcut: directed path 1->2->3->4 with
# the arc 1->4 present and the pair {2,4} non-adjacent.
_SHORTCUT_GRAPH = Graph.from_edges(
    ("1", "2", "3", "4"),
    [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")],
)
_SHORTCUT_ARCS = [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")]


class TestOrientation:
    def test_from_arcs_roundtrip(self):
        D = Orientation.from_arcs(path_graph(("a", "b", "c")), [("a", "b"), ("c", "b")])
        assert sorted(D.arcs()) == [("a", "b"), ("c", "b")]

    def test_arc_without_edge(self):
        with pytest.raises(ValueError, match="no base edge"):
            Orientation.from_arcs(path_graph(("a", "b", "c")), [("a", "c")])

    def test_unoriented_edge(self):
        with pytest.raises(ValueError, match="unoriented"):
            Orientation(path_graph(("a", "b")), (0, 0))

    def test_double_oriented_edge(self):
        with pytest.raises(ValueError, match="duplicate or conflicting"):
            Orientation.from_arcs(path_graph(("a", "b")), [("a", "b"), ("b", "a")])


def _error(make):
    """(type, message) of what ``make()`` raises, or None."""
    try:
        make()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _random_graph(rng, n: int, p: float) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_index_edges(tuple(f"v{i}" for i in range(n)), pairs)


class TestValidationParity:
    """Orientation and Graph reject broken masks as the loops of
    ``tests/oracles.py`` do: same type, message and first reported edge."""

    def test_orientation_errors(self):
        rng = random.Random(18)
        seen = Counter()
        for _ in range(800):
            G = _random_graph(rng, rng.randint(2, 9), 0.5)
            n, edges = G.n, G.edges()
            non_edges = [(i, j) for i in range(n) for j in range(n) if i != j and not G.has_edge(i, j)]
            succ = [0] * n
            for i, j in edges:
                i, j = rng.choice(((i, j), (j, i)))
                succ[i] |= 1 << j
            for _ in range(rng.randint(0, 3)):
                kind = rng.choice(("both", "neither", "no edge"))
                if kind == "no edge" and non_edges:
                    i, j = rng.choice(non_edges)
                    succ[i] |= 1 << j
                elif kind != "no edge" and edges:
                    i, j = rng.choice(edges)
                    both = kind == "both"
                    succ[i] = succ[i] & ~(1 << j) | both << j
                    succ[j] = succ[j] & ~(1 << i) | both << i
            if rng.random() < 0.05:
                succ.append(0)
            want = _error(lambda: reference_orientation_check(G, succ))
            assert _error(lambda: Orientation(G, tuple(succ))) == want
            seen[want and want[1].split()[-1]] += 1
        assert min(seen[k] for k in (None, "edge", "unoriented", "ways", "mismatch")) >= 30, seen

    def test_adjacency_errors(self):
        rng = random.Random(18)
        seen = Counter()
        for _ in range(800):
            G = _random_graph(rng, rng.randint(1, 9), 0.5)
            n, adj = G.n, list(G.adj)
            for _ in range(rng.randint(0, 2)):
                i, j = rng.randrange(n), rng.randrange(n + (rng.random() < 0.15))
                if i != j or rng.random() < 0.3:
                    adj[i] ^= 1 << j
            want = _error(lambda: reference_adjacency_check(G.labels, adj))
            assert _error(lambda: Graph(G.labels, tuple(adj))) == want
            seen[want and want[1].split()[0]] += 1
        assert min(seen[k] for k in (None, "asymmetric", "self-loop", "edge")) >= 20, seen


class TestChecks:
    def test_acyclic(self):
        C3 = cycle_graph(("1", "2", "3"))
        cyc = Orientation.from_arcs(C3, [("1", "2"), ("2", "3"), ("3", "1")])
        assert not is_acyclic(cyc)
        assert not is_semi_transitive(cyc)
        acyc = Orientation.from_arcs(C3, [("1", "2"), ("2", "3"), ("1", "3")])
        assert is_acyclic(acyc)
        assert is_semi_transitive(acyc)

    def test_find_shortcut_witness(self):
        D = Orientation.from_arcs(_SHORTCUT_GRAPH, _SHORTCUT_ARCS)
        assert not is_semi_transitive(D)
        w = find_shortcut(D)
        assert w is not None
        assert w.path[0] == "1" and w.path[-1] == "4"
        assert len(w.path) >= 4
        assert set(w.missing) == {"2", "4"}
        assert not D.base.has_edge_labels(*w.missing)

    def test_find_shortcut_witness_is_a_shortcut_path(self):
        # acyclic orientations by a random vertex order, n = 5..10: the path
        # is directed, runs from a to b along the arc a->b that the kernel
        # reports, and visits its non-adjacent pair u, then w
        rng = random.Random(18)
        checked = 0
        for _ in range(1500):
            G = _random_graph(rng, rng.randint(5, 10), 0.6)
            rank = rng.sample(range(G.n), G.n)
            succ = [0] * G.n
            for i, j in G.edges():
                i, j = (i, j) if rank[i] < rank[j] else (j, i)
                succ[i] |= 1 << j
            D = Orientation(G, tuple(succ))
            if is_semi_transitive(D):
                continue
            w = find_shortcut(D)
            path = [G.idx(lab) for lab in w.path]
            u, x = (G.idx(lab) for lab in w.missing)
            a, b, ku, kw = _kernels.forced_shortcut_pair(G.n, D.succ, G.adj)
            assert (path[0], path[-1], u, x) == (a, b, ku, kw)
            assert all(succ[p] >> q & 1 for p, q in zip(path, path[1:]))
            assert succ[a] >> b & 1 and not G.has_edge(u, x)
            assert len(set(path)) == len(path) >= 4
            assert path.index(u) < path.index(x)
            checked += 1
        assert checked >= 1000, checked

    def test_find_shortcut_none(self):
        D = Orientation.from_arcs(
            complete_graph(("1", "2", "3")), [("1", "2"), ("1", "3"), ("2", "3")]
        )
        assert find_shortcut(D) is None

    def test_find_shortcut_rejects_cycle(self):
        C3 = cycle_graph(("1", "2", "3"))
        cyc = Orientation.from_arcs(C3, [("1", "2"), ("2", "3"), ("3", "1")])
        with pytest.raises(ValueError, match="cyclic"):
            find_shortcut(cyc)

    def test_transitive_tournament(self):
        K4 = complete_graph(("1", "2", "3", "4"))
        labels = K4.labels
        arcs = [(labels[i], labels[j]) for i in range(4) for j in range(i + 1, 4)]
        D = Orientation.from_arcs(K4, arcs)
        assert is_transitive(D)
        assert is_semi_transitive(D)

    def test_not_transitive(self):
        D = Orientation.from_arcs(path_graph(("a", "b", "c")), [("a", "b"), ("b", "c")])
        assert not is_transitive(D)  # a->b->c without edge ac
        D2 = Orientation.from_arcs(path_graph(("a", "b", "c")), [("a", "b"), ("c", "b")])
        assert is_transitive(D2)

    def test_checker_matches_exhaustive_oracle_small(self):
        for G in (path_graph(("1", "2", "3", "4")), cycle_graph(("1", "2", "3", "4")),
                  _SHORTCUT_GRAPH, complete_graph(("1", "2", "3", "4"))):
            for D in all_orientations(G):
                assert is_semi_transitive(D) == exhaustive_semi_transitive(D)


class TestPaths:
    def test_directed_paths(self):
        D = Orientation.from_arcs(_SHORTCUT_GRAPH, _SHORTCUT_ARCS)
        assert directed_paths_with_arcs(D, 3) == [("1", "2", "3", "4")]
        assert directed_paths_with_arcs(D, 4) == []
        two = directed_paths_with_arcs(D, 2)
        assert ("1", "2", "3") in two and ("2", "3", "4") in two and ("1", "3", "4") in two
        assert directed_paths_with_arcs(D, 0) == [("1",), ("2",), ("3",), ("4",)]

    def test_paths_reject_cycle_and_negative(self):
        C3 = cycle_graph(("1", "2", "3"))
        cyc = Orientation.from_arcs(C3, [("1", "2"), ("2", "3"), ("3", "1")])
        with pytest.raises(ValueError, match="cyclic"):
            directed_paths_with_arcs(cyc, 2)
        D = Orientation.from_arcs(C3, [("1", "2"), ("2", "3"), ("1", "3")])
        with pytest.raises(ValueError, match="non-negative"):
            directed_paths_with_arcs(D, -1)


class TestOrientByColoring:
    def test_improper_coloring_rejected(self):
        G = path_graph(("a", "b"))
        with pytest.raises(ValueError, match="not proper"):
            orient_by_coloring(G, {"a": 1, "b": 1})

    def test_three_colorings_are_semi_transitive(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(4, 8)
            labels = tuple(str(i) for i in range(n))
            colors = {lab: rng.randrange(3) for lab in labels}
            edges = [
                (labels[i], labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if colors[labels[i]] != colors[labels[j]] and rng.random() < 0.6
            ]
            G = Graph.from_edges(labels, edges)
            assert is_semi_transitive(orient_by_coloring(G, colors))


class TestSearch:
    def test_search_semi_transitive_found(self):
        for G in (cycle_graph(tuple("12345")), complete_graph(tuple("1234"))):
            D = search_semi_transitive(G)
            assert D is not None
            assert is_semi_transitive(D)

    def test_w5_has_none(self):
        assert search_semi_transitive(_w5()) is None

    def test_found_orientation_yields_representability(self):
        # a graph admits a semi-transitive orientation iff 3-colorable here
        G = cycle_graph(tuple("1234567"))
        D = search_semi_transitive(G)
        assert D is not None and is_semi_transitive(D)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            search_semi_transitive(_w5(), max_nodes=3)

    def test_search_transitive(self):
        # even cycles are comparability graphs, odd ones (>= 5) are not
        D = search_transitive(cycle_graph(tuple("123456")))
        assert D is not None and is_transitive(D)
        assert search_transitive(cycle_graph(tuple("12345"))) is None
        assert search_transitive(complete_graph(tuple("12345"))) is not None

    def test_search_transitive_budget(self):
        with pytest.raises(BudgetExceeded):
            backtracking_transitive(cycle_graph(tuple("123456")), max_nodes=1)

    def test_semi_transitive_search_matches_oracle_exhaustively(self):
        # existence agrees with brute force over every orientation
        rng = random.Random(9)
        for _ in range(15):
            n = 5
            labels = tuple(str(i) for i in range(n))
            edges = [
                (labels[i], labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            G = Graph.from_edges(labels, edges)
            expected = any(exhaustive_semi_transitive(D) for D in all_orientations(G))
            assert (search_semi_transitive(G) is not None) == expected


def _random_graphs_8_to_11():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randrange(8, 12)
        p = rng.choice((0.3, 0.4, 0.5))
        labels = tuple(str(i) for i in range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        yield Graph.from_index_edges(labels, pairs)


class TestIncrementalSearch:
    """The incremental search against the full-recompute reference with the
    same one-sided root: the same orientation (or none) after the same
    number of nodes."""

    @staticmethod
    def _assert_same_search(G):
        succ, nodes = slow_search_semi_transitive(G, one_sided_root=True)
        D = search_semi_transitive(G, max_nodes=nodes)
        assert (None if D is None else D.succ) == succ
        with pytest.raises(BudgetExceeded):
            search_semi_transitive(G, max_nodes=nodes - 1)

    def test_every_connected_graph_up_to_6(self):
        for n in range(1, 7):
            for G in enumerate_nonisomorphic(n, connected_only=True):
                self._assert_same_search(G)

    def test_random_graphs_8_to_11(self):
        for G in _random_graphs_8_to_11():
            self._assert_same_search(G)


class TestRootRule:
    """Fixing u->v on the first edge against the search that tries both
    directions there: the same verdict; a "yes" with the same orientation
    after the same number of nodes, a "no" after strictly fewer."""

    @staticmethod
    def _assert_root_rule(G):
        succ, nodes = slow_search_semi_transitive(G)
        if succ is None:
            assert search_semi_transitive(G, max_nodes=nodes - 1) is None
        else:
            assert search_semi_transitive(G, max_nodes=nodes).succ == succ
            with pytest.raises(BudgetExceeded):
                search_semi_transitive(G, max_nodes=nodes - 1)

    def test_every_connected_graph_up_to_7(self):
        for n in range(1, 8):
            for G in enumerate_nonisomorphic(n, connected_only=True):
                self._assert_root_rule(G)

    def test_random_graphs_8_to_11(self):
        for G in _random_graphs_8_to_11():
            self._assert_root_rule(G)


class TestNodeCounts:
    """Search nodes do not depend on the machine: each count is exact
    (enough at N, BudgetExceeded at N - 1).  A "no" explores only the u->v
    subtree of the first edge."""

    @pytest.mark.parametrize("name, nodes", [
        ("w5", 105), ("split-min", 1068), ("graph12", 360), ("graph17", 127), ("chvatal", 6717),
    ])
    def test_no_instances(self, name, nodes):
        G = catalog.get(name).graph
        assert search_semi_transitive(G, max_nodes=nodes) is None
        with pytest.raises(BudgetExceeded):
            search_semi_transitive(G, max_nodes=nodes - 1)


class TestNodeCountsTransitive:
    """The backtracking transitive search's node counts, exact in the same
    way: a node is the root or an accepted arc, and a "no" explores only the
    u->v subtree of the first edge."""

    @pytest.mark.parametrize("G, nodes, found", [
        pytest.param(cycle_graph(tuple("12345")), 5, False, id="C5"),
        pytest.param(cycle_graph(tuple("1234567")), 7, False, id="C7"),
        pytest.param(catalog.get("chvatal").graph, 13, False, id="chvatal"),
        pytest.param(catalog.get("mycielski-c:5").graph, 14, False, id="mycielski-c:5"),
        pytest.param(cycle_graph(tuple("123456")), 7, True, id="C6"),
        pytest.param(complete_graph(tuple("12345")), 11, True, id="K5"),
        pytest.param(catalog.get("bw3").graph, 10, True, id="bw3"),
    ])
    def test_counts(self, G, nodes, found):
        assert (backtracking_transitive(G, max_nodes=nodes) is not None) == found
        with pytest.raises(BudgetExceeded):
            backtracking_transitive(G, max_nodes=nodes - 1)


def _planted_and_random_9_to_13():
    """(planted, G): comparability graphs of random partial orders (every
    pair a reaches under random low-to-high arcs on a shuffled order), and
    random graphs."""
    rng = random.Random(83)
    for t in range(30):
        n = rng.randrange(9, 14)
        if t % 2:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        else:
            reach = [0] * n
            for i in reversed(range(n)):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        reach[i] |= 1 << j | reach[j]
            p = list(range(n))
            rng.shuffle(p)
            pairs = [(p[i], p[j]) for i in range(n) for j in range(n) if reach[i] >> j & 1]
        yield t % 2 == 0, Graph.from_index_edges(tuple(str(i) for i in range(n)), pairs)


def _stars_and_c5(k: int) -> Graph:
    """k disjoint 3-leaf stars and a C5, on which the backtracking search
    takes four times the nodes for every two more stars."""
    pairs = [(4 * s, 4 * s + leaf) for s in range(k) for leaf in (1, 2, 3)]
    pairs += [(4 * k + i, 4 * k + (i + 1) % 5) for i in range(5)]
    return Graph.from_index_edges(tuple(str(i) for i in range(4 * k + 5)), pairs)


class TestTransitiveSearch:
    """Γ-forcing against the backtracking search it replaced (the same
    verdicts, and orientations that are transitive by definition), the
    backtracking search against the forcing-closure search it replaced (the
    same orientations), and both against brute force."""

    @staticmethod
    def _assert_same_verdict(G):
        D = search_transitive(G)
        assert (D is None) == (backtracking_transitive(G) is None)
        assert D is None or exhaustive_transitive(D)

    @staticmethod
    def _assert_same_as_closure_search(G):
        D = backtracking_transitive(G)
        want = slow_search_transitive(G)
        assert (None if D is None else D.succ) == (None if want is None else want.succ)

    def test_every_graph_up_to_7_and_a_relabelling(self):
        rng = random.Random(17)
        for n in range(1, 8):
            for G in enumerate_nonisomorphic(n):
                for H in (G, relabelled(rng, G)):
                    self._assert_same_verdict(H)
                    self._assert_same_as_closure_search(H)

    def test_every_graph_on_8_vertices(self):
        for G in enumerate_nonisomorphic(8):
            self._assert_same_verdict(G)

    def test_planted_posets_and_random_graphs_9_to_13(self):
        for planted, G in _planted_and_random_9_to_13():
            self._assert_same_verdict(G)
            self._assert_same_as_closure_search(G)
            assert search_transitive(G) is not None or not planted

    def test_existence_matches_brute_force_up_to_5(self):
        for n in range(1, 6):
            for G in enumerate_nonisomorphic(n):
                expected = any(exhaustive_transitive(D) for D in all_orientations(G))
                D = search_transitive(G)
                assert (D is not None) == expected
                assert D is None or exhaustive_transitive(D)

    @pytest.mark.parametrize("k", [16, 40])
    def test_stars_and_c5_refuted(self, k):
        assert search_transitive(_stars_and_c5(k)) is None
        assert is_transitive(search_transitive(_stars_and_c5(k).delete_vertex(str(4 * k))))


@pytest.mark.parametrize("n", [50, 64])
def test_both_searches_orient_large_cliques(n):
    # one search node per edge: 1,225 and 2,016 deep, past the recursion limit
    G = complete_graph(tuple(str(i) for i in range(n)))
    assert is_semi_transitive(search_semi_transitive(G))
    assert is_transitive(search_transitive(G))
