"""Independent checks of wordrep's outputs.

Nothing here imports wordrep.  Each check recomputes its answer from the
definitions, on labels, adjacency bitmasks and letter sequences read off
the program's outputs, and shares none of the program's kernels.  The
benchmark runs them after the timed loop, outside every span.
"""

from __future__ import annotations

from itertools import combinations

# Connected graphs on n vertices (OEIS A001349) and how many of them are not
# word-representable (Akguen, Gent, Kitaev, Zantema, "Solving computational
# problems in the theory of word-representable graphs", JIS 2019).
CENSUS_REFERENCE = {6: (112, 1), 7: (853, 25)}

# Published minimal non-word-representable graphs, written out here so that
# the planted "no" verdicts do not rest on the program's own catalog.
NON_WORD_REPRESENTABLE = {
    # wheel W5: a 5-cycle plus a hub
    "w5": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)] + [(6, i) for i in range(1, 6)]),
    # split graph: clique {1,2,3,4}, independent set {5,6,7,8}
    "split-min": (8, [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (1, 5), (1, 8), (2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (4, 7), (4, 8),
    ]),
    "graph12": (7, [
        (1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 6), (2, 7),
        (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (5, 6),
    ]),
    "graph17": (7, [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (2, 7),
        (3, 4), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7),
    ]),
}


def edge_set(adj) -> set[frozenset[int]]:
    """Edges of adjacency bitmasks as index pairs."""
    n = len(adj)
    return {frozenset((i, j)) for i, j in combinations(range(n), 2) if adj[i] >> j & 1}


def count_11(letters, x, y) -> int:
    """Adjacent equal letters in the subword formed by the copies of x and y."""
    sub = [a for a in letters if a == x or a == y]
    return sum(1 for a, b in zip(sub, sub[1:]) if a == b)


def word_represents(seq, labels, edges, k: int) -> bool:
    """Does the label sequence ``seq`` k-11-represent the graph?

    ``labels`` are the vertices and ``edges`` a set of frozenset label
    pairs.  Every vertex must occur; a pair is an edge exactly when its
    subword has at most k adjacent equal letters.
    """
    if set(seq) != set(labels) or len(set(labels)) != len(labels):
        return False
    return all(
        (count_11(seq, x, y) <= k) == (frozenset((x, y)) in edges)
        for x, y in combinations(labels, 2)
    )


def is_uniform(seq) -> bool:
    counts: dict = {}
    for a in seq:
        counts[a] = counts.get(a, 0) + 1
    return len(set(counts.values())) == 1


def graph_labels_edges(G) -> tuple[list[str], set[frozenset[str]]]:
    """A program Graph as (labels, label-pair edges)."""
    labels = list(G.labels)
    return labels, {frozenset((labels[i], labels[j])) for i, j in map(sorted, edge_set(G.adj))}


def word_seq(w) -> list[str]:
    return [w.alphabet[a] for a in w.letters]


# -- orientations -------------------------------------------------------


def orientation_ok(adj, succ) -> bool:
    """Is ``succ`` a semi-transitive orientation of the graph ``adj``?

    Checked from the definition: every edge carries exactly one arc, there
    is no directed cycle, and no directed path v0 -> ... -> vt with t >= 3
    and an arc v0 -> vt has a non-adjacent pair of vertices (a shortcut).
    """
    n = len(adj)
    if len(succ) != n:
        return False
    out = [[j for j in range(n) if succ[i] >> j & 1] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            arcs = (j in out[i]) + (i in out[j])
            if arcs != (1 if adj[i] >> j & 1 else 0):
                return False
    state = [0] * n  # 0 unseen, 1 on the DFS stack, 2 done

    def cyclic(v: int) -> bool:
        state[v] = 1
        for u in out[v]:
            if state[u] == 1 or (state[u] == 0 and cyclic(u)):
                return True
        state[v] = 2
        return False

    if any(state[v] == 0 and cyclic(v) for v in range(n)):
        return False

    def shortcut_from(path: list[int]) -> bool:
        v0, last = path[0], path[-1]
        if len(path) >= 4 and last in out[v0]:
            if any(not adj[a] >> b & 1 for a, b in combinations(path, 2)):
                return True
        for u in out[last]:
            path.append(u)
            found = shortcut_from(path)
            path.pop()
            if found:
                return True
        return False

    return not any(shortcut_from([v]) for v in range(n))


# -- planted verdicts ----------------------------------------------------


def colouring_ok(adj, colours) -> bool:
    """A proper colouring with at most 3 colours; such graphs are
    word-representable (orient every edge towards the larger colour)."""
    return set(colours) <= {0, 1, 2} and all(
        colours[i] != colours[j] for i, j in map(sorted, edge_set(adj))
    )


def planted_core_ok(adj, core: str, placement) -> bool:
    """Do the placed vertices induce exactly the named non-representable graph?

    ``placement[i]`` is the vertex that plays core vertex i + 1.
    Word-representability is hereditary, so the whole graph is then not
    word-representable.
    """
    size, core_edges = NON_WORD_REPRESENTABLE[core]
    if len(placement) != size or len(set(placement)) != size:
        return False
    want = {frozenset((a - 1, b - 1)) for a, b in core_edges}
    return all(
        (bool(adj[placement[a]] >> placement[b] & 1)) == (frozenset((a, b)) in want)
        for a, b in combinations(range(size), 2)
    )


# -- census --------------------------------------------------------------


def connected(adj) -> bool:
    n = len(adj)
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for u in range(n):
            if adj[v] >> u & 1 and u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == n


def census_ok(result, n: int) -> bool:
    """Counts match the published ones; every graph listed is a distinct
    connected graph on n vertices."""
    examined, bad = CENSUS_REFERENCE[n]
    graphs = result.non_word_representable
    return (
        result.examined == examined
        and len(graphs) == bad
        and all(len(G.adj) == n and connected(G.adj) for G in graphs)
        and len({tuple(G.adj) for G in graphs}) == bad
    )
