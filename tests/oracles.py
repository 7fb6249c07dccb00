"""Independent test oracles, deliberately naive.

Everything here recomputes results by definition-level brute force so the
library implementations are checked against code that shares none of their
shortcuts (bit tricks, pruning, reachability reformulations).
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Optional

from wordrep import _kernels_py
from wordrep.construct import ConstructionError
from wordrep.core import Graph, Permutation, Word, canonical_form, iter_mask
from wordrep.orient import Orientation, _Budget, _edge_order, is_transitive
from wordrep.verify import verify_k11


def slow_pattern_11(w: Word, x: str, y: str) -> int:
    """11-count of a pair by literally building the pair subword."""
    sub = [lab for lab in w.label_seq() if lab in (x, y)]
    return sum(1 for a, b in zip(sub, sub[1:]) if a == b)


def slow_graph_of_word(w: Word, k: int) -> Graph:
    labels = w.alphabet
    edges = []
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            if slow_pattern_11(w, x, y) <= k:
                edges.append((x, y))
    return Graph.from_edges(labels, edges)


def all_orientations(G: Graph):
    """Every orientation of G, as Orientation instances."""
    edges = G.edges()
    for choice in product((0, 1), repeat=len(edges)):
        succ = [0] * G.n
        for (i, j), c in zip(edges, choice):
            if c:
                succ[i] |= 1 << j
            else:
                succ[j] |= 1 << i
        yield Orientation(G, tuple(succ))


def _has_cycle(D: Orientation) -> bool:
    n = D.base.n
    color = [0] * n  # 0 unseen, 1 on stack, 2 done

    def dfs(v: int) -> bool:
        color[v] = 1
        for u in iter_mask(D.succ[v]):
            if color[u] == 1 or (color[u] == 0 and dfs(u)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and dfs(v) for v in range(n))


def exhaustive_shortcut_free(D: Orientation) -> bool:
    """Shortcut-freeness straight from the definition.

    Enumerates every directed simple path v0 -> ... -> vk with k >= 3; the
    configuration is a shortcut when the arc v0 -> vk is present and some
    pair of path vertices is non-adjacent in the base graph.
    """
    G = D.base
    found = [False]

    def extend(path: list[int], on_path: int):
        if found[0]:
            return
        if len(path) >= 4 and D.succ[path[0]] >> path[-1] & 1:
            verts = path
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    if not G.has_edge(verts[a], verts[b]):
                        found[0] = True
                        return
        for v in iter_mask(D.succ[path[-1]]):
            if on_path >> v & 1:
                continue
            path.append(v)
            extend(path, on_path | 1 << v)
            path.pop()
            if found[0]:
                return

    for start in range(G.n):
        extend([start], 1 << start)
        if found[0]:
            return False
    return True


def exhaustive_semi_transitive(D: Orientation) -> bool:
    return not _has_cycle(D) and exhaustive_shortcut_free(D)


def slow_directed_paths(D: Orientation, num_arcs: int) -> list[tuple[str, ...]]:
    """Directed simple paths with exactly ``num_arcs`` arcs, by definition.

    Grows every sequence of distinct vertices one vertex at a time, keeping
    it while each consecutive pair is an arc; works on cyclic orientations
    too.  Paths are label tuples, sorted.
    """
    labels = D.base.labels
    n = D.base.n
    arcs = {(labels[i], labels[j]) for i in range(n) for j in range(n) if D.succ[i] >> j & 1}
    paths = [(v,) for v in labels]
    for _ in range(num_arcs):
        paths = [p + (v,) for p in paths for v in labels if v not in p and (p[-1], v) in arcs]
    return sorted(paths)


def random_word(rng, labels, extra: int) -> Word:
    """A random word containing every label at least once."""
    seq = list(labels) + [rng.choice(labels) for _ in range(extra)]
    rng.shuffle(seq)
    return Word.from_labels(tuple(labels), seq)


def relabelled(rng, G: Graph) -> Graph:
    """G with its vertex indices shuffled (labels kept in place)."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph.from_index_edges(G.labels, [(perm[i], perm[j]) for i, j in G.edges()])


def slow_search_semi_transitive(
    G: Graph, one_sided_root: bool = False
) -> tuple[Optional[tuple[int, ...]], int]:
    """The semi-transitive search with full recomputation at every node.

    Same edge order and branch order as ``orient.search_semi_transitive``,
    but each node recomputes reachability and rescans every arc with the
    reference ``forced_shortcut_pair``.  Both directions of the first edge
    are tried unless ``one_sided_root``, which tries u->v alone there, as
    the library search does.  Returns (succ or None, node count).
    """
    edges = _edge_order(G)
    n = G.n
    succ = [0] * n
    nodes = 0

    def rec(k: int) -> bool:
        nonlocal nodes
        nodes += 1
        if k == len(edges):
            return True
        u, v = edges[k]
        directions = [(u, v)] if k == 0 and one_sided_root else [(u, v), (v, u)]
        for x, y in directions:
            succ[x] |= 1 << y
            try:
                ok = _kernels_py.forced_shortcut_pair(n, succ, G.adj) is None
            except ValueError:  # cycle
                ok = False
            if ok and rec(k + 1):
                return True
            succ[x] &= ~(1 << y)
        return False

    return (tuple(succ) if rec(0) else None), nodes


# The transitive search that ``orient._search`` with ``add_transitive_arc``
# replaced, verbatim apart from its name.


def slow_search_transitive(G: Graph, max_nodes: Optional[int] = None) -> Optional[Orientation]:
    """Backtracking search for a transitive orientation.

    Uses forcing-closure propagation: once a->b and b->c are fixed, the arc
    a->c is forced (and a missing edge ac kills the branch).  Naive but
    sufficient at desk scale; no modular decomposition.
    """
    n = G.n
    edges = _edge_order(G)
    budget = _Budget(max_nodes)

    def closure(succ: list[int]) -> Optional[list[int]]:
        succ = succ[:]
        changed = True
        while changed:
            changed = False
            for a in range(n):
                for b in iter_mask(succ[a]):
                    need = succ[b] & ~succ[a] & ~(1 << a)
                    if not need:
                        continue
                    if need & ~G.adj[a]:
                        return None  # a->b->c with ac not an edge
                    for c in iter_mask(need):
                        if succ[c] >> a & 1:
                            return None  # would conflict with c->a
                    succ[a] |= need
                    changed = True
        for a in range(n):
            if succ[a] & (1 << a):
                return None
            for b in iter_mask(succ[a]):
                if succ[b] >> a & 1:
                    return None
        return succ

    def rec(succ: list[int], k: int) -> Optional[list[int]]:
        budget.tick()
        while k < len(edges):
            u, v = edges[k]
            if (succ[u] >> v | succ[v] >> u) & 1:
                k += 1
                continue
            break
        else:
            return succ
        u, v = edges[k]
        for x, y in ((u, v), (v, u)):
            trial = succ[:]
            trial[x] |= 1 << y
            closed = closure(trial)
            if closed is not None:
                got = rec(closed, k + 1)
                if got is not None:
                    return got
        return None

    got = rec([0] * n, 0)
    if got is None:
        return None
    D = Orientation(G, tuple(got))
    if not is_transitive(D):  # closure should guarantee this
        raise AssertionError("forcing closure produced a non-transitive orientation")
    return D


def exhaustive_transitive(D: Orientation) -> bool:
    """Transitivity straight from the definition: for every two arcs u->v
    and v->w, the arc u->w is present."""
    arcs = set(D.arcs())
    return all((u, w) in arcs for u, v in arcs for v2, w in arcs if v == v2)


def slow_refined_classes(G: Graph) -> list[list[int]]:
    """Iterated neighbour-degree partition with the nested colour tuples
    themselves as colours (no renaming between rounds)."""
    colors: list[tuple] = [(G.degree(i),) for i in range(G.n)]
    while True:
        new = [
            (colors[i], tuple(sorted(colors[j] for j in iter_mask(G.adj[i]))))
            for i in range(G.n)
        ]
        if len(set(new)) == len(set(colors)):
            break
        colors = new
    distinct = sorted(set(colors))
    classes: list[list[int]] = [[] for _ in distinct]
    rank = {c: r for r, c in enumerate(distinct)}
    for i, c in enumerate(colors):
        classes[rank[c]].append(i)
    return classes


def slow_canonical_min_bits(n: int, adj, classes) -> int:
    """Minimum upper-triangle bitstring over every class-respecting ordering,
    each one built in full from the permutations of every class (no pruning)."""
    nbits = n * (n - 1) // 2
    best = None
    class_perms = [list(permutations(c)) for c in classes]

    def rec(ci, ordering):
        nonlocal best
        if ci == len(class_perms):
            bits = 0
            p = 0
            for a in range(n):
                row = adj[ordering[a]]
                for b in range(a + 1, n):
                    if row >> ordering[b] & 1:
                        bits |= 1 << (nbits - 1 - p)
                    p += 1
            if best is None or bits < best:
                best = bits
            return
        for perm in class_perms[ci]:
            rec(ci + 1, ordering + list(perm))

    rec(0, [])
    return best


# The two word searches that ``search._search_word`` replaced, verbatim apart
# from their names: the uniform one and the bounded-length k-11 one.


def slow_search_uniform_word(G: Graph, t: int, counter: _Budget) -> Optional[Word]:
    """Backtracking search for a t-uniform 0-11-representant of G.

    Alternation pruning: a letter may never create an adjacent equal pair
    with a neighbour (a t-uniform pair subword without adjacent equals is
    automatically alternating), and a non-edge pair whose letters are both
    exhausted must already have its required 11.
    """
    n = G.n
    total = n * t
    remaining = [t] * n
    last = {}
    doubled = [[False] * n for _ in range(n)]
    word: list[int] = []

    def ok_to_place(a: int) -> bool:
        if remaining[a] == 0:
            return False
        for b in iter_mask(G.adj[a]):
            if last.get((min(a, b), max(a, b))) == a:
                return False
        if remaining[a] == 1:
            # last copy of a: every non-neighbour with no copies left must
            # already have its 11 with a
            for b in range(n):
                if b != a and not G.has_edge(a, b) and remaining[b] == 0 and not doubled[a][b]:
                    return False
        return True

    def place(a: int):
        remaining[a] -= 1
        word.append(a)
        undo = []
        for b in range(n):
            if b == a:
                continue
            key = (min(a, b), max(a, b))
            prev = last.get(key)
            undo.append((key, prev))
            if prev == a and not doubled[a][b]:
                doubled[a][b] = doubled[b][a] = True
                undo.append((key, "doubled"))
            last[key] = a
        return undo

    def unplace(a: int, undo):
        for key, prev in reversed(undo):
            if prev == "doubled":
                b = key[0] if key[1] == a else key[1]
                doubled[a][b] = doubled[b][a] = False
            elif prev is None:
                del last[key]
            else:
                last[key] = prev
        word.pop()
        remaining[a] += 1

    def rec() -> bool:
        counter.tick()
        if len(word) == total:
            return all(
                doubled[i][j]
                for i in range(n)
                for j in range(i + 1, n)
                if not G.has_edge(i, j)
            )
        for a in range(n):
            if not ok_to_place(a):
                continue
            undo = place(a)
            if rec():
                return True
            unplace(a, undo)
        return False

    if rec():
        w = Word(G.labels, tuple(word))
        if not verify_k11(w, G, 0):  # self-verification gate
            raise AssertionError("uniform search produced an invalid word")
        return w
    return None


def slow_search_k11_word(G: Graph, k: int, length: int, counter: _Budget) -> Optional[Word]:
    n = G.n
    word: list[int] = []
    occ = [0] * n
    last = {}
    doubles = [[0] * n for _ in range(n)]

    def rec() -> bool:
        counter.tick()
        missing = sum(1 for c in occ if c == 0)
        slots = length - len(word)
        if missing > slots:
            return False
        if slots == 0:
            return all(
                doubles[i][j] >= k + 1
                for i in range(n)
                for j in range(i + 1, n)
                if not G.has_edge(i, j)
            )
        for a in range(n):
            bad = False
            bumped = []
            for b in range(n):
                if b == a:
                    continue
                if last.get((min(a, b), max(a, b))) == a:
                    if G.has_edge(a, b) and doubles[a][b] + 1 > k:
                        bad = True
                        break
                    bumped.append(b)
            if bad:
                continue
            undo = []
            for b in bumped:
                doubles[a][b] += 1
                doubles[b][a] += 1
            for b in range(n):
                if b == a:
                    continue
                key = (min(a, b), max(a, b))
                undo.append((key, last.get(key)))
                last[key] = a
            occ[a] += 1
            word.append(a)
            if rec():
                return True
            word.pop()
            occ[a] -= 1
            for key, prev in undo:
                if prev is None:
                    del last[key]
                else:
                    last[key] = prev
            for b in bumped:
                doubles[a][b] -= 1
                doubles[b][a] -= 1
        return False

    if rec():
        w = Word(G.labels, tuple(word))
        if not verify_k11(w, G, k):
            raise AssertionError("k-11 search produced an invalid word")
        return w
    return None


def brute_force_uniform_word(G: Graph, max_t: int) -> Optional[Word]:
    """Lexicographically first t-uniform 0-11-representant of G (over index
    sequences) for the smallest t <= max_t, by checking every sequence of
    n*t letters against the definition."""
    for t in range(1, max_t + 1):
        for seq in product(range(G.n), repeat=G.n * t):
            if all(seq.count(a) == t for a in range(G.n)):
                w = Word(G.labels, seq)
                if slow_graph_of_word(w, 0) == G:
                    return w
    return None


def brute_force_automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """Every permutation p of range(n) with p[i] p[j] an edge exactly when
    i j is one, in lexicographic order."""
    n = G.n
    return [
        p for p in permutations(range(n))
        if all(G.has_edge(p[i], p[j]) == G.has_edge(i, j)
               for i in range(n) for j in range(i + 1, n))
    ]


def slow_graph_from_bits(n: int, bits: int) -> Graph:
    """The graph on labels 1..n whose upper-triangle bitstring, pairs in
    lexicographic order with (0, 1) most significant, is ``bits``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    top = len(pairs) - 1
    edges = [pair for k, pair in enumerate(pairs) if bits >> (top - k) & 1]
    return Graph.from_index_edges(tuple(str(i + 1) for i in range(n)), edges)


def _deletion_keys(adj, connected: bool) -> tuple[list, list[int]]:
    """(degree, -sum of neighbours' degrees) of each vertex of the graph with
    adjacency masks ``adj``, and the vertices eligible for deletion: all (if
    ``connected``: those whose removal leaves the graph connected, found by a
    breadth-first search of the graph without the vertex)."""
    n = len(adj)
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]
    deg = [len(nb) for nb in nbrs]
    key = [(deg[v], -sum(deg[u] for u in nbrs[v])) for v in range(n)]

    def connected_without(v: int) -> bool:
        rest = [u for u in range(n) if u != v]
        reached = set(rest[:1])
        frontier = list(reached)
        while frontier:
            u = frontier.pop()
            for x in nbrs[u]:
                if x != v and x not in reached:
                    reached.add(x)
                    frontier.append(x)
        return len(reached) == len(rest)

    return key, [v for v in range(n) if not connected or connected_without(v)]


def slow_is_canonical_deletion(adj, connected: bool) -> bool:
    """Whether the last vertex of the graph with adjacency masks ``adj``
    minimises (degree, -sum of its neighbours' degrees) among all vertices
    (if ``connected``: among those whose removal leaves the graph
    connected).  Everything is recomputed on this graph alone."""
    key, eligible = _deletion_keys(adj, connected)
    return all(key[-1] <= key[v] for v in eligible)


def slow_is_sole_canonical_deletion(adj, connected: bool) -> bool:
    """Whether the last vertex of the graph with adjacency masks ``adj`` is
    the only minimiser of (degree, -sum of its neighbours' degrees) among
    the vertices ``slow_is_canonical_deletion`` compares it with."""
    key, eligible = _deletion_keys(adj, connected)
    last = len(adj) - 1
    return all(key[last] < key[v] for v in eligible if v != last)


def slow_canonical_bits_upto(n: int, connected: bool) -> list[int]:
    """The enumeration's growth before the canonical-deletion filter (and
    with no cache): every orbit-smallest one-vertex extension of every
    parent is canonicalized.  Orbits come from the brute-force
    automorphisms."""
    if n == 1:
        return [0]
    forms_set = set()
    labels = tuple(str(i + 1) for i in range(n))
    for bits in slow_canonical_bits_upto(n - 1, connected):
        base = slow_graph_from_bits(n - 1, bits)
        base_pairs = base.edges()
        autos = brute_force_automorphisms(base)
        seen = set()
        # ascending order: the first mask met in an orbit is its smallest
        for nbh in range(1 if connected else 0, 1 << (n - 1)):
            if nbh in seen:
                continue
            seen.update(sum(1 << p[v] for v in iter_mask(nbh)) for p in autos)
            pairs = base_pairs + [(i, n - 1) for i in iter_mask(nbh)]
            G = Graph.from_index_edges(labels, pairs)
            forms_set.add(canonical_form(G)[1])
    return sorted(forms_set)


# The heap-based Kahn sort that construct.comparability_perm_rep replaced,
# kept as written so that its permutation lists stay pinned.
def reference_comparability_perm_rep(D: Orientation) -> list[Permutation]:
    """Permutations representing the comparability graph underlying D.

    All returned permutations are linear extensions of D, so every arc pair
    keeps its order everywhere; each non-adjacent pair shows up in both
    orders across the list.  Greedy: start from one extension, then for
    every one-sided non-edge pair append an extension of D plus that pair
    reversed (always consistent, as non-adjacent means incomparable).
    Minimality of the count is a non-goal.
    """
    if not is_transitive(D):
        raise ValueError("orientation is not transitive")
    G = D.base
    n = G.n

    def lin_ext(extra: Optional[tuple[int, int]] = None) -> list[int]:
        succ = list(D.succ)
        if extra is not None:
            succ[extra[0]] |= 1 << extra[1]
        indeg = [0] * n
        for i in range(n):
            for j in range(n):
                if succ[i] >> j & 1:
                    indeg[j] += 1
        import heapq

        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            i = heapq.heappop(heap)
            order.append(i)
            for j in range(n):
                if succ[i] >> j & 1:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        heapq.heappush(heap, j)
        if len(order) != n:
            raise ValueError("cyclic orientation")
        return order

    def order_seen(order: list[int], seen: dict[tuple[int, int], set[str]]):
        pos = [0] * n
        for slot, v in enumerate(order):
            pos[v] = slot
        for i in range(n):
            for j in range(i + 1, n):
                if not G.has_edge(i, j):
                    seen[(i, j)].add("ij" if pos[i] < pos[j] else "ji")

    non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if not G.has_edge(i, j)]
    seen: dict[tuple[int, int], set[str]] = {p: set() for p in non_edges}
    orders = [lin_ext()]
    order_seen(orders[0], seen)
    for i, j in non_edges:
        if len(seen[(i, j)]) == 2:
            continue
        if "ij" in seen[(i, j)]:
            extra = (j, i)
        else:
            extra = (i, j)
        order = lin_ext(extra)
        orders.append(order)
        order_seen(order, seen)

    perms = [Word(G.labels, tuple(order)) for order in orders]
    concat = perms[0].concat(*perms[1:]) if len(perms) > 1 else perms[0]
    if not verify_k11(concat, G, 0):
        raise ConstructionError("permutation list fails to represent the base graph")
    return perms
