"""Exhaustive and backtracking search: representability decisions, word
witness search, non-isomorphic graph enumeration, and the small-graph
census of non-word-representable graphs.

"Unknown" (budget exhausted) is a first-class outcome, raised as
BudgetExceeded and never conflated with "nonexistent".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    Graph, Word, _components, _image_mask, _induces_connected, _labels, canonical_form, iter_mask,
)
from . import _kernels
from .construct import _verified
from .orient import Orientation, _Budget, _reachability, _search, search_semi_transitive


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    max_word_length: int = 30
    max_uniformity: int = 3

    def __post_init__(self):
        if min(self.max_nodes, self.max_word_length, self.max_uniformity) <= 0:
            raise ValueError("budget fields must be positive")


def is_word_representable(G: Graph) -> bool:
    """Exact decision via existence of a semi-transitive orientation."""
    return search_semi_transitive(G) is not None


# -- word representant search ------------------------------------------


def _search_word(
    G: Graph, k: int, length: int, quota: int, counter: _Budget
) -> Optional[Word]:
    """Backtracking search for a k-11-representant of G with ``length``
    letters, at most ``quota`` copies of each (a quota of ``length`` never
    binds).

    Placing a adds an 11 to each pair {a, b} whose subword ends in a, i.e.
    lastpos[a] > lastpos[b].  Edge pairs may never exceed k 11s; with k = 0
    and quota t this is alternation pruning (a t-uniform pair subword
    without adjacent equals is automatically alternating).  A last copy is
    refused while an exhausted non-neighbour would keep <= k 11s with it.
    """
    n = G.n
    adj = G.adj
    non_nbrs = [[b for b in range(n) if b != a and not adj[a] >> b & 1] for a in range(n)]
    copies = [0] * n
    lastpos = [-1] * n
    elevens = [[0] * n for _ in range(n)]
    word: list[int] = []

    def rec(missing: int) -> bool:
        counter.tick()
        pos = len(word)
        if missing > length - pos:
            return False
        if pos == length:
            return all(elevens[a][b] > k for a in range(n) for b in non_nbrs[a])
        for a in range(n):
            c = copies[a]
            if c == quota:
                continue
            la = lastpos[a]
            row = elevens[a]
            bumped = [b for b in range(n) if lastpos[b] < la]  # never a itself
            if any(row[b] >= k for b in bumped if adj[a] >> b & 1):
                continue
            if c + 1 == quota and any(
                copies[b] == quota and row[b] + (lastpos[b] < la) <= k for b in non_nbrs[a]
            ):
                continue
            for b in bumped:
                row[b] += 1
                elevens[b][a] += 1
            copies[a] = c + 1
            lastpos[a] = pos
            word.append(a)
            if rec(missing - (c == 0)):
                return True
            word.pop()
            lastpos[a] = la
            copies[a] = c
            for b in bumped:
                row[b] -= 1
                elevens[b][a] -= 1
        return False

    return _verified(Word(G.labels, tuple(word)), G, k) if rec(n) else None


def find_uniform_representant(G: Graph, budget: SearchBudget = SearchBudget()) -> Optional[Word]:
    """Smallest-t uniform 0-11-representant with t <= budget.max_uniformity.

    Returns None when provably none exists within that uniformity range
    (in particular whenever G is not word-representable at all); raises
    BudgetExceeded if the search space cannot be exhausted in time.
    budget.max_nodes bounds the semi-transitive pre-check and the word
    search separately, so one call may visit up to twice that many nodes.
    Each t runs ``_search_word`` with k = 0 and quota t, on one counter.
    """
    if search_semi_transitive(G, max_nodes=budget.max_nodes) is None:
        return None
    counter = _Budget(budget.max_nodes)
    for t in range(1, budget.max_uniformity + 1):
        w = _search_word(G, 0, G.n * t, t, counter)
        if w is not None:
            return w
    return None


def find_k11_representant(
    G: Graph, k: int, budget: SearchBudget = SearchBudget()
) -> Optional[Word]:
    """Iterative-deepening search for a k-11-representant of bounded length.

    Each length runs ``_search_word`` with a quota of that length, which
    never binds, on one counter.
    Edge pairs may accumulate at most k 11s (pruned immediately); at the
    leaf every vertex must occur and every non-edge pair must have at least
    k+1 of them.  Every returned word is re-verified; k < 0 raises
    ValueError before any search.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    counter = _Budget(budget.max_nodes)
    for length in range(G.n, budget.max_word_length + 1):
        w = _search_word(G, k, length, length, counter)
        if w is not None:
            return w
    return None


# -- non-isomorphic enumeration ----------------------------------------


def _canonical_masks(n: int, bits: int) -> list[int]:
    """Adjacency masks of the graph on n vertices whose packed upper-triangle
    bitstring is ``bits``: the pairs in ``combinations`` order, from the top."""
    adj = [0] * n
    bit = 1 << n * (n - 1) // 2
    for i, j in combinations(range(n), 2):
        bit >>= 1
        if bits & bit:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def graph_from_canonical_bits(n: int, bits: int) -> Graph:
    return Graph(_labels(n), tuple(_canonical_masks(n, bits)))


_BUILTIN_LIMIT = 8
_enum_cache: dict[int, list[int]] = {}


def _twin_classes(adj: Sequence[int]) -> list[int]:
    """``twins[v]``: the mask of v's twin class, the vertices whose
    neighbourhoods agree with v's apart from each other (v included).  The
    twins of a class are pairwise all adjacent or all not, so any
    permutation of a class is an automorphism."""
    return [sum(1 << u for u, b in enumerate(adj) if b & ~(1 << v) == a & ~(1 << u)) for v, a in enumerate(adj)]


def _automorphisms(adj: Sequence[int], twins: Sequence[int]) -> list[tuple[int, ...]]:
    """One automorphism of the graph with adjacency masks ``adj`` per coset
    of its twin-swap subgroup (the permutations of each of its twin classes
    ``twins``, as ``_twin_classes`` gives them), as image tuples (p[v] is
    the image of v): the one that maps each twin class onto its image in
    increasing order.  Every automorphism is exactly one of these followed
    by a permutation of each twin class.

    Images are assigned one vertex at a time, in order of degree, ties by
    index, each among the vertices of its degree.  Any colouring that
    automorphisms preserve would give the same maps, a finer one sooner: the
    group and the one map per coset picked here depend on the graph alone.
    Twins have equal degrees, so a vertex's lower twins are placed first; it
    maps to the vertex just above its next lower twin's image, in that
    image's twin class, which leaves one map per coset, as an automorphism
    maps each twin class onto a twin class.  A partial map is dropped as
    soon as the neighbours of v's image among the placed images are not the
    images of v's placed neighbours, so a map that places every vertex
    preserves every edge and non-edge.
    """
    n = len(adj)
    deg = [a.bit_count() for a in adj]
    order = sorted(range(n), key=deg.__getitem__)
    same_degree = [0] * n
    for v, d in enumerate(deg):
        same_degree[d] |= 1 << v
    out = []
    perm = [0] * n

    def rec(i: int, placed: int, image: int):
        if i == n:
            out.append(tuple(perm))
            return
        v = order[i]
        want = _image_mask(perm, adj[v] & placed)
        lower = twins[v] & (1 << v) - 1
        if lower:
            pu = perm[lower.bit_length() - 1]
            above = twins[pu] >> pu + 1 << pu + 1
            free = above & -above
        else:
            free = same_degree[deg[v]] & ~image
        while free:
            low = free & -free
            free ^= low
            pv = low.bit_length() - 1
            if adj[pv] & image == want:
                perm[v] = pv
                rec(i + 1, placed | 1 << v, image | low)

    rec(0, 0, 0)
    return out


# what ``_deletion_rule``'s ``keeps`` returns for an extension
_DROP, _TIED, _SOLE = 0, 1, 2


def _deletion_rule(adj: Sequence[int]) -> tuple[Callable[[int], int], Callable[[int], bytes]]:
    """``(keeps, invariant)`` for the one-vertex extensions of the graph H
    with adjacency masks ``adj``, the new vertex joined to the vertices of
    the non-empty mask ``nbh``.

    ``keeps(nbh)`` is ``_canonical_bits_upto``'s canonical-deletion test.
    It returns ``_DROP`` if the new vertex fails it, ``_SOLE`` if it is the
    child's only canonical deletion and ``_TIED`` if another vertex ties
    with it (both truthy).
    ``invariant(nbh)`` is the child's sorted (degree, neighbour-degree sum,
    triangles through the vertex) triples, one per vertex, flattened to
    bytes: isomorphic children have equal invariants.

    The tables are built once per H.  With d = nbh.bit_count(), a vertex w
    of H has degree deg(w) + [w in nbh] in the child, so it is lighter than
    the new vertex when ``below[d - 1] | equal[d - 1] & ~nbh`` holds it, and
    has its degree when ``equal[d - 1] & nbh | equal[d] & ~nbh`` does.  Its
    neighbour-degree sum in the child is its sum in H, plus one for each
    neighbour in nbh, plus d if it is in nbh: a larger sum beats the new
    vertex, an equal one ties with it.  It is not a cut vertex of the child
    exactly when nbh meets every component of H - w (then nbh - w is not
    empty, unless H is w alone).  A vertex w of H lies on ``tri[w]``
    triangles of H, plus, if it is in nbh, one with the new vertex for each
    neighbour in nbh; the new vertex lies on one for each edge inside nbh.
    """
    m = len(adj)
    deg = [a.bit_count() for a in adj]
    sums = [sum(deg[u] for u in iter_mask(a)) for a in adj]
    tri = [sum((adj[u] & a).bit_count() for u in iter_mask(a)) // 2 for a in adj]
    equal = [0] * (m + 1)
    for w, k in enumerate(deg):
        equal[k] |= 1 << w
    below = [0] * (m + 1)
    for k in range(1, m + 1):
        below[k] = below[k - 1] | equal[k - 1]
    every = (1 << m) - 1
    parts = [_components(adj, every ^ 1 << w) for w in range(m)]

    def eligible(group: int, nbh: int) -> bool:
        """Does the vertex mask ``group`` hold a vertex that is not a cut
        vertex of the child, the new vertex joined to ``nbh``?"""
        while group:
            low = group & -group
            group ^= low
            if all(nbh & part for part in parts[low.bit_length() - 1]):
                return True
        return False

    def keeps(nbh: int) -> int:
        d = nbh.bit_count()
        if eligible(below[d - 1] | equal[d - 1] & ~nbh, nbh):
            return _DROP
        same_degree = equal[d - 1] & nbh | equal[d] & ~nbh
        beats = ties = 0
        if same_degree:
            total = d
            rest = nbh
            while rest:
                low = rest & -rest
                rest ^= low
                total += deg[low.bit_length() - 1]
            while same_degree:
                low = same_degree & -same_degree
                same_degree ^= low
                w = low.bit_length() - 1
                s_w = sums[w] + (adj[w] & nbh).bit_count() + (d if nbh & low else 0)
                if s_w > total:
                    beats |= low
                elif s_w == total:
                    ties |= low
        if eligible(beats, nbh):
            return _DROP
        return _TIED if eligible(ties, nbh) else _SOLE

    def invariant(nbh: int) -> bytes:
        d = nbh.bit_count()
        total, edges, triples = d, 0, []
        for w, a in enumerate(adj):
            shared = (a & nbh).bit_count()
            if nbh >> w & 1:
                total += deg[w]
                edges += shared
                triples.append((deg[w] + 1, sums[w] + shared + d, tri[w] + shared))
            else:
                triples.append((deg[w], sums[w] + shared, tri[w]))
        triples.append((d, total, edges // 2))
        return bytes(x for triple in sorted(triples) for x in triple)

    return keeps, invariant


def _canonical_bits_upto(n: int) -> list[int]:
    """Sorted canonical bits of the connected graphs on n vertices, grown by
    the one-vertex extensions (``_children``) of the family on n - 1.

    Every connected graph has a vertex whose removal leaves it connected, so
    the family grows from connected parents alone, by a vertex with a
    non-empty neighbourhood, which is never a cut vertex of the child.

    Canonical deletion: an extension is kept only if its new vertex is one
    the child could have been grown from, that is, one that minimises the
    isomorphism invariant (degree, -sum of neighbour degrees) among the
    child's non-cut vertices.  Every class still appears.  Take a vertex v
    of a graph G that meets the rule: G - v is connected, so some parent H
    has an extension isomorphic to G with v as its new vertex, and it passes
    the rule, as degrees, neighbour-degree sums and cut vertices are
    invariant.  ``_deletion_rule`` decides the rule from tables of the
    parent, so only a child that passes is built and gets a form.
    """
    if n not in _enum_cache:
        _enum_cache[n] = [0] if n == 1 else sorted({
            canonical_form(_grown(adj, nbh))[1]
            for adj in (_canonical_masks(n - 1, bits) for bits in _canonical_bits_upto(n - 1))
            for nbh, _key in _children(n, adj)})
    return _enum_cache[n]


def _children(n: int, adj: Sequence[int]) -> Iterator[tuple[int, Optional[bytes]]]:
    """``(nbh, key)`` for each extension of the connected parent H with
    adjacency masks ``adj`` on n - 1 vertices that the growth keeps
    (``_canonical_bits_upto``): the new vertex n - 1 joined to the mask
    ``nbh``, and None if the new vertex is the child's only canonical
    deletion (``_SOLE``: a sole child), else the child's invariant
    (``_deletion_rule``'s ``invariant``: a tied child).  The child is left
    to the caller (``_grown``).

    Orbits: an automorphism of H extends to an isomorphism of the children
    that fixes the new vertex, so the masks of one orbit give isomorphic
    children, and the deletion rule passes or fails them all.  Only the
    smallest mask of each orbit is kept.

    Met once: grown from pairwise non-isomorphic parents, a sole child's
    class is met once in the whole growth of its level, here.  Suppose an
    isomorphism phi maps another kept extension (H', nbh') onto this child
    G.  Then phi maps the new vertex of (H', nbh') to a non-cut minimiser of
    G, which is unique: it is G's new vertex.  So H' is isomorphic to H,
    hence H' = H, and phi restricted to H is an automorphism taking nbh' to
    nbh.  One mask per orbit is kept, so nbh' = nbh.  A tied child whose
    invariant no other kept child of the level has is met once too, as
    isomorphic children have equal invariants.

    Twins: orbits are taken modulo twins.  Only twin-canonical masks are
    listed: those that hold, of each twin class (``_twin_classes``), its
    lowest vertices.  Swapping twins moves a mask within its orbit, to a
    smaller mask when it brings in a lower twin, so the smallest mask of an
    orbit is twin-canonical, and the twin-canonical masks of an orbit are
    the images of any one of them under ``_automorphisms``' coset
    representatives.  These map each twin class onto its image in
    increasing order, so the image of a twin-canonical mask is
    twin-canonical as it stands."""
    twins = _twin_classes(adj)
    identity = tuple(range(n - 1))
    # the identity maps a mask onto itself, which the loop has passed
    autos = [p for p in _automorphisms(adj, twins) if p != identity]
    keeps, invariant = _deletion_rule(adj)
    masks = [0]  # the twin-canonical masks: the lowest k of each twin class
    for cls in set(twins):
        masks += [m | cls & (2 << v) - 1 for m in masks for v in iter_mask(cls)]
    seen = set()
    # ascending order: the first mask met in an orbit is its smallest; the
    # empty mask would disconnect the child
    for nbh in sorted(masks)[1:]:
        if nbh in seen:
            continue
        rule = keeps(nbh)
        if not rule:
            continue
        seen.update(_image_mask(p, nbh) for p in autos)
        yield nbh, None if rule == _SOLE else invariant(nbh)


def _grown(adj: Sequence[int], nbh: int) -> Graph:
    """The graph with adjacency masks ``adj`` and a new last vertex joined
    to the vertices of the mask ``nbh``."""
    n = len(adj)
    child = [m | (nbh >> v & 1) << n for v, m in enumerate(adj)]
    child.append(nbh)
    return Graph(_labels(n + 1), tuple(child))


def enumerate_nonisomorphic(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class, deterministic canonical order.

    Only the connected graphs are grown (``_canonical_bits_upto``).  The
    complement of a disconnected graph is connected, so the other classes
    are the complements of the connected graphs whose complement is
    disconnected, each met once."""
    if n < 1 or n > _BUILTIN_LIMIT:
        raise ValueError(f"built-in generator supports 1 <= n <= {_BUILTIN_LIMIT}")
    forms = _canonical_bits_upto(n)
    if not connected_only:
        every = (1 << n) - 1
        complements = (tuple(every ^ 1 << v ^ a for v, a in enumerate(_canonical_masks(n, bits))) for bits in forms)
        forms = sorted(forms + [canonical_form(Graph(_labels(n), masks))[1]
                                for masks in complements if not _induces_connected(masks, every)])
    for bits in forms:
        yield graph_from_canonical_bits(n, bits)


# -- census ------------------------------------------------------------


@dataclass(frozen=True)
class CensusResult:
    n: int
    examined: int
    non_word_representable: tuple[Graph, ...]


def _full_orientation(n: int, bits: int) -> Optional[tuple[int, ...]]:
    """The successor masks that ``search_semi_transitive`` finds for the
    graph with canonical bits ``bits`` on n vertices, or None."""
    D = search_semi_transitive(graph_from_canonical_bits(n, bits))
    return None if D is None else D.succ


def _full_orientations(n: int, forms: list[int], jobs: int) -> list[Optional[tuple[int, ...]]]:
    """``_full_orientation`` of each form, in order, in worker processes only
    when more than one would get a chunk of 16 forms: at most ``jobs``, one
    per chunk and one per CPU this process may run on (its affinity mask, or
    ``os.cpu_count()``), as under ``fork`` an executor starts all its
    workers on the first submit.  The executor is imported only to build
    one, as it loads ``multiprocessing`` and some 30 other modules."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(jobs, cpus, -(-len(forms) // 16))
    if workers < 2:
        return [_full_orientation(n, bits) for bits in forms]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_full_orientation, [n] * len(forms), forms, chunksize=16))


def _census_result(n: int, verdicts: dict[int, bool], skipped: int = 0) -> CensusResult:
    """The census of the canonical forms in ``verdicts`` (form: is it word-
    representable?) and of ``skipped`` more word-representable graphs,
    sorted by canonical form, so that the result is identical across worker
    counts."""
    bad = tuple(graph_from_canonical_bits(n, bits) for bits in sorted(verdicts) if not verdicts[bits])
    return CensusResult(n=n, examined=len(verdicts) + skipped, non_word_representable=bad)


def _sink_is_semi_transitive(adj: Sequence[int], desc: Sequence[int], anc: Sequence[int], nbh: int) -> bool:
    """Is the semi-transitive orientation with strict descendant and
    ancestor masks ``desc`` and ``anc``, of the graph with adjacency masks
    ``adj``, still semi-transitive once a new vertex v is joined to the
    non-empty mask ``nbh`` as a sink, by an arc x->v from each x in nbh?

    With U = nbh | anc(nbh), the vertices that reach v, it is exactly when
    ``desc[x] & ((U & ~nbh) | (nbh & ~adj[x])) == 0`` for every x in nbh.
    The new orientation is acyclic, as v has no out-arc; v reaches nothing,
    and an old vertex reaches what it reached before, and v if it is in U.
    By ``orient``'s reachability definition, it is semi-transitive when, on
    every arc a->b, any two comparable vertices among a, b and those
    between them (``desc[a] & anc[b]``) are adjacent.

    - On an old arc a->b, v does not reach b, so it is not between a and
      b; the vertices between, and reachability among them, are as before,
      where there was no shortcut.
    - On an arc x->v, the vertices between are x, v and ``desc[x] & U``.
      Each of them but v reaches v, so each must be a neighbour of v:
      ``desc[x] & U & ~nbh == 0``.  Then the old ones are x and ``desc[x]
      & nbh``, and every comparable pair of them must be adjacent: x with
      each y in ``desc[x] & nbh``, the second term; and a pair y ~> z
      inside ``desc[x] & nbh``, which the second term for y covers, as z
      is in ``desc[y] & nbh``.
    """
    above = rest = nbh
    while rest:
        low = rest & -rest
        rest ^= low
        above |= anc[low.bit_length() - 1]
    outside = above & ~nbh
    rest = nbh
    while rest:
        low = rest & -rest
        rest ^= low
        x = low.bit_length() - 1
        if desc[x] & (outside | nbh & ~adj[x]):
            return False
    return True


def _extend(child: Graph, nbh: int, start) -> Optional[Orientation]:
    """The orientation of ``child`` that ``_search`` finds for the edges of
    its new vertex, joined to the mask ``nbh``, on top of the parent's
    orientation and reachability ``start``, with the full search's rule
    ``_kernels.shortcut_in``, checked as a search's result is, or None.

    The new vertex as a sink is decided first, by one mask test
    (``_sink_is_semi_transitive``), and ``_search`` runs only if it fails.
    That orientation is the search's first leaf: on each new edge u-v, u
    old, it tries u->v first.  The search returns it exactly when it is
    semi-transitive: a forced shortcut on the arcs of a prefix is one in
    the whole orientation, which has the prefix's arcs and paths, and a
    search that rejects no arc ends at a semi-transitive orientation.  So
    the orientation returned is the search's, either way."""
    succ, desc, anc = start
    v = child.n - 1
    if _sink_is_semi_transitive(child.adj, desc, anc, nbh):
        return Orientation(child, tuple(s | (nbh >> u & 1) << v for u, s in enumerate(succ)))
    edges = [(u, v) for u in iter_mask(nbh)]
    found = _search(child, None, _kernels.shortcut_in, (*start, edges))
    return None if found is None else Orientation(child, tuple(found))


def _refuted_deletion(n: int, form: int, refuted: dict[tuple[int, ...], set[int]]) -> Optional[int]:
    """The form of a connected one-vertex deletion of the graph with
    canonical bits ``form`` on n vertices that ``refuted`` holds ({sorted
    degree sequence: forms on n - 1 vertices}), or None.  Deleting v shifts
    the mask bits above v down; only a deletion whose degree sequence is a
    key becomes a ``Graph``, for its canonical form.

    Connected deletions suffice.  If G is connected and G - v is
    disconnected and not word-representable, one of its components C is not
    (disjoint unions of word-representable graphs are word-representable).
    C + v is connected and misses a vertex of G, so a spanning tree of G
    that extends one of C + v has a leaf w outside C + v: G - w is connected
    and induces C."""
    adj = _canonical_masks(n, form)
    every = (1 << n) - 1
    for v in range(n):
        keep = every ^ 1 << v
        degrees = tuple(sorted((a & keep).bit_count() for u, a in enumerate(adj) if u != v))
        candidates = refuted.get(degrees)
        if candidates and _induces_connected(adj, keep):
            masks = tuple(a & (1 << v) - 1 | a >> v + 1 << v for u, a in enumerate(adj) if u != v)
            deletion = canonical_form(Graph(_labels(n - 1), masks))[1]
            if deletion in candidates:
                return deletion
    return None


def _level_children(n: int, parents: list) -> Iterator[int]:
    """Each kept child (``_children``) of the representatives ``parents``
    of level n - 1, as one int, ``(i << n | nbh) << 1 | unique``: the index
    i of its parent, the mask nbh of its new vertex's neighbours, and
    whether it is met once in the level (``_children``).  Sole children
    come as they are grown.  A tied child waits, the first with its
    invariant in a dict keyed by it (unique until another child has that
    invariant), the others in a list.  After the last parent the dict is
    freed, and the tied children follow in parent order: their ints,
    sorted."""
    first: dict[bytes, int] = {}
    tied: list[int] = []
    for i, (adj, _succ) in enumerate(parents):
        for nbh, key in _children(n, adj):
            c = (i << n | nbh) << 1
            if key is None:
                yield c | 1
            elif key in first:
                first[key] &= ~1
                tied.append(c)
            else:
                first[key] = c | 1
    tied += first.values()
    del first
    tied.sort()
    yield from tied


def _grown_verdicts(n: int, jobs: int) -> tuple[dict[int, tuple[bool, Optional[tuple[int, ...]]]], int]:
    """Decide the connected graphs on n >= 1 vertices while growing them
    level by level from the one-vertex graph: ``({form: (word-
    representable?, parent)}, skipped)`` for level n, where ``parent`` is
    the adjacency masks of the graph on n - 1 vertices that decided the
    form, and ``skipped`` counts the word-representable graphs decided
    without a form (at n = 1, the one-vertex graph).

    Each level grows from the level below's representatives: one graph per
    class, as adjacency masks in its own labelling, with the successor
    masks of the semi-transitive orientation that decided it, or None if it
    was refuted.  Growth needs only pairwise non-isomorphic parents
    (``_children``), so no parent needs a form or a second search.  Each
    child is decided, in its parent's labelling, as ``_level_children``
    yields it:

    - a child met once, of a word-representable parent, is extended
      (``_extend``): on success it is counted in ``skipped``, else its form
      is left open;
    - any other child is decided when its form is first met.  A child of a
      refuted parent is a "no", as the parent is an induced subgraph
      (word-representability is hereditary): ``(False, parent)``.  The
      refuted parents come first, so that such a child skips an extension
      that would fail.  Else it is extended: ``(True, parent)``, or its form
      is left open and tried again where it is met next.

    An open form with a refuted connected one-vertex deletion
    (``_refuted_deletion``) is ``(False, deletion)``, by the deletion's
    canonical masks, which are its representative's.  The forms left, the
    minimal non-word-representable graphs and the word-representable forms
    that no extension decided, get a full search each, ``(verdict, None)``,
    so a failed extension never counts as a "no".  Only these may run in
    worker processes, so the verdicts do not depend on ``jobs``.
    """
    parents = [((0,), (0,))]  # the one-vertex graph, with its empty orientation,
    verdicts, skipped = {}, 1  # counted without a form
    refuted: dict[tuple[int, ...], set[int]] = {}  # {sorted degree sequence: forms}
    for m in range(2, n + 1):
        keep = m < n
        verdicts, skipped, grown, last = {}, 0, [], None  # verdict None: open
        every = (1 << m) - 1
        for c in _level_children(m, parents):
            i, nbh = c >> m + 1, c >> 1 & every
            adj, succ = parents[i]
            if i != last and succ is not None:
                desc, anc = _reachability(succ)
                start = (*succ, 0), desc + [0], anc + [0]
                last = i
            child = _grown(adj, nbh)
            if c & 1 and succ is not None:
                D = _extend(child, nbh, start)
                if D is None:
                    verdicts[canonical_form(child)[1]] = None  # met nowhere else
                else:
                    skipped += 1
            else:
                form = canonical_form(child)[1]
                if verdicts.get(form) is not None:
                    continue
                if succ is None:
                    verdicts[form] = (False, adj)
                    continue
                D = _extend(child, nbh, start)
                verdicts[form] = None if D is None else (True, adj)
            if keep and D is not None:
                grown.append((child.adj, D.succ))
        still_open = []
        for form in sorted(form for form, verdict in verdicts.items() if verdict is None):
            deletion = _refuted_deletion(m, form, refuted)
            if deletion is None:
                still_open.append(form)
            else:
                verdicts[form] = (False, tuple(_canonical_masks(m - 1, deletion)))
        for form, succ in zip(still_open, _full_orientations(m, still_open, jobs)):
            verdicts[form] = (succ is not None, None)
            if keep and succ is not None:
                grown.append((tuple(_canonical_masks(m, form)), succ))
        if keep:
            parents, refuted = [], {}
            for form, (ok, _parent) in verdicts.items():
                if not ok:
                    masks = tuple(_canonical_masks(m, form))
                    parents.append((masks, None))
                    refuted.setdefault(tuple(sorted(a.bit_count() for a in masks)), set()).add(form)
            parents += grown
    return verdicts, skipped


def census_non_word_representable(n: int, jobs: int = 1) -> CensusResult:
    """Classify all connected graphs on n vertices by word-representability,
    deciding them as they are grown (``_grown_verdicts``).

    Results are sorted by canonical form, so output is identical across
    worker counts.
    """
    if not 1 <= n <= _BUILTIN_LIMIT:
        raise ValueError(f"census supports 1 <= n <= {_BUILTIN_LIMIT}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    verdicts, skipped = _grown_verdicts(n, jobs)
    return _census_result(n, {form: ok for form, (ok, _parent) in verdicts.items()}, skipped)


def census_from_graph6(lines, jobs: int = 1) -> CensusResult:
    """Census over an externally supplied graph6 stream (deduplicated), a
    full search per graph.

    Blank lines and a bare ``>>graph6<<`` header line are skipped; the
    header may also prefix a graph's line.  Any other line, another format's
    header included, must parse as graph6."""
    from .graph6 import HEADER, parse_graph6

    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    forms = set()
    n_seen = set()
    for line in lines:
        line = line.strip()
        if not line or line == HEADER:
            continue
        G = parse_graph6(line)
        n_seen.add(G.n)
        forms.add(canonical_form(G)[1])
    if len(n_seen) > 1:
        raise ValueError("graph6 stream mixes vertex counts")
    n = next(iter(n_seen)) if n_seen else 0
    forms = sorted(forms)
    found = _full_orientations(n, forms, jobs)
    return _census_result(n, {bits: succ is not None for bits, succ in zip(forms, found)})


# -- chromatic number --------------------------------------------------


def chromatic_number(G: Graph) -> int:
    """Exact minimum proper-coloring size (branch and bound, n <= 16)."""
    if G.n > 16:
        raise ValueError("chromatic_number supports n <= 16")
    if G.n == 0:
        return 0
    order = sorted(range(G.n), key=lambda i: -G.degree(i))

    def colorable(kc: int) -> bool:
        colors = [-1] * G.n

        def rec(pos: int) -> bool:
            if pos == G.n:
                return True
            v = order[pos]
            used = {colors[u] for u in iter_mask(G.adj[v]) if colors[u] >= 0}
            highest = max((colors[order[p]] for p in range(pos)), default=-1)
            for c in range(kc):
                if c in used:
                    continue
                colors[v] = c
                if rec(pos + 1):
                    return True
                colors[v] = -1
                if c > highest:  # fresh colors are interchangeable
                    break
            return False

        return rec(0)

    for kc in range(1, G.n + 1):
        if colorable(kc):
            return kc
    raise AssertionError("unreachable")
