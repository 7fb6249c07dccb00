"""Exhaustive and backtracking search: representability decisions, word
witness search, non-isomorphic graph enumeration, and the small-graph
census of non-word-representable graphs.

"Unknown" (budget exhausted) is a first-class outcome, raised as
BudgetExceeded and never conflated with "nonexistent".
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    Graph, Word, _components, _induces_connected, _refined_classes, canonical_form, iter_mask,
)
from . import _kernels
from .orient import Orientation, _Budget, _reachability, _search, search_semi_transitive
from .verify import verify_k11


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
    G: Graph, k: int, length: int, quota: Optional[int], counter: _Budget
) -> Optional[Word]:
    """Backtracking search for a k-11-representant of G with ``length``
    letters, at most ``quota`` copies of each (None: no limit).

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

    if rec(n):
        w = Word(G.labels, tuple(word))
        if not verify_k11(w, G, k):  # self-verification gate
            raise AssertionError("word search produced an invalid word")
        return w
    return None


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

    Each length runs ``_search_word`` without a quota, on one counter.
    Edge pairs may accumulate at most k 11s (pruned immediately); at the
    leaf every vertex must occur and every non-edge pair must have at least
    k+1 of them.  Every returned word is re-verified; k < 0 raises
    ValueError before any search.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    counter = _Budget(budget.max_nodes)
    for length in range(G.n, budget.max_word_length + 1):
        w = _search_word(G, k, length, None, counter)
        if w is not None:
            return w
    return None


# -- non-isomorphic enumeration ----------------------------------------


@lru_cache(maxsize=16)
def _bit_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """``pairs[b]``: the vertex pair (i, j), i < j, of bit b (counted from the
    least significant) in an n-vertex upper-triangle bitstring."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple(reversed(pairs))


def _canonical_masks(n: int, bits: int) -> list[int]:
    """Adjacency masks of the graph on n vertices whose packed upper-triangle
    bitstring (pair (0, 1) most significant) is ``bits``."""
    adj = [0] * n
    pairs = _bit_pairs(n)
    while bits:
        low = bits & -bits
        bits ^= low
        i, j = pairs[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def graph_from_canonical_bits(n: int, bits: int) -> Graph:
    return Graph(tuple(str(i + 1) for i in range(n)), tuple(_canonical_masks(n, bits)))


_BUILTIN_LIMIT = 8
_enum_cache: dict[tuple[int, bool], list[int]] = {}


def _image_mask(perm: Sequence[int], mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << perm[low.bit_length() - 1]
    return out


def _automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of G as an image tuple (p[v] is the image of v).

    Images are assigned one vertex at a time, class by class in
    ``_refined_classes`` order: an automorphism preserves the refined
    colours, so v maps into its own class.  A partial map is dropped as soon
    as it breaks an adjacency among the vertices already placed, that is,
    when the neighbours of v's image among the placed images are not the
    images of v's placed neighbours.  A map that places every vertex this
    way preserves every edge and non-edge.
    """
    n = G.n
    adj = G.adj
    order = []
    class_mask = [0] * n
    for cls in _refined_classes(G):
        mask = sum(1 << v for v in cls)
        order += cls
        for v in cls:
            class_mask[v] = mask
    out = []
    perm = [0] * n

    def rec(i: int, placed: int, image: int):
        if i == n:
            out.append(tuple(perm))
            return
        v = order[i]
        want = _image_mask(perm, adj[v] & placed)
        free = class_mask[v] & ~image
        while free:
            low = free & -free
            free ^= low
            pv = low.bit_length() - 1
            if adj[pv] & image == want:
                perm[v] = pv
                rec(i + 1, placed | 1 << v, image | low)

    rec(0, 0, 0)
    return out


# what ``_deletion_rule``'s ``keeps`` returns: drop the extension, keep it
# while another vertex ties with the new one, or keep it as the only minimiser
_DROP, _TIED, _SOLE = 0, 1, 2


def _deletion_rule(adj: Sequence[int], connected: bool) -> Callable[[int], int]:
    """The canonical-deletion test for the one-vertex extensions of the
    graph H with adjacency masks ``adj``: ``keeps(nbh)`` tells whether the
    new vertex, joined to the vertices of the mask ``nbh``, minimises
    (degree, -sum of its neighbours' degrees) among the child's vertices (if
    ``connected``: among the child's non-cut vertices).  It returns
    ``_DROP`` if it does not, ``_SOLE`` if it is the only such minimiser and
    ``_TIED`` if another vertex ties with it; both keeps are truthy.

    The tables are built once per H.  With d = nbh.bit_count(), a vertex w
    of H has degree deg(w) + [w in nbh] in the child, so it is lighter than
    the new vertex when ``below[d - 1] | equal[d - 1] & ~nbh`` holds it, and
    has its degree when ``equal[d - 1] & nbh | equal[d] & ~nbh`` does.  Its
    neighbour-degree sum in the child is its sum in H, plus one for each
    neighbour in nbh, plus d if it is in nbh: a larger sum beats the new
    vertex, an equal one ties with it.  It is not a cut vertex of the child
    exactly when nbh meets every component of H - w (then nbh - w is not
    empty, unless H is w alone).
    """
    m = len(adj)
    deg = [a.bit_count() for a in adj]
    sums = [sum(deg[u] for u in iter_mask(a)) for a in adj]
    equal = [0] * (m + 1)
    for w, k in enumerate(deg):
        equal[k] |= 1 << w
    below = [0] * (m + 1)
    for k in range(1, m + 1):
        below[k] = below[k - 1] | equal[k - 1]
    every = (1 << m) - 1
    parts = [_components(adj, every ^ 1 << w) for w in range(m)] if connected else None

    def eligible(group: int, nbh: int) -> bool:
        """Does the vertex mask ``group`` hold a vertex that the rule ranks
        against the new vertex joined to ``nbh``: any vertex, or if
        ``connected``, one that is not a cut vertex of the child?"""
        if not connected:
            return group != 0
        while group:
            low = group & -group
            group ^= low
            if all(nbh & part for part in parts[low.bit_length() - 1]):
                return True
        return False

    def keeps(nbh: int) -> int:
        d = nbh.bit_count()
        if not d:
            # only isolated vertices tie with it, all at sum 0
            return _TIED if equal[0] else _SOLE
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

    return keeps


def _canonical_bits_upto(n: int, connected: bool) -> list[int]:
    """Sorted canonical bits of the graphs on n vertices (connected ones only
    if ``connected``), grown by one-vertex extensions of the family on n - 1.

    Every connected graph has a vertex whose removal leaves it connected, so
    the connected family grows from connected parents alone, by a vertex with
    a non-empty neighbourhood.  Extensions by masks that an automorphism of
    the parent maps onto each other are isomorphic; only the smallest mask of
    each orbit is canonicalized.

    Canonical deletion: an extension is kept only if its new vertex is one
    the child could have been grown from, that is, one that minimises the
    isomorphism invariant (degree, -sum of neighbour degrees) among the
    child's vertices (in the connected family: among the child's non-cut
    vertices; the new vertex is never a cut vertex, as its parent is
    connected).  Every class still appears.  Take a vertex v of a graph G
    that meets the rule: G - v is in the parent family (connected when v is
    not a cut vertex), so some parent H has an extension isomorphic to G
    with v as its new vertex, and it passes the filter, as degrees,
    neighbour-degree sums and cut vertices are invariant.  Orbit pruning
    keeps this: an automorphism of H extends to an isomorphism of the
    children that fixes the new vertex, so the filter passes or fails a
    whole orbit at once.  ``_deletion_rule`` decides the filter for each
    mask from degree, neighbour-degree-sum and component tables built once
    per parent, so only a child that passes gets a mask list, a ``Graph``
    and a canonical form.

    When the full family on n is already built, the connected one is read
    off it instead.
    """
    key = (n, connected)
    if key in _enum_cache:
        return _enum_cache[key]
    if connected and (n, False) in _enum_cache:
        every = (1 << n) - 1
        forms = [b for b in _enum_cache[n, False] if _induces_connected(_canonical_masks(n, b), every)]
    elif n == 1:
        forms = [0]
    else:
        forms = sorted({canonical_form(child)[1] for bits in _canonical_bits_upto(n - 1, connected)
                        for _nbh, child, _sole in _children(n, bits, connected)})
    _enum_cache[key] = forms
    return forms


def _children(n: int, bits: int, connected: bool) -> Iterator[tuple[int, Graph, bool]]:
    """``(nbh, child, sole)`` for each extension of the parent with canonical
    bits ``bits`` on n - 1 vertices that ``_canonical_bits_upto`` keeps: the
    new vertex n - 1 joined to the mask ``nbh``, the child in the parent's
    labelling, and whether the new vertex is the child's only canonical
    deletion (``_deletion_rule`` gives ``_SOLE``).

    A sole child's class is met once in the whole growth of the level, here.
    Suppose an isomorphism phi maps another kept extension (H', nbh') onto
    this child G.  Then phi maps the new vertex of (H', nbh') to a minimiser
    of G (a non-cut one, in the connected family), which is unique: it is
    G's new vertex.  So H' is isomorphic to this parent H, hence H' = H, as
    the parents are distinct canonical forms, and phi restricted to H is an
    automorphism taking nbh' to nbh.  Orbit pruning keeps one mask per
    orbit, so nbh' = nbh."""
    base = graph_from_canonical_bits(n - 1, bits)
    labels = tuple(str(i + 1) for i in range(n))
    identity = tuple(range(n - 1))
    # the identity maps a mask onto itself, which the loop has passed
    autos = [p for p in _automorphisms(base) if p != identity]
    keeps = _deletion_rule(base.adj, connected)
    seen = set()
    # ascending order: the first mask met in an orbit is its smallest
    for nbh in range(1 if connected else 0, 1 << (n - 1)):
        if nbh in seen:
            continue
        rule = keeps(nbh)
        if not rule:
            continue
        seen.update(_image_mask(p, nbh) for p in autos)
        child = [m | (nbh >> v & 1) << (n - 1) for v, m in enumerate(base.adj)]
        child.append(nbh)
        yield nbh, Graph(labels, tuple(child)), rule == _SOLE


def enumerate_nonisomorphic(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class, deterministic canonical order."""
    if n < 1 or n > _BUILTIN_LIMIT:
        raise ValueError(f"built-in generator supports 1 <= n <= {_BUILTIN_LIMIT}")
    for bits in _canonical_bits_upto(n, connected_only):
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


def _full_orientations(n: int, forms: list[int], pool) -> list[Optional[tuple[int, ...]]]:
    """``_full_orientation`` of each form, in order, in ``pool`` if any."""
    if pool is None:
        return [_full_orientation(n, bits) for bits in forms]
    return list(pool.map(_full_orientation, [n] * len(forms), forms, chunksize=16))


def _pool(jobs: int):
    """A pool of ``jobs`` worker processes, or, for one job, no pool (None)."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()


def _census_result(n: int, verdicts: dict[int, bool]) -> CensusResult:
    """The census of the canonical forms in ``verdicts`` (form: is it word-
    representable?), sorted by canonical form, so that the result is
    identical across worker counts."""
    bad = tuple(graph_from_canonical_bits(n, bits) for bits in sorted(verdicts) if not verdicts[bits])
    return CensusResult(n=n, examined=len(verdicts), non_word_representable=bad)


def _census(n: int, forms: list[int], jobs: int) -> CensusResult:
    """Decide each canonical form by a full search."""
    with _pool(jobs) as pool:
        found = _full_orientations(n, forms, pool)
    return _census_result(n, {bits: succ is not None for bits, succ in zip(forms, found)})


def _extend(child: Graph, nbh: int, start) -> Optional[Orientation]:
    """The orientation of ``child`` that ``add_arc`` finds for the edges of
    its new vertex, joined to the mask ``nbh``, on top of the parent's
    orientation and reachability ``start``, checked as a search's result
    is, or None."""
    edges = [(v, child.n - 1) for v in iter_mask(nbh)]
    succ = _search(child, None, _kernels.add_arc, (*start, edges))
    return None if succ is None else Orientation(child, tuple(succ))


def _grown_verdicts(n: int, jobs: int) -> tuple[dict[int, tuple[bool, Optional[int]]], int]:
    """Decide the connected graphs on n >= 2 vertices while growing them from
    those on n - 1: ``({form: (word-representable?, parent)}, skipped)``,
    where ``skipped`` counts the word-representable children decided without
    a form.

    Each parent gets one full search.  A child, in its parent's labelling,
    is decided when it is met:

    - a sole child of a word-representable parent (``_children``: no other
      kept extension is isomorphic to it) is first extended: the new
      vertex's edges are oriented by ``add_arc`` on top of the parent's
      orientation.  Success is a semi-transitive orientation, counted in
      ``skipped``, and the child needs no canonical form, as its class is met
      nowhere else.  On failure its form is left open, without a second
      try;
    - every other child is decided when its form is first met.  Grown from
      a refuted parent, it is not word-representable, as the parent is an
      induced subgraph (word-representability is hereditary): ``(False,
      parent)``.  Else it is extended as above: ``(True, parent)`` on
      success; on failure the form is left open, and tried again where it
      is met next.

    The forms still open are decided by a full search each: ``(verdict,
    None)``.  A failed extension never counts as a "no".  The parents and
    the open forms are searched in the pool, so the verdicts, which follow
    the parents' canonical order, do not depend on ``jobs``.
    """
    parents = _canonical_bits_upto(n - 1, True)
    verdicts = {}
    skipped = 0
    forms = set()
    with _pool(jobs) as pool:
        for bits, found in zip(parents, _full_orientations(n - 1, parents, pool)):
            if found is not None:
                desc, anc = _reachability(found)
                start = (*found, 0), desc + [0], anc + [0]
            for nbh, child, sole in _children(n, bits, True):
                if sole and found is not None:
                    if _extend(child, nbh, start) is not None:
                        skipped += 1
                    else:
                        forms.add(canonical_form(child)[1])  # open: met nowhere else
                    continue
                form = canonical_form(child)[1]
                forms.add(form)
                if form in verdicts:
                    continue
                if found is None:
                    verdicts[form] = (False, bits)
                elif _extend(child, nbh, start) is not None:
                    verdicts[form] = (True, bits)
        still_open = sorted(forms.difference(verdicts))
        for bits, found in zip(still_open, _full_orientations(n, still_open, pool)):
            verdicts[bits] = (found is not None, None)
    return verdicts, skipped


def census_non_word_representable(n: int, jobs: int = 1) -> CensusResult:
    """Classify all connected graphs on n vertices by word-representability,
    deciding them as they are grown (``_grown_verdicts``).

    Results are sorted by canonical form, so output is identical across
    worker counts.  The children counted without a form are all word-
    representable, so they add to ``examined`` only.
    """
    if not 1 <= n <= _BUILTIN_LIMIT:
        raise ValueError(f"census supports 1 <= n <= {_BUILTIN_LIMIT}")
    if n == 1:
        return _census(1, [0], jobs)
    verdicts, skipped = _grown_verdicts(n, jobs)
    result = _census_result(n, {form: ok for form, (ok, _parent) in verdicts.items()})
    return replace(result, examined=result.examined + skipped)


def census_from_graph6(lines, jobs: int = 1) -> CensusResult:
    """Census over an externally supplied graph6 stream (deduplicated).

    Blank lines and a bare ``>>graph6<<`` header line are skipped; the
    header may also prefix a graph's line.  Any other line, another format's
    header included, must parse as graph6."""
    from .graph6 import HEADER, parse_graph6

    forms = set()
    n_seen = set()
    for line in lines:
        line = line.strip()
        if not line or line == HEADER:
            continue
        G = parse_graph6(line)
        n_seen.add(G.n)
        forms.add(canonical_form(G))
    if len(n_seen) > 1:
        raise ValueError("graph6 stream mixes vertex counts")
    n = next(iter(n_seen)) if n_seen else 0
    return _census(n, sorted(bits for _, bits in forms), jobs)


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
