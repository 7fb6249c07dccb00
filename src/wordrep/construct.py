"""Representant constructions, each self-verified before being returned.

No constructor ever hands back an unverified word: every output is run
through verify_k11 against its target graph at the claimed level, and a
failure raises ConstructionError (meaning the caller's preconditions were
not actually met, or there is a bug here).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Optional, Sequence

from .core import (
    Graph,
    Permutation,
    Word,
    check_permutation,
    cycle_graph,
    initial_permutation,
    reverse,
)
from .orient import Orientation, is_transitive, search_transitive
from .verify import graph_of_word, uniformity, verify_k11


class ConstructionError(RuntimeError):
    """Self-verification of a constructed word failed."""


def _verified(word: Word, target: Graph, k: int) -> Word:
    verdict = verify_k11(word, target, k)
    if not verdict:
        raise ConstructionError(
            f"constructed word failed verification at k={k}: witness {verdict.witness}"
        )
    return word


# -- three permutations ------------------------------------------------


def three_perm_graph(p1: Permutation, p2: Permutation, p3: Permutation) -> Graph:
    """The graph that the concatenation p1 p2 p3 1-11-represents.

    x and y are non-adjacent exactly when p1 and p3 order them the same
    way while p2 orders them oppositely.
    """
    for p in (p1, p2, p3):
        check_permutation(p)
    if not (p1.alphabet == p2.alphabet == p3.alphabet):
        raise ValueError("permutations must share an alphabet")
    n = len(p1.alphabet)
    pos = [[0] * n for _ in range(3)]
    for t, p in enumerate((p1, p2, p3)):
        for slot, a in enumerate(p.letters):
            pos[t][a] = slot
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            same13 = (pos[0][i] < pos[0][j]) == (pos[2][i] < pos[2][j])
            opp2 = (pos[0][i] < pos[0][j]) != (pos[1][i] < pos[1][j])
            if not (same13 and opp2):
                pairs.append((i, j))
    return Graph.from_index_edges(p1.alphabet, pairs)


# -- doubling ----------------------------------------------------------


def double_word(w: Word, variant: Literal["ww", "rpw"] = "ww") -> Word:
    """Turn a 0-11-representant into a 1-11-representant: ww or r(pi(w))w."""
    target = graph_of_word(w, 0)
    if variant == "ww":
        out = w.concat(w)
    elif variant == "rpw":
        out = reverse(initial_permutation(w)).concat(w)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _verified(out, target, 1)


# -- edge-set removal --------------------------------------------------


def remove_edge_sets(
    G: Graph,
    w: Word,
    parts: Sequence[Sequence[str]],
    short: bool = False,
) -> Word:
    """1-11-representant of G minus all edges internal to each part.

    Requires a uniform word-representant w of G.  Builds
    W = P1 P2 pi(w) w w where P1 lists the parts then the rest R, each in
    pi(w) order, and P2 lists each part reversed then R.  With ``short``
    the pi(w) block is dropped (W = P1 P2 w w); both forms verify.
    """
    if set(w.alphabet) != set(G.labels):
        raise ValueError("word alphabet does not match graph vertices")
    if uniformity(w) is None:
        raise ValueError("word is not uniform")
    if not verify_k11(w, G, 0):
        raise ValueError("word does not 0-11-represent the graph")
    part_of: dict[str, int] = {}
    for p, part in enumerate(parts):
        if any(part_of.get(lab, p) != p for lab in part):
            raise ValueError("parts are not pairwise disjoint")
        for lab in part:
            G.idx(lab)
            part_of[lab] = p

    pi = initial_permutation(w)
    ordered_parts: list[list[str]] = [[] for _ in parts]
    rest = []
    for lab in pi.label_seq():
        if lab in part_of:
            ordered_parts[part_of[lab]].append(lab)
        else:
            rest.append(lab)

    p1 = Word.from_labels(w.alphabet, [lab for part in ordered_parts for lab in part] + rest)
    p2 = Word.from_labels(
        w.alphabet, [lab for part in ordered_parts for lab in reversed(part)] + rest
    )
    if short:
        out = p1.concat(p2, w, w)
    else:
        out = p1.concat(p2, pi, w, w)

    H = Graph.from_edges(G.labels, [
        (u, v) for u, v in G.edge_labels() if u not in part_of or part_of[u] != part_of.get(v)
    ])
    return _verified(out, H, 1)


def remove_matching(H: Graph, matching: Sequence[tuple[str, str]], w: Word, short: bool = False) -> Word:
    """1-11-representant of H, given a uniform representant of H plus a matching."""
    used: set[str] = set()
    for u, v in matching:
        if u == v or u in used or v in used:
            raise ValueError("edge list is not a matching")
        if H.has_edge_labels(u, v):
            raise ValueError(f"matching edge {u}-{v} already present in the graph")
        used |= {u, v}
    G = Graph.from_edges(H.labels, H.edge_labels() + list(matching))
    out = remove_edge_sets(G, w, [list(e) for e in matching], short=short)
    return _verified(out, H, 1)


# -- split graphs ------------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    """A split graph with an ordered clique A and independent set B.

    ``nbhd(i)`` / ``non_nbhd(i)`` give a_i's neighbours / non-neighbours in
    B, both in B order (1-based i, matching the a_1..a_k convention).
    """

    graph: Graph
    clique: tuple[str, ...]
    independent: tuple[str, ...]

    def __post_init__(self):
        G = self.graph
        if sorted(self.clique + self.independent) != sorted(G.labels):
            raise ValueError("clique and independent set must partition the vertices")
        if not G.is_clique(self.clique):
            raise ValueError("A is not a clique")
        if not G.is_independent_set(self.independent):
            raise ValueError("B is not an independent set")

    def nbhd(self, i: int) -> list[str]:
        a = self.clique[i - 1]
        hits = self.graph.neighbors_in(a, self.independent)
        return [b for b in self.independent if b in hits]

    def non_nbhd(self, i: int) -> list[str]:
        a = self.clique[i - 1]
        hits = self.graph.neighbors_in(a, self.independent)
        return [b for b in self.independent if b not in hits]


def _split_blocks(G: Graph, A: list[str], B: list[str]) -> list[list[str]]:
    """The permutation blocks w0 (three) and Pi_k..Pi_0 of the split word.

    Only the A-B edges of G are read, so A need not be a clique in G.
    """
    k = len(A)
    blocks = [A + B, A + B[::-1], A + B]
    for j in range(k, 0, -1):
        hits = G.neighbors_in(A[j - 1], B)
        non_nbhd = [b for b in B if b not in hits]
        nbhd = [b for b in B if b in hits]
        blocks.append(A[k - 1:j - 1:-1] + A[: j - 1] + non_nbhd + [A[j - 1]] + nbhd)
    blocks.append(A[::-1] + B)
    return blocks


def split_word(P: SplitPartition) -> Word:
    """Permutational 1-11-representant of a split graph.

    Word shape: w0 Pi_k Pi_{k-1} ... Pi_0 with
    w0 = A B  A r(B)  A B,
    Pi_k = a_1..a_{k-1} O_k a_k N_k,
    Pi_j = a_k..a_{j+1} a_1..a_{j-1} O_j a_j N_j  (0 < j < k),
    Pi_0 = a_k..a_1 B.
    """
    blocks = _split_blocks(P.graph, list(P.clique), list(P.independent))
    word = Word.from_labels(P.graph.labels, [lab for blk in blocks for lab in blk])
    return _verified(word, P.graph, 1)


# -- comparability + independent set -----------------------------------


def comparability_perm_rep(D: Orientation) -> list[Permutation]:
    """Permutations representing the comparability graph underlying D.

    All returned permutations are linear extensions of D, so every arc pair
    keeps its order everywhere; each non-adjacent pair shows up in both
    orders across the list.  Greedy: start from the lexicographically
    smallest extension, then for every non-edge pair seen in one order only
    append the smallest extension of D plus that pair reversed (always
    consistent, as non-adjacent means incomparable).  Minimality of the
    count is a non-goal.
    """
    if not is_transitive(D):
        raise ValueError("orientation is not transitive")
    G = D.base
    n = G.n
    pred = [sum(1 << i for i in range(n) if D.succ[i] >> j & 1) for j in range(n)]

    def lin_ext(extra: Optional[tuple[int, int]] = None) -> list[int]:
        need = list(pred)
        if extra is not None:
            need[extra[1]] |= 1 << extra[0]
        order, placed = [], 0
        for _ in range(n):
            free = [v for v in range(n) if not placed >> v & 1 and not need[v] & ~placed]
            if not free:
                raise ValueError("cyclic orientation")
            order.append(free[0])
            placed |= 1 << free[0]
        return order

    orders = [lin_ext()]
    before = set(combinations(orders[0], 2))  # (u, v): some order puts u before v
    for i, j in combinations(range(n), 2):
        if G.has_edge(i, j) or {(i, j), (j, i)} <= before:
            continue
        order = lin_ext((j, i) if (i, j) in before else (i, j))
        orders.append(order)
        before.update(combinations(order, 2))

    perms = [Word(G.labels, tuple(order)) for order in orders]
    if not verify_k11(perms[0].concat(*perms[1:]), G, 0):
        raise ConstructionError("permutation list fails to represent the base graph")
    return perms


@dataclass(frozen=True)
class CompIndPartition:
    """Vertices split into a comparability part A and an independent set B.

    ``clique_order`` lists A as a_1..a_k with Q_1 = a_k..a_1, i.e. already
    renamed the way the construction needs; ``perms`` is the permutation
    list representing G[A].  Build instances with ``comp_ind_partition``.
    """

    graph: Graph
    clique_order: tuple[str, ...]
    independent: tuple[str, ...]
    orientation: Orientation
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        G = self.graph
        if sorted(self.clique_order + self.independent) != sorted(G.labels):
            raise ValueError("A and B must partition the vertices")
        if not G.is_independent_set(self.independent):
            raise ValueError("B is not an independent set")
        if not is_transitive(self.orientation):
            raise ValueError("orientation of G[A] is not transitive")
        q1 = tuple(self.perms[0].label_seq())
        if q1 != tuple(reversed(self.clique_order)):
            raise ValueError("A must be indexed so that Q_1 = a_k..a_1")


def comp_ind_partition(G: Graph, comp_part: Sequence[str], ind_part: Sequence[str]) -> CompIndPartition:
    """Validate a (comparability, independent) split and prepare its pieces.

    Finds a transitive orientation of G[A] and a permutation list for it,
    then indexes A as the reverse of Q_1.
    """
    A, B = list(comp_part), list(ind_part)
    sub = G.induced_subgraph(A)
    D = search_transitive(sub)
    if D is None:
        raise ValueError("A does not induce a comparability graph")
    perms = comparability_perm_rep(D)
    clique_order = tuple(reversed(perms[0].label_seq()))
    return CompIndPartition(G, clique_order, tuple(B), D, tuple(perms))


def comp_plus_ind_word(P: CompIndPartition) -> Word:
    """Permutational 1-11-representant of a comparability-plus-independent graph.

    Split-style prefix w0 Pi_k..Pi_1 read off G's A-B edges as if A were a
    clique, followed by Pi'_i = Q_i B for each permutation Q_i representing
    G[A]; Pi'_1 coincides with the split word's Pi_0.
    """
    G = P.graph
    B = list(P.independent)
    blocks = _split_blocks(G, list(P.clique_order), B)[:-1]  # Pi_0 becomes Pi'_1
    blocks += [q.label_seq() + B for q in P.perms]
    word = Word.from_labels(G.labels, [lab for blk in blocks for lab in blk])
    return _verified(word, G, 1)


# -- Mycielski ---------------------------------------------------------


def _shadow_label(label: str) -> str:
    if label.startswith("v") and label[1:].isdigit():
        return "u" + label[1:]
    return label + "'"


def mycielski(G: Graph) -> Graph:
    """Mycielski construction: shadow vertex per vertex plus an apex.

    The shadow of v_i is adjacent to the apex and to v_i's neighbours.
    Shadow labels mirror v<digits> labels as u<digits>, else append a prime.
    """
    shadows = {lab: _shadow_label(lab) for lab in G.labels}
    apex = "x"
    while apex in G.labels or apex in shadows.values():
        apex += "'"
    labels = G.labels + tuple(shadows[lab] for lab in G.labels) + (apex,)
    edges = list(G.edge_labels())
    for lab in G.labels:
        edges.append((apex, shadows[lab]))
        for nb in G.neighbors_in(lab, G.labels):
            edges.append((nb, shadows[lab]))
    return Graph.from_edges(labels, edges)


def mycielski_cycle_word(n: int) -> Word:
    """2-uniform word representing the Mycielski graph of C_n minus its apex.

    Cyclic blocks v_{i+1} u_i u_{i+1} v_i for i = 1..n (indices mod n).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    vs = [f"v{i}" for i in range(1, n + 1)]
    us = [f"u{i}" for i in range(1, n + 1)]
    alphabet = tuple(vs + us)
    seq = []
    for i in range(1, n + 1):
        nxt = i % n + 1
        seq += [f"v{nxt}", f"u{i}", f"u{nxt}", f"v{i}"]
    word = Word.from_labels(alphabet, seq)
    target = mycielski(cycle_graph(vs)).delete_vertex("x")
    return _verified(word, target, 0)
