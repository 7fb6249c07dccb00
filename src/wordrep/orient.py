"""Orientation certificates and searches.

Semi-transitive = acyclic + shortcut-free.  Shortcut detection uses the
reachability formulation: for every arc a->b, any two vertices lying on
directed a-to-b paths that are reachability-comparable must be adjacent.
On DAGs this is equivalent to the directed-path definition (concatenating
a~>u and u~>b paths yields a simple path); the exhaustive path enumerator
survives in the tests as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _kernels
from .core import Graph, iter_mask


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of nodes: outcome is unknown, not 'none'."""


@dataclass(frozen=True)
class Orientation:
    """A direction for every edge of ``base``; succ[i] holds the out-arcs of i."""

    base: Graph
    succ: tuple[int, ...]

    def __post_init__(self):
        adj, labels = self.base.adj, self.base.labels
        if len(self.succ) != len(adj):
            raise ValueError("succ size mismatch")
        if any(s & ~a for s, a in zip(self.succ, adj)):
            raise ValueError("arc without a base edge")
        # every arc is on an edge, so succ | pred == adj and succ & pred == 0
        # read adj ^ succ ^ pred == 0; its bits are symmetric, so the lowest
        # bit of its first nonzero row is the first bad edge (i, j), i < j
        for i, (a, s, p) in enumerate(zip(adj, self.succ, _kernels.transpose(self.succ))):
            if bad := a ^ s ^ p:
                j = (bad & -bad).bit_length() - 1
                raise ValueError(
                    f"edge {labels[i]}-{labels[j]} "
                    f"{'oriented both ways' if s >> j & 1 else 'unoriented'}"
                )

    @classmethod
    def from_arcs(cls, base: Graph, arcs: Iterable[tuple[str, str]]) -> "Orientation":
        succ = [0] * base.n
        for u, v in arcs:
            i, j = base.idx(u), base.idx(v)
            if not base.has_edge(i, j):
                raise ValueError(f"arc ({u},{v}) has no base edge")
            if succ[i] >> j & 1 or succ[j] >> i & 1:
                raise ValueError(f"duplicate or conflicting arc on edge {u}-{v}")
            succ[i] |= 1 << j
        return cls(base, tuple(succ))

    def arcs(self) -> list[tuple[str, str]]:
        out = []
        for i in range(self.base.n):
            for j in iter_mask(self.succ[i]):
                out.append((self.base.labels[i], self.base.labels[j]))
        return out


@dataclass(frozen=True)
class ShortcutWitness:
    """A directed path v0..vk plus the shortcutting arc v0->vk, with a
    non-adjacent pair on the path breaking transitivity."""

    path: tuple[str, ...]
    missing: tuple[str, str]


def is_acyclic(D: Orientation) -> bool:
    return _kernels.is_dag(D.base.n, D.succ)


def find_shortcut(D: Orientation) -> Optional[ShortcutWitness]:
    """A shortcut witness, or None if the (acyclic) orientation has none."""
    try:
        desc, anc = _reachability(D.succ)
    except ValueError:
        raise ValueError("orientation is cyclic") from None
    every = (1 << D.base.n) - 1
    hit = _kernels.shortcut_in(D.succ, D.base.adj, desc, anc, every, every)
    if hit is None:
        return None
    a, b, u, w = hit
    path = [a]
    for t in (u, w, b):  # each step: the lowest successor that is t or reaches it
        while path[-1] != t:
            m = D.succ[path[-1]] & (anc[t] | 1 << t)
            path.append((m & -m).bit_length() - 1)
    labels = D.base.labels
    return ShortcutWitness(tuple(labels[v] for v in path), (labels[u], labels[w]))


def is_semi_transitive(D: Orientation) -> bool:
    if not is_acyclic(D):
        return False
    return _kernels.forced_shortcut_pair(D.base.n, D.succ, D.base.adj) is None


def is_transitive(D: Orientation) -> bool:
    """Every composable arc pair u->v->z has its composite arc u->z."""
    for i in range(D.base.n):
        for j in iter_mask(D.succ[i]):
            if D.succ[j] & ~D.succ[i]:
                return False
    return True


def directed_paths_with_arcs(D: Orientation, num_arcs: int) -> list[tuple[str, ...]]:
    """All directed simple paths with exactly ``num_arcs`` arcs, sorted."""
    if num_arcs < 0:
        raise ValueError("arc count must be non-negative")
    if not is_acyclic(D):
        raise ValueError("orientation is cyclic")
    n = D.base.n
    out = []

    def extend(path: list[int]):
        if len(path) == num_arcs + 1:
            out.append(tuple(path))
            return
        for v in iter_mask(D.succ[path[-1]]):
            path.append(v)
            extend(path)
            path.pop()

    for start in range(n):
        extend([start])
    out.sort()
    return [tuple(D.base.labels[v] for v in p) for p in out]


def orient_by_coloring(G: Graph, coloring: dict[str, int]) -> Orientation:
    """Direct each edge from the lesser color to the larger one.

    With at most 3 colors the result is always semi-transitive.
    """
    colors = [coloring[lab] for lab in G.labels]  # KeyError -> caller bug
    succ = [0] * G.n
    for i, j in G.edges():
        if colors[i] == colors[j]:
            raise ValueError(
                f"coloring is not proper: {G.labels[i]} and {G.labels[j]} share a color"
            )
        if colors[i] < colors[j]:
            succ[i] |= 1 << j
        else:
            succ[j] |= 1 << i
    return Orientation(G, tuple(succ))


@dataclass
class _Budget:
    limit: Optional[int]
    used: int = 0

    def tick(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(f"node budget of {self.limit} exhausted")


def _edge_order(G: Graph) -> list[tuple[int, int]]:
    deg = [G.degree(i) for i in range(G.n)]
    return sorted(
        G.edges(),
        key=lambda e: (-max(deg[e[0]], deg[e[1]]), -min(deg[e[0]], deg[e[1]]), e),
    )


def _search(G: Graph, max_nodes: Optional[int], reject, start=None) -> Optional[list[int]]:
    """The backtracking loop of the semi-transitive search and the census's
    extensions, on its own stack (no recursion, so no bound on the edge
    count): the successor masks of the first acyclic orientation none of
    whose arcs ``reject`` rejects, or None.

    Edges come in ``_edge_order``; on {u, v}, u < v, u->v is tried before
    v->u, and alone on the first edge.  An arc x->y is dropped when y
    already reaches x (a cycle).  Else it is added to ``succ``, the strict
    descendant masks ``desc`` of up = anc[x]|x gain down = desc[y]|y (and
    the ancestor masks ``anc`` of down gain up), and ``reject(succ, adj,
    desc, anc, up, down)`` (the package's is ``_kernels.shortcut_in``;
    tests pass reference rules) returns why the arc fails, or None to keep
    it.  A node is the root or a kept arc; each ticks the budget once.  Each
    stack entry carries the masks it extends, and a popped one copies them
    before adding its arc, so backtracking undoes nothing.

    ``start = (succ, desc, anc, edges)`` extends an orientation instead: the
    successor masks and reachability of arcs on every edge but ``edges``,
    which are oriented in their order.  Those arcs may break the reversal
    symmetry, so both directions are tried on the first of them.  The root,
    the orientation given, is no node of this search.
    """
    n, adj = G.n, G.adj
    budget = _Budget(max_nodes)
    if start is None:
        succ, desc, anc, edges = [0] * n, [0] * n, [0] * n, _edge_order(G)
        budget.tick()
    else:
        succ, desc, anc, edges = start
    if not edges:
        return list(succ)
    u, v = edges[0]
    # arcs to try, next on top: x->y on edges[k], with the succ, desc and
    # anc of the arcs on edges[:k]
    todo = [(0, u, v, succ, desc, anc)]
    if start is not None:
        todo.insert(0, (0, v, u, succ, desc, anc))
    while todo:
        k, x, y, succ, desc, anc = todo.pop()
        if desc[y] >> x & 1:  # x->y closes a cycle
            continue
        up = anc[x] | 1 << x
        down = desc[y] | 1 << y
        succ, desc, anc = list(succ), list(desc), list(anc)
        succ[x] |= 1 << y
        m = up
        while m:
            low = m & -m
            m ^= low
            desc[low.bit_length() - 1] |= down
        m = down
        while m:
            low = m & -m
            m ^= low
            anc[low.bit_length() - 1] |= up
        if reject(succ, adj, desc, anc, up, down) is None:
            budget.tick()
            k += 1
            if k == len(edges):
                return succ
            u, v = edges[k]
            todo += [(k, v, u, succ, desc, anc), (k, u, v, succ, desc, anc)]
    return None


def _reachability(succ: Sequence[int]) -> tuple[list[int], list[int]]:
    """Strict descendant and ancestor masks of an acyclic orientation."""
    desc = _kernels.descendants(len(succ), succ)
    return desc, _kernels.transpose(desc)


def search_semi_transitive(G: Graph, max_nodes: Optional[int] = None) -> Optional[Orientation]:
    """Backtracking search for a semi-transitive orientation: ``_search``
    with ``_kernels.shortcut_in``, which prunes an arc that forces a
    shortcut, checking only the intervals through the new arc.

    None comes only from an exhausted search, which proves G
    non-word-representable.  u->v alone on the first edge loses nothing: a
    semi-transitive orientation reversed is one (a cycle or a shortcut
    reversed is one).  Exceeding ``max_nodes`` raises BudgetExceeded.
    """
    succ = _search(G, max_nodes, _kernels.shortcut_in)
    return None if succ is None else Orientation(G, tuple(succ))


def search_transitive(G: Graph) -> Optional[Orientation]:
    """A transitive orientation of G, or None if G is not a comparability
    graph, by Golumbic's Γ-forcing (*Algorithmic Graph Theory and Perfect
    Graphs*, 1980, ch. 5).  The first edge x-y left, in ``_edge_order``,
    orients its implication class among the edges left: a->b forces a->c
    for each c adjacent to a but not to b, and c->b for each c adjacent to
    b but not to a.  G is a comparability graph exactly when no class holds
    an arc and its reverse; then the classes make a transitive orientation.
    """
    left = list(G.adj)
    succ = [0] * G.n
    for x, y in _edge_order(G):
        if not left[x] >> y & 1:
            continue
        cls = [0] * G.n
        todo = [(x, y)]
        while todo:
            a, b = todo.pop()
            if not cls[a] >> b & 1:
                cls[a] |= 1 << b
                todo += [(a, c) for c in iter_mask(left[a] & ~left[b] ^ 1 << b)]
                todo += [(c, b) for c in iter_mask(left[b] & ~left[a] ^ 1 << a)]
        back = _kernels.transpose(cls)
        if any(c & r for c, r in zip(cls, back)):
            return None
        succ = [s | c for s, c in zip(succ, cls)]
        left = [m & ~(c | r) for m, c, r in zip(left, cls, back)]
    D = Orientation(G, tuple(succ))
    if not is_transitive(D):  # Γ-forcing should guarantee this
        raise AssertionError("search produced a non-transitive orientation")
    return D
