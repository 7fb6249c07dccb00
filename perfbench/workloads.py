"""Seeded inputs for the benchmark's workloads.

``build(workload, seed)`` returns the ops of one pass; the benchmark runs
passes back to back.  An op is one public wordrep call on inputs made from
the seed, plus the independent check (see ``checks``) that judges its
output.  The program sees only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from types import ModuleType
from typing import Any, Callable

from wordrep import Graph, SearchBudget, Word, catalog, construct, orient, search, verify
from wordrep.construct import SplitPartition

import checks

# Node budget B of every decide search.  The no-instances exhaust their
# trees in well under 10^5 nodes; running out counts as a failed op.
DECIDE_BUDGET = 1_000_000
# decide inputs per seed: more than a 55 s run gets through here, so a run
# sees each graph at most once
DECIDE_POOL = 900
DECIDE_NO_VERTICES = 11
NO_CORES = ("w5", "split-min", "graph12", "graph17")
UNIFORM_BUDGET = SearchBudget()
# verify_k11 requests per represent pass, two per word.  Their times are
# all close to one another, and with this many the median op falls well
# inside them whatever the seed; with 8 it fell among the constructors,
# whose times climb steeply with n, and moved by 10% from seed to seed.
VERIFY_OPS = 64


@dataclass(frozen=True)
class Op:
    """One public call, the items it completes, and the check of its output."""

    kind: str
    module: ModuleType
    func: str
    args: tuple
    check: Callable[[Any], bool]
    kwargs: dict = field(default_factory=dict)
    items: int = 1
    # run in a freshly forked child, so every call starts with cold caches
    forked: bool = False

    def call(self) -> Any:
        # looked up on every call, so that spans installed after the ops
        # were built wrap it
        return getattr(self.module, self.func)(*self.args, **self.kwargs)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def _graph(adj) -> Graph:
    return Graph(_labels(len(adj)), tuple(adj))


def _add(adj, i, j):
    adj[i] |= 1 << j
    adj[j] |= 1 << i


# -- census7 ------------------------------------------------------------


def build_census7(seed: int) -> list[Op]:
    # the census of 7-vertex graphs has no free input; the seed changes nothing
    n = 7
    return [Op(
        "census7", search, "census_non_word_representable", (n,), partial(_census_check, n),
        items=checks.CENSUS_REFERENCE[n][0], forked=True,
    )]


def _census_check(n, result) -> bool:
    return checks.census_ok(result, n)


# -- decide -------------------------------------------------------------


def plant_yes(rng: random.Random, n: int, p: float) -> tuple[list[int], list[int]]:
    """A connected graph with a planted proper 3-colouring: (adj, colours)."""
    while True:
        colours = [i % 3 for i in range(n)]
        rng.shuffle(colours)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if colours[i] != colours[j] and rng.random() < p:
                    _add(adj, i, j)
        if checks.connected(adj):
            return adj, colours


def plant_no(rng: random.Random, core: str, n: int, attach: int = 2) -> tuple[list[int], list[int]]:
    """A connected graph with an induced copy of a non-representable core.

    Returns (adj, placement) with placement[i] the vertex playing core
    vertex i + 1.  Every further vertex joins ``attach`` vertices placed
    before it, so the core stays induced and the graph stays connected.
    """
    size, core_edges = checks.NON_WORD_REPRESENTABLE[core]
    order = list(range(n))
    rng.shuffle(order)
    placement = order[:size]
    adj = [0] * n
    for a, b in core_edges:
        _add(adj, placement[a - 1], placement[b - 1])
    placed = list(placement)
    for v in order[size:]:
        for u in rng.sample(placed, attach):
            _add(adj, v, u)
        placed.append(v)
    return adj, placement


def build_decide(seed: int) -> list[Op]:
    """Two yes-instances for every no-instance, interleaved.

    The median op is then a yes-instance, which the search settles on its
    first branch, so per-search set-up shows in op_p50_s; the no-instances
    exhaust their trees and set op_tail_s.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(DECIDE_POOL):
        if i % 3 == 2:
            core = NO_CORES[(i // 3) % len(NO_CORES)]
            adj, placement = plant_no(rng, core, DECIDE_NO_VERTICES)
            check = partial(_decide_no_check, adj, core, placement)
            kind = f"decide.no.{core}"
        else:
            adj, colours = plant_yes(rng, rng.randint(10, 13), 0.5)
            check = partial(_decide_yes_check, adj, colours)
            kind = "decide.yes"
        G = _graph(adj)
        ops.append(Op(kind, orient, "search_semi_transitive", (G,), check, {"max_nodes": DECIDE_BUDGET}))
    return ops


def _decide_yes_check(adj, colours, out) -> bool:
    return (
        checks.colouring_ok(adj, colours)
        and out is not None
        and tuple(out.base.adj) == tuple(adj)
        and checks.orientation_ok(adj, out.succ)
    )


def _decide_no_check(adj, core, placement, out) -> bool:
    return checks.planted_core_ok(adj, core, placement) and out is None


# -- represent ------------------------------------------------------------


def _random_word(rng: random.Random, alphabet: tuple[str, ...], length: int) -> Word:
    seq = list(alphabet) + [rng.choice(alphabet) for _ in range(length - len(alphabet))]
    rng.shuffle(seq)
    return Word.from_labels(alphabet, seq)


def _word_check(labels, edges, k, uniform, out) -> bool:
    seq = checks.word_seq(out)
    return checks.word_represents(seq, labels, edges, k) and (not uniform or checks.is_uniform(seq))


def _word_op(module, func, args, G, k, uniform=False) -> Op:
    """An op returning a word that must k-11-represent G."""
    labels, edges = checks.graph_labels_edges(G)
    return Op(f"represent.{func}", module, func, args, partial(_word_check, labels, edges, k, uniform))


def _verdict_check(holds, flipped, out) -> bool:
    if holds:
        return out.holds and out.witness is None
    return not out.holds and frozenset(out.witness[:2]) == flipped


def _verify_ops(rng: random.Random) -> list[Op]:
    """verify_k11 on a long random word against the graph it represents at
    a level k that makes about half the pairs edges (holds), and against
    that graph with one pair flipped (does not hold)."""
    alphabet = _labels(16)
    w = _random_word(rng, alphabet, 320)
    seq = checks.word_seq(w)
    counts = {
        frozenset((x, y)): checks.count_11(seq, x, y)
        for i, x in enumerate(alphabet) for y in alphabet[i + 1:]
    }
    k = sorted(counts.values())[len(counts) // 2]
    edges = {pair for pair, c in counts.items() if c <= k}
    flipped = rng.choice(sorted(counts, key=sorted))
    ops = []
    for holds, graph_edges in ((True, edges), (False, edges ^ {flipped})):
        G = Graph.from_edges(alphabet, [tuple(sorted(e)) for e in graph_edges])
        ops.append(Op(
            f"represent.verify_k11.{'yes' if holds else 'no'}", verify, "verify_k11", (w, G, k),
            partial(_verdict_check, holds, flipped if not holds else None),
        ))
    return ops


def _split_op(rng: random.Random) -> Op:
    k, m = rng.randint(3, 5), rng.randint(3, 6)
    n = k + m
    adj = [0] * n
    for i in range(k):
        for j in range(i + 1, k):
            _add(adj, i, j)
        for b in range(k, n):
            if rng.random() < 0.5:
                _add(adj, i, b)
    G = _graph(adj)
    P = SplitPartition(G, G.labels[:k], G.labels[k:])
    return _word_op(construct, "split_word", (P,), G, 1)


def build_represent(seed: int) -> list[Op]:
    """Word requests: the bw3 uniform search first in every pass, then the
    other requests in seeded order.

    bw3 needs a 3-uniform word and takes seconds, so it sets op_tail_s; the
    constructors and verify_k11 take milliseconds, and verify_k11 sets
    op_p50_s.
    """
    rng = random.Random(seed)
    bw3 = catalog.get("bw3").graph
    first = _word_op(search, "find_uniform_representant", (bw3, UNIFORM_BUDGET), bw3, 0, uniform=True)
    ops = []
    # 6-vertex graphs almost always have a 2-uniform word, so whatever the
    # seed, the one search per pass that takes seconds is bw3's
    for _ in range(8):
        adj, _colours = plant_yes(rng, 6, 0.6)
        G = _graph(adj)
        ops.append(_word_op(search, "find_uniform_representant", (G, UNIFORM_BUDGET), G, 0, uniform=True))
    for n in range(3, 15):
        target = _mycielski_cycle_minus_apex(n)
        ops.append(_word_op(construct, "mycielski_cycle_word", (n,), target, 0))
    for _ in range(8):
        ops.append(_split_op(rng))
    chvatal = catalog.get("chvatal").graph
    stored = catalog.get("chvatal-augmented").golden_words[0][0]
    ops.append(_word_op(construct, "remove_matching", (chvatal, [("1", "3"), ("2", "4")], stored), chvatal, 1))
    for i in range(8):
        alphabet = _labels(8)
        w = _random_word(rng, alphabet, 24)
        target = Graph.from_edges(alphabet, [
            (x, y) for j, x in enumerate(alphabet) for y in alphabet[j + 1:]
            if checks.count_11(checks.word_seq(w), x, y) == 0
        ])
        ops.append(_word_op(construct, "double_word", (w, ("ww", "rpw")[i % 2]), target, 1))
    for _ in range(VERIFY_OPS // 2):
        ops += _verify_ops(rng)
    rng.shuffle(ops)
    return [first] + ops


def _mycielski_cycle_minus_apex(n: int) -> Graph:
    """Mycielski graph of C_n without its apex, written out from the definition."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    us = [f"u{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(n):
        nxt = (i + 1) % n
        edges += [(vs[i], vs[nxt]), (us[i], vs[nxt]), (vs[i], us[nxt])]
    return Graph.from_edges(tuple(vs + us), edges)


INPUTS = {"census7": build_census7, "decide": build_decide, "represent": build_represent}


def build(workload: str, seed: int) -> list[Op]:
    return INPUTS[workload](seed)


def budget(workload: str) -> dict:
    """The search budget B each workload runs with."""
    if workload == "decide":
        return {"max_nodes": DECIDE_BUDGET}
    if workload == "represent":
        return {
            "max_nodes": UNIFORM_BUDGET.max_nodes,
            "max_uniformity": UNIFORM_BUDGET.max_uniformity,
        }
    return {"max_nodes": None}
