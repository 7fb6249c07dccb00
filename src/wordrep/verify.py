"""k-11 semantics: the graph a word represents and verification of claims.

A word w over the alphabet V represents, at level k, the graph on V with an
edge xy exactly when the pair subword w|{x,y} contains at most k adjacent
equal letters (occurrences of the consecutive pattern 11).  k = 0 is
ordinary word-representation by alternation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from typing import Optional

from . import _kernels
from .core import Graph, Word, _check_every_letter_occurs, _image_mask, canonical_form, count_pattern_11


@dataclass(frozen=True)
class Verdict:
    """Outcome of a representation check.

    ``witness`` is None exactly when the claim holds; otherwise it names the
    first violating pair (in index order of the checked graph), the observed
    11-count and the relation the graph expected ("edge" or "non-edge").
    """

    holds: bool
    witness: Optional[tuple[str, str, int, str]] = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("witness present iff the verdict fails")

    def __bool__(self) -> bool:
        return self.holds


def pattern_counts(w: Word) -> list[int]:
    """Flat 11-counts for all letter pairs, indexed by ``pair_index`` (kernel-backed)."""
    return _kernels.word_pair_counts(w.letters, len(w.alphabet))


def _represented(w: Word, k: int) -> tuple[list[int], list[int]]:
    """pattern_counts(w) and the adjacency masks, by alphabet index, of the
    graph ``w`` represents at level ``k``, after checking that every
    alphabet letter occurs.

    ``compress`` picks the edges out of the pairs in C, so the Python loop
    runs once per edge, not once per pair."""
    _check_every_letter_occurs(w, set(w.letters))
    counts = pattern_counts(w)
    n = len(w.alphabet)
    adj = [0] * n
    for i, j in compress(combinations(range(n), 2), [c <= k for c in counts]):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return counts, adj


def graph_of_word(w: Word, k: int) -> Graph:
    """The graph that ``w`` represents at level ``k``.

    Every alphabet vertex must occur in the word; silently treating absent
    letters as isolated vertices would hide bugs.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return Graph(tuple(w.alphabet), tuple(_represented(w, k)[1]))


def verify_k11(w: Word, G: Graph, k: int) -> Verdict:
    """Check that ``w`` is a k-11-representant of ``G``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if set(w.alphabet) != set(G.labels):
        raise ValueError("word alphabet does not match graph vertices")
    counts, adj = _represented(w, k)
    n = len(adj)
    order = range(n)
    if w.alphabet != G.labels:
        aidx = {lab: a for a, lab in enumerate(w.alphabet)}
        order = [aidx[lab] for lab in G.labels]
        # the represented graph in G's vertex order
        at = [G.index[lab] for lab in w.alphabet]
        adj = [_image_mask(at, adj[a]) for a in order]
    for i, (got, want) in enumerate(zip(adj, G.adj)):
        diff = (got ^ want) >> i + 1
        if diff:
            j = i + (diff & -diff).bit_length()
            c = counts[_kernels.pair_index(order[i], order[j], n)]
            return Verdict(False, (G.labels[i], G.labels[j], c, "edge" if want >> j & 1 else "non-edge"))
    return Verdict(True)


def alternates(w: Word, x: str, y: str) -> bool:
    """True iff x and y strictly alternate in w (equivalently: zero 11s)."""
    return count_pattern_11(w, x, y) == 0


def is_t_uniform(w: Word, t: int) -> bool:
    """Every alphabet letter occurs exactly t times (vacuously true for an
    empty alphabet, whose ``uniformity`` is None)."""
    return not w.alphabet or uniformity(w) == t


def uniformity(w: Word) -> Optional[int]:
    """The t for which w is t-uniform, or None if it is not uniform."""
    counts = [0] * len(w.alphabet)
    for a in w.letters:
        counts[a] += 1
    return counts[0] if counts and len(set(counts)) == 1 else None


def is_permutational(w: Word) -> bool:
    """True iff w is a concatenation of permutations of its alphabet."""
    n = len(w.alphabet)
    if n == 0 or len(w) % n != 0:
        return False
    for start in range(0, len(w), n):
        block = w.letters[start:start + n]
        if len(set(block)) != n:
            return False
    return True


def induces_copy(G: Graph, subset, H: Graph) -> bool:
    """Does the subset induce a subgraph isomorphic to H?

    Rejects on edge count or degree sequence, then compares canonical
    forms.  Their worst case still grows with the product of the factorials
    of the refined vertex classes, but the search is pruned by a bound and
    by twins: 10-vertex regular subgraphs such as the Petersen graph take a
    fraction of a second, the 12-vertex Chvatal graph several seconds.
    """
    sub = G.induced_subgraph(subset)
    if sub.n != H.n:
        raise ValueError("subset size does not match |V(H)|")
    if sub.num_edges != H.num_edges:
        return False
    if sorted(map(sub.degree, range(sub.n))) != sorted(map(H.degree, range(H.n))):
        return False
    return canonical_form(sub) == canonical_form(H)
