"""k-11 semantics: the graph a word represents and verification of claims.

A word w over the alphabet V represents, at level k, the graph on V with an
edge xy exactly when the pair subword w|{x,y} contains at most k adjacent
equal letters (occurrences of the consecutive pattern 11).  k = 0 is
ordinary word-representation by alternation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .core import Graph, Word, canonical_form, induced_subword


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
    """Flat 11-counts for all letter pairs (kernel-backed single pass)."""
    return _kernels.word_pair_counts(w.letters, len(w.alphabet))


def _counts_of_full_word(w: Word) -> list[int]:
    """pattern_counts(w), after checking that every alphabet letter occurs."""
    present = set(w.letters)
    if len(present) != len(w.alphabet):
        missing = sorted(set(w.alphabet) - {w.alphabet[a] for a in present})
        raise ValueError(f"letters never occur: {missing}")
    return pattern_counts(w)


def graph_of_word(w: Word, k: int) -> Graph:
    """The graph that ``w`` represents at level ``k``.

    Every alphabet vertex must occur in the word; silently treating absent
    letters as isolated vertices would hide bugs.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    counts = _counts_of_full_word(w)
    n = len(w.alphabet)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if counts[_kernels.pair_index(i, j, n)] <= k:
                pairs.append((i, j))
    return Graph.from_index_edges(w.alphabet, pairs)


def verify_k11(w: Word, G: Graph, k: int) -> Verdict:
    """Check that ``w`` is a k-11-representant of ``G``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if set(w.alphabet) != set(G.labels):
        raise ValueError("word alphabet does not match graph vertices")
    counts = _counts_of_full_word(w)
    n = len(w.alphabet)
    aidx = {lab: a for a, lab in enumerate(w.alphabet)}
    for i in range(G.n):
        for j in range(i + 1, G.n):
            x, y = G.labels[i], G.labels[j]
            c = counts[_kernels.pair_index(aidx[x], aidx[y], n)]
            if G.has_edge(i, j):
                if c > k:
                    return Verdict(False, (x, y, c, "edge"))
            elif c <= k:
                return Verdict(False, (x, y, c, "non-edge"))
    return Verdict(True)


def alternates(w: Word, x: str, y: str) -> bool:
    """True iff x and y strictly alternate in w (equivalently: zero 11s)."""
    sub = induced_subword(w, x, y).letters
    return all(a != b for a, b in zip(sub, sub[1:]))


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
