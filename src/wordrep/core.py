"""Fundamental graph and word types plus the word primitives everything else builds on.

Vertices are identified by label (a non-empty token without whitespace or
``#``) in the public API; internally every graph fixes a dense label ->
index map at construction time and all algorithms work on indices and
adjacency bitmasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Collection, Iterable, Iterator, Sequence

from . import _kernels

# no whitespace, and no ``#``, which starts a comment in every fileio format
_LABEL_RE = re.compile(r"[^\s#]+")


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
        raise ValueError(f"bad vertex label: {label!r}")
    return label


@lru_cache(maxsize=1024)
def _check_labels(labels: tuple, duplicate_message: str) -> None:
    """Distinct, well-formed labels; a tuple that passes is not checked again
    (a failing one raises, so it is never cached)."""
    if len(set(labels)) != len(labels):
        raise ValueError(duplicate_message)
    for lab in labels:
        _check_label(lab)


@lru_cache(maxsize=16)
def _labels(n: int) -> tuple[str, ...]:
    """The labels "1".."n" that enumerated, graph6 and catalog graphs get."""
    return tuple(str(i + 1) for i in range(n))


def _image_mask(perm, mask: int) -> int:
    """The image of the vertex mask ``mask`` under ``perm`` (``perm[v]`` is
    v's image: a sequence, or a dict on the mask's vertices)."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << perm[low.bit_length() - 1]
    return out


@dataclass(frozen=True)
class Graph:
    """Labeled simple undirected graph.

    ``adj[i]`` is the neighbourhood of vertex ``i`` as a bitmask over indices.
    Instances are immutable; all derived views build new graphs.
    """

    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        _check_labels(tuple(self.labels), "duplicate vertex labels")
        if len(self.adj) != n:
            raise ValueError("adjacency size mismatch")
        full = (1 << n) - 1
        for i, m in enumerate(self.adj):
            if m & ~full:
                raise ValueError("edge endpoint out of range")
            if m >> i & 1:
                raise ValueError(f"self-loop at {self.labels[i]}")
        if _kernels.transpose(self.adj) != list(self.adj):
            raise ValueError("asymmetric adjacency")

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        pairs = []
        for u, v in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u},{v}) uses unknown vertex")
            pairs.append((index[u], index[v]))
        return cls.from_index_edges(labels, pairs)

    @classmethod
    def from_index_edges(cls, labels: Sequence[str], pairs: Iterable[tuple[int, int]]) -> "Graph":
        labels = tuple(labels)
        n = len(labels)
        adj = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("edge endpoint out of range")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(labels, tuple(adj))

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def idx(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label: {label!r}") from None

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def has_edge_labels(self, u: str, v: str) -> bool:
        return self.has_edge(self.idx(u), self.idx(v))

    def edges(self) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j, by i and then j."""
        return [(i, j) for i, m in enumerate(self.adj) for j in iter_mask(m >> i + 1 << i + 1)]

    def edge_labels(self) -> list[tuple[str, str]]:
        return [(self.labels[i], self.labels[j]) for i, j in self.edges()]

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def same_graph(self, other: "Graph") -> bool:
        """Equality up to vertex ordering (same labels, same label edges)."""
        if set(self.labels) != set(other.labels):
            return False
        mine = {frozenset(e) for e in self.edge_labels()}
        theirs = {frozenset(e) for e in other.edge_labels()}
        return mine == theirs

    # -- derived graphs ------------------------------------------------

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        mask = 0
        for lab in keep:
            mask |= 1 << self.idx(lab)
        kept = list(iter_mask(mask))
        at = {v: k for k, v in enumerate(kept)}
        adj = [_image_mask(at, self.adj[i] & mask) for i in kept]
        return Graph(tuple(self.labels[i] for i in kept), tuple(adj))

    def delete_vertex(self, label: str) -> "Graph":
        self.idx(label)
        return self.induced_subgraph(lab for lab in self.labels if lab != label)

    def neighbors_in(self, v: str, among: Iterable[str]) -> set[str]:
        """Members of ``among`` adjacent to ``v``."""
        nbrs = self.adj[self.idx(v)]
        return {lab for lab in among if nbrs >> self.idx(lab) & 1}

    def is_clique(self, verts: Iterable[str]) -> bool:
        idxs = [self.idx(v) for v in verts]
        return all(self.has_edge(i, j) for a, i in enumerate(idxs) for j in idxs[a + 1:])

    def is_independent_set(self, verts: Iterable[str]) -> bool:
        idxs = [self.idx(v) for v in verts]
        return not any(self.has_edge(i, j) for a, i in enumerate(idxs) for j in idxs[a + 1:])

    def is_connected(self) -> bool:
        return _induces_connected(self.adj, (1 << self.n) - 1)

    def relabel(self, mapping: dict[str, str]) -> "Graph":
        labels = tuple(mapping.get(lab, lab) for lab in self.labels)
        return Graph(labels, self.adj)


@dataclass(frozen=True)
class Word:
    """Finite sequence of vertex labels over a fixed alphabet.

    ``letters`` holds indices into ``alphabet``.  Empty and single-letter
    words are legal; the verify module enforces the every-vertex-occurs
    precondition where representants require it.
    """

    alphabet: tuple[str, ...]
    letters: tuple[int, ...]

    def __post_init__(self):
        _check_labels(tuple(self.alphabet), "duplicate alphabet labels")
        for a in self.letters:
            if type(a) is not int:  # exactly int: not bool, float or str
                raise ValueError(f"letter index {a!r} is not an int")
            if not 0 <= a < len(self.alphabet):
                raise ValueError(f"letter index {a} out of range")

    @classmethod
    def from_labels(cls, alphabet: Sequence[str], seq: Iterable[str]) -> "Word":
        alphabet = tuple(alphabet)
        index = {lab: i for i, lab in enumerate(alphabet)}
        letters = []
        for tok in seq:
            if tok not in index:
                raise ValueError(f"letter {tok!r} not in alphabet")
            letters.append(index[tok])
        return cls(alphabet, tuple(letters))

    @classmethod
    def compact(cls, text: str, alphabet: Sequence[str] | None = None) -> "Word":
        """Parse a word of single-character labels, e.g. ``"42535214421"``.

        Without an explicit alphabet, the alphabet is the sorted set of
        characters appearing in the text.
        """
        chars = list(text.strip())
        if alphabet is None:
            alphabet = sorted(set(chars))
        return cls.from_labels(alphabet, chars)

    def __len__(self) -> int:
        return len(self.letters)

    def label_seq(self) -> list[str]:
        return [self.alphabet[a] for a in self.letters]

    def __str__(self) -> str:
        return " ".join(self.label_seq())

    def compact_str(self) -> str:
        if any(len(lab) != 1 for lab in self.alphabet):
            raise ValueError("compact form needs single-character labels")
        return "".join(self.label_seq())

    def multiplicity(self, label: str) -> int:
        a = self._aidx(label)
        return sum(1 for x in self.letters if x == a)

    def _aidx(self, label: str) -> int:
        try:
            return self.alphabet.index(label)
        except ValueError:
            raise ValueError(f"unknown vertex label: {label!r}") from None

    def concat(self, *others: "Word") -> "Word":
        letters = list(self.letters)
        for o in others:
            if o.alphabet != self.alphabet:
                raise ValueError("alphabet mismatch in concatenation")
            letters.extend(o.letters)
        return Word(self.alphabet, tuple(letters))

    def occurring(self) -> set[str]:
        return {self.alphabet[a] for a in set(self.letters)}


# A permutation is a Word in which every alphabet letter occurs exactly once.
Permutation = Word


def is_permutation(w: Word) -> bool:
    return len(w.letters) == len(w.alphabet) and len(set(w.letters)) == len(w.alphabet)


def check_permutation(w: Word) -> Word:
    if not is_permutation(w):
        raise ValueError("word is not a permutation of its alphabet")
    return w


# -- word operations ---------------------------------------------------


def induced_subword(w: Word, x: str, y: str) -> Word:
    """Subsequence of ``w`` formed by all copies of ``x`` and ``y``."""
    if x == y:
        raise ValueError("need two distinct letters")
    xi, yi = w._aidx(x), w._aidx(y)
    return Word(w.alphabet, tuple(a for a in w.letters if a == xi or a == yi))


def initial_permutation(w: Word) -> Permutation:
    """Leftmost occurrences of the letters in order of first appearance."""
    out = tuple(dict.fromkeys(w.letters))
    _check_every_letter_occurs(w, out)
    return Word(w.alphabet, out)


def _check_every_letter_occurs(w: Word, present: Collection[int]) -> None:
    """Raise ValueError naming the alphabet letters missing from ``present``,
    the distinct letter indices of ``w``."""
    if len(present) != len(w.alphabet):
        missing = sorted(set(w.alphabet) - {w.alphabet[a] for a in present})
        raise ValueError(f"letters never occur: {missing}")


def reverse(w: Word) -> Word:
    return Word(w.alphabet, tuple(reversed(w.letters)))


def count_pattern_11(w: Word, x: str, y: str) -> int:
    """Number of adjacent equal letters in the pair subword of x and y."""
    pair = induced_subword(w, x, y).letters
    return sum(a == b for a, b in zip(pair, pair[1:]))


# -- small generators used throughout ---------------------------------


def complete_graph(labels: Sequence[str]) -> Graph:
    labels = tuple(labels)
    return Graph.from_edges(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]])


def empty_graph(labels: Sequence[str]) -> Graph:
    return Graph.from_edges(tuple(labels), [])


def cycle_graph(labels: Sequence[str]) -> Graph:
    labels = tuple(labels)
    if len(labels) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
    return Graph.from_edges(labels, edges)


def path_graph(labels: Sequence[str]) -> Graph:
    labels = tuple(labels)
    return Graph.from_edges(labels, list(zip(labels, labels[1:])))


def _components(adj: Sequence[int], keep: int) -> list[int]:
    """Vertex masks of the connected components that the vertices of the mask
    ``keep`` induce in the graph with adjacency masks ``adj``, by breadth-first
    search from each lowest unreached vertex."""
    out = []
    while keep:
        seen = frontier = keep & -keep
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & keep & ~seen
            seen |= new
            frontier |= new
        out.append(seen)
        keep ^= seen
    return out


def _induces_connected(adj: Sequence[int], keep: int) -> bool:
    """Whether the vertices of the mask ``keep`` induce a connected subgraph
    of the graph with adjacency masks ``adj`` (an empty mask does)."""
    return len(_components(adj, keep)) <= 1


def iter_mask(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending: the lowest set bit each time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- canonical form ----------------------------------------------------
#
# Canonical forms are minimum adjacency bitstrings over orderings that
# respect an iterated-degree (WL-style) vertex partition; no external
# canonical-labeling dependency, acceptable because the built-in generator
# stops at n = 8.


def _refined_classes(G: Graph) -> list[list[int]]:
    """Ordered vertex partition by iterated neighbour-degree colors.

    A vertex's next color is (its color, the sorted colors of its
    neighbours), compared as tuples; refinement stops when a round splits no
    class, and classes are listed in increasing color.  After each round the
    colors are renamed to their rank among the distinct colors, which keeps
    their order, so the partition and its order are those of the nested
    tuples.
    """
    nbrs = [list(iter_mask(m)) for m in G.adj]
    degrees = [len(nb) for nb in nbrs]
    kinds = set(degrees)
    rank = {c: r for r, c in enumerate(sorted(kinds))}
    colors = [rank[c] for c in degrees]
    count = len(kinds)
    while True:
        new = [(colors[i], tuple(sorted([colors[j] for j in nb]))) for i, nb in enumerate(nbrs)]
        kinds = set(new)
        if len(kinds) == count:
            break
        rank = {c: r for r, c in enumerate(sorted(kinds))}
        colors = [rank[c] for c in new]
        count = len(kinds)
    classes: list[list[int]] = [[] for _ in range(count)]
    for i, c in enumerate(colors):
        classes[c].append(i)
    return classes


def canonical_form(G: Graph) -> tuple[int, int]:
    """(n, bits) canonical key: equal exactly for isomorphic graphs."""
    bits = _kernels.canonical_min_bits(G.n, G.adj, _refined_classes(G))
    return (G.n, bits)
