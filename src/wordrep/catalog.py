"""Named graphs, orientations, subsets and golden words.

Edge lists and golden words are frozen here as data; verify_catalog
re-checks every golden artifact so a transcription slip surfaces as a
verification failure, and it runs as part of the default test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Graph, Word, _labels, cycle_graph
from .construct import mycielski
from .orient import Orientation, is_semi_transitive
from .verify import induces_copy, uniformity, verify_k11

# Chvatal graph: 12 vertices, 24 edges, 4-regular, triangle-free.
_CHVATAL_EDGES = [
    ("1", "2"), ("1", "4"), ("1", "7"), ("1", "12"),
    ("2", "3"), ("2", "6"), ("2", "9"),
    ("3", "4"), ("3", "8"), ("3", "11"),
    ("4", "5"), ("4", "10"),
    ("5", "6"), ("5", "9"), ("5", "12"),
    ("6", "7"), ("6", "10"),
    ("7", "8"), ("7", "11"),
    ("8", "9"), ("8", "12"),
    ("9", "10"),
    ("10", "11"),
    ("11", "12"),
]

# Semi-transitive orientation of the Chvatal graph plus the matching
# edges {1,3} and {2,4}.  Its longest directed path is 4->3->2->1->12.
_CHVATAL_AUG_ARCS = [
    ("1", "12"),
    ("2", "1"),
    ("3", "1"), ("3", "2"), ("3", "8"), ("3", "11"),
    ("4", "1"), ("4", "2"), ("4", "3"), ("4", "5"), ("4", "10"),
    ("5", "12"),
    ("6", "2"), ("6", "5"), ("6", "7"), ("6", "10"),
    ("7", "1"), ("7", "8"), ("7", "11"),
    ("8", "12"),
    ("9", "2"), ("9", "5"), ("9", "8"), ("9", "10"),
    ("10", "11"),
    ("11", "12"),
]

# 4-uniform 0-11-representant of the augmented Chvatal graph, found by
# simulated-annealing search and verified exactly (see
# scripts/derive_chvatal_witness.py).  Space-separated labels.
CHVATAL_AUGMENTED_UNIFORM_WORD = (
    "4 9 12 5 3 8 10 2 6 11 9 1 4 3 2 12 7 1 10 5 6 4 8 9 11 10 7 3 12 11 2 8 5 1 "
    "12 4 3 9 6 10 5 7 11 2 6 8 1 7"
)

# Wheel W5: the cycle 1..5 and the hub 6.
_W5_EDGES = [(str(i), str(i % 5 + 1)) for i in range(1, 6)]
_W5_EDGES += [("6", str(i)) for i in range(1, 6)]

_BW3_EDGES = [
    ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("6", "7"),
    ("1", "6"), ("2", "7"), ("4", "7"),
]

# Minimal non-word-representable split graph: clique {1,2,3,4},
# independent {5,6,7,8}.
_SPLIT_MIN_EDGES = [
    ("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"),
    ("1", "5"), ("1", "8"),
    ("2", "5"), ("2", "6"), ("2", "7"), ("2", "8"),
    ("3", "6"), ("3", "7"),
    ("4", "7"), ("4", "8"),
]

_GRAPH12_EDGES = [
    ("1", "2"), ("1", "3"), ("1", "4"), ("1", "6"),
    ("2", "3"), ("2", "6"), ("2", "7"),
    ("3", "4"), ("3", "5"), ("3", "6"), ("3", "7"),
    ("4", "5"),
    ("5", "6"),
]

_GRAPH17_EDGES = [
    ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("1", "6"),
    ("2", "3"), ("2", "4"), ("2", "6"), ("2", "7"),
    ("3", "4"),
    ("4", "5"), ("4", "7"),
    ("5", "6"), ("5", "7"),
    ("6", "7"),
]

# 1-11-representant of graph12, but not the only one near it: position 1
# (0-based) may also be 1 or 2 instead of 5.
W12 = "4573275465142631256"
W17 = "23474625731436251645"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: Graph
    golden_words: tuple[tuple[Word, int], ...] = ()
    golden_orientations: tuple[Orientation, ...] = ()
    special_subsets: dict[str, frozenset[str]] = field(default_factory=dict)


# One row per named entry: vertex count (labels "1".."n"), edges, golden
# words as (label sequence, k), arcs of a stored orientation (or None) and
# special subsets as space-separated labels.  verify_catalog picks a
# subset's check by its name: V* an induced BW3, C5* an induced C5,
# "independent" or "clique".
_TABLE = {
    "chvatal": (12, _CHVATAL_EDGES, (), None, {
        "V1": "2 3 5 6 8 9 12",
        "V2": "3 4 6 7 8 10 11",
        "V3": "1 4 5 8 9 10 12",
        "V4": "1 2 6 7 10 11 12",
        "C5a": "1 2 3 7 8",
        "C5b": "5 6 10 11 12",
    }),
    "chvatal-augmented": (12, _CHVATAL_EDGES + [("1", "3"), ("2", "4")],
                          ((CHVATAL_AUGMENTED_UNIFORM_WORD.split(), 0),),
                          _CHVATAL_AUG_ARCS, {}),
    "w5": (6, _W5_EDGES, (), None, {}),
    "bw3": (7, _BW3_EDGES, (), None, {}),
    "split-min": (8, _SPLIT_MIN_EDGES, (), None, {"clique": "1 2 3 4", "independent": "5 6 7 8"}),
    "graph12": (7, _GRAPH12_EDGES, ((W12, 1),), None, {"independent": "1 5 7"}),
    "graph17": (7, _GRAPH17_EDGES, ((W17, 1),), None, {"independent": "1 7"}),
}


def names() -> list[str]:
    return sorted(_TABLE) + ["mycielski-c:<n>"]


def get(name: str) -> CatalogEntry:
    if name in _TABLE:
        n, edges, words, arcs, subsets = _TABLE[name]
        G = Graph.from_edges(_labels(n), edges)
        return CatalogEntry(
            name=name,
            graph=G,
            golden_words=tuple((Word.from_labels(G.labels, seq), k) for seq, k in words),
            golden_orientations=() if arcs is None else (Orientation.from_arcs(G, arcs),),
            special_subsets={sub: frozenset(labels.split()) for sub, labels in subsets.items()},
        )
    if name.startswith("mycielski-c:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad Mycielski cycle size in {name!r}") from None
        if n < 3:
            raise ValueError("Mycielski cycle needs n >= 3")
        G = mycielski(cycle_graph([f"v{i}" for i in range(1, n + 1)]))
        return CatalogEntry(name=name, graph=G)
    raise ValueError(f"unknown catalog entry {name!r}")


@dataclass(frozen=True)
class CatalogReport:
    checks: tuple[tuple[str, str, bool, str], ...]  # (entry, artifact, ok, detail)

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str, str]]:
        return [(e, a, d) for e, a, ok, d in self.checks if not ok]


def verify_catalog() -> CatalogReport:
    """Re-verify every golden artifact in the catalog.  The generated
    ``mycielski-c:<n>`` entries store none, so only the named entries are
    checked."""
    checks: list[tuple[str, str, bool, str]] = []
    bw3 = get("bw3").graph
    c5 = cycle_graph(_labels(5))
    for name in sorted(_TABLE):
        entry = get(name)
        for w, k in entry.golden_words:
            verdict = verify_k11(w, entry.graph, k)
            detail = "" if verdict else f"witness {verdict.witness}"
            if k == 0 and verdict and uniformity(w) is None:
                detail = "stored 0-11 word is not uniform"
            checks.append((name, f"word k={k}", not detail, detail))
        for D in entry.golden_orientations:
            ok = is_semi_transitive(D)
            checks.append((name, "orientation", ok, "" if ok else "not semi-transitive"))
        for sub_name, subset in entry.special_subsets.items():
            if sub_name.startswith("V"):
                artifact = f"subset {sub_name} ~ BW3"
                detail = "" if induces_copy(entry.graph, subset, bw3) else "no induced BW3"
            elif sub_name.startswith("C5"):
                artifact = f"subset {sub_name} ~ C5"
                detail = "" if induces_copy(entry.graph, subset, c5) else "no induced C5"
            elif sub_name == "independent":
                artifact = "independent subset"
                detail = "" if entry.graph.is_independent_set(subset) else "not independent"
            elif sub_name == "clique":
                artifact = "clique subset"
                detail = "" if entry.graph.is_clique(subset) else "not a clique"
            else:
                artifact = f"subset {sub_name}"
                detail = "no check covers this subset"
            checks.append((name, artifact, not detail, detail))
    return CatalogReport(tuple(checks))
