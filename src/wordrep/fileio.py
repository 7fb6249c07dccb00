"""Line-oriented text formats for graphs, orientations and words.

Graph files:        `vertices: a b c` then one `edge: u v` per edge.
Orientation files:  `vertices:` line plus `arc: u v` lines covering a
                    simple graph's edge set exactly once.
Word files:         whitespace-separated vertex labels, one word per line.
`#` starts a comment; blank lines are ignored.  parse(print(x)) == x.
"""

from __future__ import annotations

from .core import Graph, Word
from .orient import Orientation


class ParseError(ValueError):
    pass


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_pairs(text: str, directive: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The vertices line and the ``directive:`` pairs of a graph-like file."""
    vertices: list[str] | None = None
    pairs: list[tuple[str, str]] = []
    for lineno, line in _lines(text):
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError(f"line {lineno}: duplicate vertices line")
            vertices = line[len("vertices:"):].split()
        elif line.startswith(directive + ":"):
            parts = line[len(directive) + 1:].split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: {directive} needs exactly two endpoints")
            pairs.append((parts[0], parts[1]))
        else:
            raise ParseError(f"line {lineno}: unrecognized directive {line.split(':')[0]!r}")
    if vertices is None:
        raise ParseError("missing vertices line")
    return vertices, pairs


def parse_graph(text: str) -> Graph:
    vertices, edges = _parse_pairs(text, "edge")
    try:
        return Graph.from_edges(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def print_graph(G: Graph) -> str:
    out = ["vertices: " + " ".join(G.labels)]
    out += [f"edge: {u} {v}" for u, v in G.edge_labels()]
    return "\n".join(out) + "\n"


def parse_orientation(text: str) -> Orientation:
    vertices, arcs = _parse_pairs(text, "arc")
    try:
        base = Graph.from_edges(vertices, arcs)
        return Orientation.from_arcs(base, arcs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def print_orientation(D: Orientation) -> str:
    out = ["vertices: " + " ".join(D.base.labels)]
    out += [f"arc: {u} {v}" for u, v in D.arcs()]
    return "\n".join(out) + "\n"


def parse_words(text: str, alphabet: tuple[str, ...] | None = None) -> list[Word]:
    """One word per line; with no alphabet, the tokens in first-seen order."""
    lines = list(_lines(text))
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(tok for _, line in lines for tok in line.split()))
    words = []
    for lineno, line in lines:
        try:
            words.append(Word.from_labels(alphabet, line.split()))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return words


def print_words(words: list[Word]) -> str:
    return "\n".join(str(w) for w in words) + "\n"
