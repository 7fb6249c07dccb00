"""graph6 format, bit-exact per the public format description.

Upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... (column order),
packed big-endian into 6-bit groups offset by 63.  Supports the short and
long N(n) encodings (n up to 258047); vertices get labels "1".."n".
"""

from __future__ import annotations

from .core import Graph, _labels

HEADER = ">>graph6<<"


def _encode_n(n: int) -> str:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graph6 writer supports n <= 258047")


def _decode_n(s: str) -> tuple[int, int]:
    """(n, chars consumed)."""
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] != "~":
        # one byte '?'..'}' holds n <= 62; '~' starts the long form
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ValueError(f"invalid graph6 size byte {s[0]!r}")
        return n, 1
    if s[1:2] == "~":
        # '~~' starts the 36-bit form, for n > 258047
        raise ValueError("graph6 reader supports n <= 258047")
    if len(s) < 4:
        raise ValueError("truncated graph6 size: '~' needs three size bytes")
    n = 0
    for c in s[1:4]:
        v = ord(c) - 63
        if not 0 <= v < 64:
            raise ValueError(f"invalid graph6 size byte {c!r}")
        n = n << 6 | v
    return n, 4


def write_graph6(G: Graph) -> str:
    n = G.n
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for p in range(0, len(bits), 6):
        group = 0
        for b in bits[p:p + 6]:
            group = group << 1 | b
        chars.append(chr(group + 63))
    return _encode_n(n) + "".join(chars)


def parse_graph6(line: str) -> Graph:
    line = line.strip()
    if line.startswith(HEADER):
        line = line[len(HEADER):]
    n, consumed = _decode_n(line)
    body = line[consumed:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    bits = []
    for c in body:
        v = ord(c) - 63
        if not 0 <= v < 64:
            raise ValueError(f"invalid graph6 character {c!r}")
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    if any(bits[need:]):
        raise ValueError("non-zero padding bits")
    pairs = []
    p = 0
    for j in range(1, n):
        for i in range(j):
            if bits[p]:
                pairs.append((i, j))
            p += 1
    return Graph.from_index_edges(_labels(n), pairs)
