"""Pure-Python implementations of the hot kernels.

``wordrep._ext`` (C) returns the same results and is preferred at import
time when available.  ``word_pair_counts`` counts with big-int carries over
position masks; the per-letter loop it replaced, which the C kernel still
follows, is kept as the reference in ``tests/oracles.py``.
Pair indices use the upper-triangle convention ``pair_index(i, j, n)`` with
``i < j``.
"""

from __future__ import annotations

from functools import lru_cache


def pair_index(i: int, j: int, n: int) -> int:
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


# Words at least this long over at most 256 letters get their position
# masks from one bytes.translate pass per letter.  Shorter ones take one
# Python step per position, which is faster there: over 16 letters the two
# break even between 160 and 192 positions, and over 32 letters near 1,000.
_LONG_WORD = 256


def word_pair_counts(letters, n):
    """11-pattern counts for every unordered letter pair of a word.

    Returns a flat list of length n*(n-1)//2 indexed by ``pair_index``.
    ``pos[a]`` has a bit for each position of the letter a.  For a pair
    a < b the gaps (positions of other letters) are the ones of
    ``full ^ A ^ B``, so in ``gaps + (A << 1)`` the carry from each a runs
    over the gaps and stops at the next a or b: ``& A`` keeps the a's whose
    previous letter in the pair subword is a, which are the pair's aa's.
    Its bb's come the same way, so each pair costs a few big-int
    operations, not a pass over the word.

    A short word sets bit p for position p, one Python step per position;
    as the masks grow, that costs time quadratic in the word's length.  A
    long word is read as a string of "0"s and "1"s per letter, whose first
    character is the highest bit: bit p is position len - 1 - p, so the
    carries read the word backwards.  No count changes, since reversing a
    word reverses each pair subword and keeps its adjacent equal letters.
    """
    if len(letters) >= _LONG_WORD and n <= 256:
        word = bytes(letters)
        table = bytearray(b"0" * 256)
        pos = []
        for a in range(n):
            table[a] = b"1"[0]
            pos.append(int(word.translate(table), 2))
            table[a] = b"0"[0]
        full = (1 << len(word)) - 1
    else:
        pos = [0] * n
        bit = 1
        for a in letters:
            pos[a] |= bit
            bit <<= 1
        full = bit - 1
    counts = []
    for a, A in enumerate(pos):
        not_a = full ^ A
        a_next = A << 1
        for B in pos[a + 1:]:
            gaps = not_a ^ B
            counts.append(((gaps + a_next) & A).bit_count() + ((gaps + (B << 1)) & B).bit_count())
    return counts


def transpose(masks):
    """The reversed relation: bit a of ``out[b]`` is bit b of ``masks[a]``.

    Turns descendant masks into ancestor masks, successors into
    predecessors.  A bit at ``len(masks)`` or above raises IndexError.
    """
    out = [0] * len(masks)
    for a, m in enumerate(masks):
        bit = 1 << a
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
    return out


def descendants(n, succ):
    """Strict-descendant bitmasks of a DAG given successor bitmasks.

    Kahn's algorithm; ``order`` is its queue and grows while it is walked.
    Raises ValueError on a directed cycle.
    """
    indeg = [m.bit_count() for m in transpose(succ[:n])]
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:
        m = succ[i]
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ValueError("directed cycle")
    desc = [0] * n
    for i in reversed(order):
        d = m = succ[i]
        while m:
            low = m & -m
            m ^= low
            d |= desc[low.bit_length() - 1]
        desc[i] = d
    return desc


def is_dag(n, succ):
    try:
        descendants(n, succ)
        return True
    except ValueError:
        return False


def forced_shortcut_pair(n, succ, adj):
    """Find a violation of semi-transitivity forced by the arcs in ``succ``.

    ``succ`` may be a partial orientation of the graph with adjacency
    ``adj``.  Looks for an arc a->b and a pair u, w inside the directed
    a-to-b interval with u reaching w but u, w non-adjacent in the graph:
    such a pair stays a shortcut witness no matter how the remaining edges
    get oriented.  Returns (a, b, u, w) or None: ``shortcut_in`` over every
    arc.  Requires ``succ`` acyclic.
    """
    desc = descendants(n, succ)
    every = (1 << n) - 1
    return shortcut_in(succ, adj, desc, transpose(desc), every, every)


def shortcut_in(succ, adj, desc, anc, up, down):
    """The first forced shortcut (a, b, u, w) on an arc a->b of ``succ`` with
    a in the mask ``up`` and b in ``down``, or None.

    ``desc``/``anc`` are the strict descendant and ancestor masks of the
    acyclic ``succ``.  Witnesses come by a, then b, then the lowest u, then
    the lowest w.  The orientation search calls it as its semi-transitive
    rule, just after adding x->y, with up = anc[x]|x and down = desc[y]|y
    of the orientation before that arc, which had no forced shortcut.  That
    is enough: a violation that is new uses x->y on the arc a->b itself or
    on a path a~>u~>w~>b, so a reaches x and y reaches b; neither path
    passes through x->y, since that would make y reach x.
    """
    ma = up
    while ma:
        lowa = ma & -ma
        ma ^= lowa
        a = lowa.bit_length() - 1
        mb = succ[a] & down
        while mb:
            lowb = mb & -mb
            mb ^= lowb
            b = lowb.bit_length() - 1
            between = (desc[a] & anc[b]) | lowa | lowb
            mu = between
            while mu:
                lowu = mu & -mu
                mu ^= lowu
                u = lowu.bit_length() - 1
                bad = desc[u] & between & ~adj[u]
                if bad:
                    # lowest such w, for determinism
                    return (a, b, u, (bad & -bad).bit_length() - 1)
    return None


@lru_cache(maxsize=16)
def _column_bits(n):
    """``col[p][a]``: the bit of pair (a, p), a < p, in an n-vertex bitstring."""
    nbits = n * (n - 1) // 2
    return tuple(tuple(1 << (nbits - 1 - pair_index(a, p, n)) for a in range(p)) for p in range(n))


def canonical_min_bits(n, adj, classes):
    """Minimum upper-triangle adjacency bitstring over class-respecting orders.

    ``classes`` is an ordered partition of [0, n); candidate orderings place
    the vertices of classes[0] first (in any order), then classes[1], etc.
    The bitstring packs bit (i, j), i < j, at position pair_index(i, j, n),
    read as an integer with position 0 most significant.

    Orderings are built depth-first, one position at a time, from a bitmask
    of the still free vertices of each class.  Memory is O(n^4) bits, set by
    ``_column_bits(n)``, cached per n: n(n-1)/2 powers of two of up to
    n(n-1)/2 bits each (7.8 MB at n = 150); the recursion holds one partial
    bitstring per position, O(n^3) bits.  Two prunings leave the minimum
    unchanged:

    - bound: placing position p adds the pairs (a, p), a < p, to a partial
      bitstring.  Bits are only ever added, so a prefix whose partial is not
      below the best bitstring found so far is dropped (as in ``_ext.c``).
    - twins: u and v are twins when their neighbourhoods agree apart from
      each other.  Swapping two free twins is an automorphism that fixes the
      placed prefix, so it maps the completions with v at position p onto
      those with u there, bit for bit.  A free vertex with a free lower twin
      in its class is therefore skipped; the lowest vertex that reaches the
      minimum never is.  Only twins within a class are ever looked up, so
      only those are tabled.
    """
    col = _column_bits(n)
    free = []
    class_at = []
    for ci, cls in enumerate(classes):
        m = 0
        for v in cls:
            m |= 1 << v
        free.append(m)
        class_at += [ci] * len(cls)
    lower_twins = [0] * n
    for cls in classes:
        for v in cls:
            for u in cls:
                if u < v and adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    lower_twins[v] |= 1 << u
    position = [0] * n
    best = 1 << (n * (n - 1) // 2)

    def place(p, placed, bits):
        nonlocal best
        if p == n:
            best = bits
            return
        ci = class_at[p]
        cand = free[ci]
        colp = col[p]
        m = cand
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if lower_twins[v] & cand:
                continue
            nxt = bits
            nb = adj[v] & placed
            while nb:
                lowb = nb & -nb
                nb ^= lowb
                nxt |= colp[position[lowb.bit_length() - 1]]
            if nxt >= best:
                continue
            position[v] = p
            free[ci] = cand ^ low
            place(p + 1, placed | low, nxt)
        free[ci] = cand

    place(0, 0, 0)
    return best
