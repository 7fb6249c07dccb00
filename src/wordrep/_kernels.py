"""Kernel dispatch: compiled extension when available, pure Python otherwise.

The extension (``_ext.c``, written against the CPython C API) works on
64-bit masks, so bitmask kernels fall back to the pure implementation for
graphs with more than 64 vertices (only the word-counting kernel ever sees
such inputs in practice).

``shortcut_in`` (the semi-transitive search's per-arc rule) and ``transpose``
run pure on both backends.
"""

from __future__ import annotations

from . import _kernels_py as _py

try:
    from . import _ext as _c

    HAVE_EXT = True
except ImportError:  # pragma: no cover - depends on build environment
    _c = None
    HAVE_EXT = False

pair_index = _py.pair_index
shortcut_in = _py.shortcut_in
transpose = _py.transpose


def word_pair_counts(letters, n):
    if HAVE_EXT:
        return _c.word_pair_counts(list(letters), n)
    return _py.word_pair_counts(letters, n)


def descendants(n, succ):
    if HAVE_EXT and n <= 64:
        return _c.descendants(n, list(succ))
    return _py.descendants(n, succ)


def is_dag(n, succ):
    if HAVE_EXT and n <= 64:
        return _c.is_dag(n, list(succ))
    return _py.is_dag(n, succ)


def forced_shortcut_pair(n, succ, adj):
    if HAVE_EXT and n <= 64:
        return _c.forced_shortcut_pair(n, list(succ), list(adj))
    return _py.forced_shortcut_pair(n, succ, adj)


def canonical_min_bits(n, adj, classes):
    # the packed bitstring must fit a 64-bit word in the extension
    if HAVE_EXT and n <= 11:
        return _c.canonical_min_bits(n, list(adj), [list(c) for c in classes])
    return _py.canonical_min_bits(n, adj, classes)
