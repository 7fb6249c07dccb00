"""Parity between the pure-Python kernels and the compiled extension."""

import random

import pytest

from wordrep import _kernels, _kernels_py
from wordrep.core import Graph, _refined_classes

try:
    from wordrep import _ext
except ImportError:
    _ext = None

needs_ext = pytest.mark.skipif(_ext is None, reason="compiled extension not built")


def _random_graph(rng, n):
    labels = tuple(str(i) for i in range(n))
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return Graph.from_edges(labels, edges)


def _random_dag_succ(rng, n):
    """Successor masks of a random DAG (arcs only low index -> high index)."""
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                succ[i] |= 1 << j
    return succ


def test_pair_index_is_dense_upper_triangle():
    n = 6
    seen = sorted(_kernels.pair_index(i, j, n) for i in range(n) for j in range(i + 1, n))
    assert seen == list(range(n * (n - 1) // 2))
    assert _kernels.pair_index(3, 1, n) == _kernels.pair_index(1, 3, n)


@needs_ext
def test_dispatcher_uses_extension():
    from wordrep._kernels import HAVE_EXT

    assert HAVE_EXT


@needs_ext
def test_word_pair_counts_parity():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(2, 9)
        letters = [rng.randrange(n) for _ in range(rng.randrange(0, 25))]
        assert _ext.word_pair_counts(letters, n) == _kernels_py.word_pair_counts(letters, n)


@needs_ext
def test_dag_kernels_parity():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randrange(1, 10)
        succ = _random_dag_succ(rng, n)
        assert _ext.is_dag(n, succ) == _kernels_py.is_dag(n, succ) is True
        assert _ext.descendants(n, succ) == _kernels_py.descendants(n, succ)
    # cyclic cases
    succ = [0b010, 0b100, 0b001]
    assert _ext.is_dag(3, succ) is False and _kernels_py.is_dag(3, succ) is False
    with pytest.raises(ValueError):
        _ext.descendants(3, succ)
    with pytest.raises(ValueError):
        _kernels_py.descendants(3, succ)


@needs_ext
def test_forced_shortcut_pair_parity():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randrange(2, 9)
        G = _random_graph(rng, n)
        # random partial orientation of G's edges, acyclic by index order
        succ = [0] * n
        for i, j in G.edges():
            r = rng.random()
            if r < 0.4:
                succ[i] |= 1 << j
            elif r < 0.8:
                pass  # leave unoriented
            else:
                succ[i] |= 1 << j
        assert _ext.forced_shortcut_pair(n, succ, list(G.adj)) == _kernels_py.forced_shortcut_pair(
            n, succ, list(G.adj)
        )


@needs_ext
def test_canonical_min_bits_parity():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randrange(1, 8)
        G = _random_graph(rng, n)
        classes = _refined_classes(G)
        assert _ext.canonical_min_bits(n, list(G.adj), classes) == _kernels_py.canonical_min_bits(
            n, list(G.adj), classes
        )


def test_dispatcher_size_guards():
    # beyond 64 vertices the dispatcher must fall back to pure Python
    n = 70
    succ = [0] * n
    assert _kernels.is_dag(n, succ)
    assert _kernels.descendants(n, succ) == [0] * n
    adj = [0] * n
    assert _kernels.forced_shortcut_pair(n, succ, adj) is None
