"""Parity between the pure-Python kernels and the compiled extension."""

import ast
import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from itertools import product
from math import factorial, prod
from pathlib import Path
from types import SimpleNamespace

import pytest

import wordrep
from oracles import (
    _non_neighbour_in, long_word_checks, reference_verify_k11, reference_word_pair_counts, relabelled,
    slow_canonical_min_bits, slow_refined_classes,
)
from wordrep import _kernels, _kernels_py, orient, search, verify
from wordrep.core import Graph, _refined_classes, complete_graph, cycle_graph, empty_graph


@pytest.fixture(scope="session")
def ext(tmp_path_factory):
    """``_ext.c``, compiled into a temp dir and loaded from there.

    The source tree stays unbuilt, so the rest of the suite keeps running
    the pure-Python kernels.
    """
    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    if cc is None:
        pytest.skip("no C compiler (cc, gcc or clang) to build the shipped _ext.c")
    source = Path(wordrep.__file__).parent / "_ext.c"
    if not source.is_file():
        pytest.skip(f"no {source} to build: the installed package ships without it")
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").is_file():
        pytest.skip(f"no Python development headers ({include}/Python.h) to build _ext.c against")
    target = tmp_path_factory.mktemp("ext") / ("_ext" + sysconfig.get_config_var("EXT_SUFFIX"))
    # warnings are errors here, so the hand-written C stays free of them
    build = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", "-I" + include,
         str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    built = sys.modules.get("wordrep._ext")
    spec = importlib.util.spec_from_file_location("wordrep._ext", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading may register the module as wordrep._ext; put back what the
    # tree itself imports, so an import of wordrep._ext still finds only that
    if built is None:
        sys.modules.pop("wordrep._ext", None)
    else:
        sys.modules["wordrep._ext"] = built
    return module


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


def _permuted_masks(masks, perm):
    """The relation of ``masks`` with each index i renamed perm[i]."""
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        for j in range(len(masks)):
            if m >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def _random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def test_pair_index_is_dense_upper_triangle():
    n = 6
    seen = sorted(_kernels.pair_index(i, j, n) for i in range(n) for j in range(i + 1, n))
    assert seen == list(range(n * (n - 1) // 2))
    assert _kernels.pair_index(3, 1, n) == _kernels.pair_index(1, 3, n)


KERNEL_NAMES = ("word_pair_counts", "descendants", "is_dag", "forced_shortcut_pair", "canonical_min_bits")


def _spy_backend(monkeypatch, backend):
    """Point the dispatcher at spies that call ``backend``; returns the list
    of kernel names they are called with, in call order."""
    called = []

    def spy(name):
        def call(*args):
            called.append(name)
            return getattr(backend, name)(*args)
        return call

    monkeypatch.setattr(_kernels, "_c", SimpleNamespace(**{name: spy(name) for name in KERNEL_NAMES}))
    monkeypatch.setattr(_kernels, "HAVE_EXT", True)
    return called


def test_dispatcher_uses_extension(ext, monkeypatch):
    called = _spy_backend(monkeypatch, ext)
    G = _random_graph(random.Random(29), 6)
    succ = _random_dag_succ(random.Random(29), 6)
    assert _kernels.word_pair_counts([0, 1, 0], 2) == _kernels_py.word_pair_counts([0, 1, 0], 2)
    assert _kernels.descendants(6, succ) == _kernels_py.descendants(6, succ)
    assert _kernels.is_dag(6, succ) is True
    assert _kernels.forced_shortcut_pair(6, succ, G.adj) == _kernels_py.forced_shortcut_pair(6, succ, G.adj)
    classes = _refined_classes(G)
    assert _kernels.canonical_min_bits(6, G.adj, classes) == _kernels_py.canonical_min_bits(6, G.adj, classes)
    assert called == list(KERNEL_NAMES)


def test_built_extension_is_loaded():
    # in a tree where the extension was built, the dispatcher must load it
    # rather than fall back to pure Python without a word
    pytest.importorskip("wordrep._ext", reason="compiled extension not built in this tree")
    assert _kernels.HAVE_EXT


def test_word_pair_counts_parity(ext):
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(2, 9)
        letters = [rng.randrange(n) for _ in range(rng.randrange(0, 25))]
        assert ext.word_pair_counts(letters, n) == _kernels_py.word_pair_counts(letters, n)
    # alphabets and lengths of the long words verify_k11 checks
    for n, length in [(20, 320)] + [(rng.randrange(9, 21), rng.randrange(25, 321)) for _ in range(40)]:
        letters = [rng.randrange(n) for _ in range(length)]
        assert ext.word_pair_counts(letters, n) == _kernels_py.word_pair_counts(letters, n)
    # alphabets above 64 letters and words whose position masks span many
    # machine words
    for n, length in [(65, 3000), (300, 3000)] + [(rng.randrange(21, 301), rng.randrange(321, 3001)) for _ in range(10)]:
        letters = [rng.randrange(n) for _ in range(length)]
        assert ext.word_pair_counts(letters, n) == _kernels_py.word_pair_counts(letters, n)
    for letters, n in _translate_limit_words(rng):
        assert ext.word_pair_counts(letters, n) == _kernels_py.word_pair_counts(letters, n)


def _translate_limit_words(rng):
    """Words on both sides of each limit of the translate path in
    ``_kernels_py.word_pair_counts``, as (letters, n): alphabets of 256 and
    257 letters, lengths just below and at the length cut-off, a word of
    20,000 letters, the empty word, and words that leave letters out."""
    cut = _kernels_py._LONG_WORD
    sizes = [(256, 3000), (257, 3000), (256, cut), (257, cut), (5, cut - 1), (5, cut), (16, cut - 1), (16, cut)]
    sizes += [(32, 20_000), (7, 0)]
    words = [([rng.randrange(n) for _ in range(length)], n) for n, length in sizes]
    # the last byte value, and the top half or every odd letter absent
    words.append((list(range(256)) * 2, 256))
    for length in (cut - 1, cut, 2000):
        words.append(([rng.randrange(20) for _ in range(length)], 40))
        words.append(([2 * rng.randrange(20) for _ in range(length)], 40))
    return words


def test_word_pair_counts_matches_reference_on_every_short_word():
    # every word over n <= 3 letters up to length 7: the empty word, n = 0
    # and n = 1, and letters that never occur
    for n in range(4):
        for length in range(8):
            for letters in product(range(n), repeat=length):
                assert _kernels_py.word_pair_counts(letters, n) == reference_word_pair_counts(letters, n)


def test_word_pair_counts_matches_reference_on_long_words():
    rng = random.Random(47)
    sizes = [(300, 3000), (65, 64), (64, 65), (200, 10)]
    sizes += [(rng.randrange(2, 301), rng.randrange(0, 3001)) for _ in range(12)]
    for n, length in sizes:
        letters = [rng.randrange(n) for _ in range(length)]
        assert _kernels_py.word_pair_counts(letters, n) == reference_word_pair_counts(letters, n)
    for letters, n in _translate_limit_words(rng):
        assert _kernels_py.word_pair_counts(letters, n) == reference_word_pair_counts(letters, n)


def test_translate_path_matches_reference_on_every_short_word(monkeypatch):
    # the backwards positions of the translate path on every non-empty word
    # over n <= 3 letters up to length 7
    monkeypatch.setattr(_kernels_py, "_LONG_WORD", 1)
    for n in range(1, 4):
        for length in range(1, 8):
            for letters in product(range(n), repeat=length):
                assert _kernels_py.word_pair_counts(letters, n) == reference_word_pair_counts(letters, n)


def test_dag_kernels_parity(ext):
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randrange(1, 10)
        succ = _random_dag_succ(rng, n)
        assert ext.is_dag(n, succ) == _kernels_py.is_dag(n, succ) is True
        assert ext.descendants(n, succ) == _kernels_py.descendants(n, succ)
    # cyclic cases
    succ = [0b010, 0b100, 0b001]
    assert ext.is_dag(3, succ) is False and _kernels_py.is_dag(3, succ) is False
    with pytest.raises(ValueError):
        ext.descendants(3, succ)
    with pytest.raises(ValueError):
        _kernels_py.descendants(3, succ)
    # relabelled DAGs, whose Kahn order is not the index order
    for _ in range(200):
        n = rng.randrange(1, 13)
        succ = _permuted_masks(_random_dag_succ(rng, n), _random_perm(rng, n))
        assert ext.is_dag(n, succ) == _kernels_py.is_dag(n, succ) is True
        assert ext.descendants(n, succ) == _kernels_py.descendants(n, succ)


def test_forced_shortcut_pair_parity(ext):
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
        assert ext.forced_shortcut_pair(n, succ, list(G.adj)) == _kernels_py.forced_shortcut_pair(
            n, succ, list(G.adj)
        )
    # the same kind of partial orientations with the vertices relabelled
    for _ in range(300):
        n = rng.randrange(2, 13)
        G = _random_graph(rng, n)
        succ = [0] * n
        for i, j in G.edges():
            if rng.random() < 0.6:
                succ[i] |= 1 << j
        perm = _random_perm(rng, n)
        succ, adj = _permuted_masks(succ, perm), _permuted_masks(G.adj, perm)
        assert ext.forced_shortcut_pair(n, succ, adj) == _kernels_py.forced_shortcut_pair(n, succ, adj)
    # each edge oriented either way: cyclic ones raise on both backends
    cyclic = 0
    for _ in range(300):
        n = rng.randrange(3, 10)
        G = _random_graph(rng, n)
        succ = [0] * n
        for i, j in G.edges():
            if rng.random() < 0.5:
                succ[i] |= 1 << j
            else:
                succ[j] |= 1 << i
        if _kernels_py.is_dag(n, succ):
            assert ext.forced_shortcut_pair(n, succ, list(G.adj)) == _kernels_py.forced_shortcut_pair(
                n, succ, list(G.adj)
            )
            continue
        cyclic += 1
        with pytest.raises(ValueError):
            ext.forced_shortcut_pair(n, succ, list(G.adj))
        with pytest.raises(ValueError):
            _kernels_py.forced_shortcut_pair(n, succ, list(G.adj))
    assert cyclic >= 50


def test_transpose():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(0, 13)
        masks = [rng.getrandbits(n) for _ in range(n)]
        out = _kernels_py.transpose(masks)
        assert out == [sum(1 << a for a in range(n) if masks[a] >> b & 1) for b in range(n)]
        assert _kernels_py.transpose(out) == masks
    assert _kernels.transpose is _kernels_py.transpose
    with pytest.raises(IndexError):
        _kernels_py.transpose([0b100, 0])


def _perfbench_spans(name):
    """The top-level constant ``name`` of perfbench/spans.py, read from its
    source: ``KERNELS`` names what it looks up on ``wordrep._kernels_py``
    and on a loaded ``wordrep._ext``, ``LAYERS`` the functions it wraps."""
    source = Path(__file__).parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py declares no {name}")


def test_perfbench_kernel_names_exist_in_pure_backend():
    names = _perfbench_spans("KERNELS")
    assert names
    for name in names:
        assert callable(getattr(_kernels_py, name, None)), name


def test_perfbench_kernel_names_exist_in_extension(ext):
    for name in _perfbench_spans("KERNELS"):
        assert callable(getattr(ext, name, None)), name


def test_perfbench_layer_names_exist():
    layers = _perfbench_spans("LAYERS")
    assert layers
    for _, module, functions in layers:
        loaded = importlib.import_module(module)
        for name in functions:
            assert callable(getattr(loaded, name, None)), f"{module}.{name}"


def test_canonical_min_bits_parity(ext):
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randrange(1, 8)
        G = _random_graph(rng, n)
        classes = _refined_classes(G)
        assert ext.canonical_min_bits(n, list(G.adj), classes) == _kernels_py.canonical_min_bits(
            n, list(G.adj), classes
        )


def test_canonical_min_bits_parity_up_to_55_bits(ext):
    # n = 11 packs 55 bits, the most the compiled kernel accepts
    rng = random.Random(53)
    checked = {n: 0 for n in range(8, 12)}
    for _ in range(120):
        n = rng.randrange(8, 12)
        G = _random_graph(rng, n)
        classes = _refined_classes(G)
        if prod(factorial(len(c)) for c in classes) > 5040:
            continue
        assert ext.canonical_min_bits(n, list(G.adj), classes) == _kernels_py.canonical_min_bits(
            n, list(G.adj), classes
        )
        checked[n] += 1
    assert min(checked.values()) >= 10
    # single refined classes of 10 or 11 vertices, far beyond the cap above
    for G in (_petersen(), _complete_bipartite(5, 5), cycle_graph(_labels(10)), complete_graph(_labels(11))):
        classes = _refined_classes(G)
        assert len(classes) == 1
        assert ext.canonical_min_bits(G.n, list(G.adj), classes) == _kernels_py.canonical_min_bits(
            G.n, list(G.adj), classes
        )


def _labels(n):
    return tuple(str(i) for i in range(n))


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_index_edges(_labels(10), outer + inner + [(i, i + 5) for i in range(5)])


def _complete_bipartite(a, b):
    return Graph.from_index_edges(_labels(a + b), [(i, j) for i in range(a) for j in range(a, a + b)])


def _assert_canonical_kernels_match_oracles(G):
    classes = _refined_classes(G)
    assert classes == slow_refined_classes(G)
    assert _kernels_py.canonical_min_bits(G.n, G.adj, classes) == slow_canonical_min_bits(
        G.n, G.adj, classes
    )


def test_canonical_kernels_match_oracles_up_to_7():
    rng = random.Random(61)
    for n in range(1, 8):
        for G in search.enumerate_nonisomorphic(n):
            _assert_canonical_kernels_match_oracles(G)
            _assert_canonical_kernels_match_oracles(relabelled(rng, G))


def test_canonical_kernels_match_oracles_8_to_10():
    # densities from sparse to dense, so that many refined partitions keep
    # classes of several vertices; at most 8! orderings for the oracle
    rng = random.Random(71)
    checked = {n: 0 for n in range(8, 11)}
    symmetric = {n: 0 for n in range(8, 11)}
    for _ in range(150):
        n = rng.randrange(8, 11)
        p = rng.choice((0.1, 0.25, 0.5, 0.75, 0.9))
        G = Graph.from_index_edges(
            _labels(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )
        orderings = prod(factorial(len(c)) for c in _refined_classes(G))
        if orderings > 40320:
            continue
        _assert_canonical_kernels_match_oracles(G)
        checked[n] += 1
        symmetric[n] += orderings > 1
    assert min(checked.values()) >= 30 and min(symmetric.values()) >= 20


def _twin_graphs():
    graphs = [complete_graph(_labels(n)) for n in range(1, 8)]
    graphs += [empty_graph(_labels(n)) for n in range(1, 8)]
    graphs += [_complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 9 - a)]
    # x-y an edge; f0..f2 false twins on x (pairwise non-adjacent), t0..t2
    # true twins on y (pairwise adjacent)
    x, y, f, t = 0, 1, (2, 3, 4), (5, 6, 7)
    pairs = [(x, y)] + [(x, v) for v in f] + [(y, v) for v in t]
    pairs += [(u, v) for u in t for v in t if u < v]
    graphs.append(Graph.from_index_edges(_labels(8), pairs))
    return graphs


def test_canonical_kernels_match_oracles_on_twins():
    rng = random.Random(79)
    for G in _twin_graphs():
        _assert_canonical_kernels_match_oracles(G)
        _assert_canonical_kernels_match_oracles(relabelled(rng, G))


def test_compiled_canonical_min_bits_on_twins(ext):
    # the compiled kernel skips twins by the pure kernel's rule
    rng = random.Random(83)
    for G in _twin_graphs():
        for H in (G, relabelled(rng, G)):
            classes = _refined_classes(H)
            assert ext.canonical_min_bits(H.n, list(H.adj), classes) == slow_canonical_min_bits(
                H.n, H.adj, classes
            )


def test_compiled_canonical_min_bits_rejects_non_partition(ext):
    adj = [0b110, 0b101, 0b011]
    for classes in ([[0, 1], [1]], [[0, 1]], [[0, 1, 2, 0]], [[0, 3], [1]], [[-1], [0, 1]]):
        with pytest.raises(ValueError, match="partition"):
            ext.canonical_min_bits(3, adj, classes)


def test_enumeration_through_extension(ext, monkeypatch):
    monkeypatch.setattr(_kernels, "HAVE_EXT", False)
    monkeypatch.setattr(search, "_enum_cache", {})
    pure = [G.adj for G in search.enumerate_nonisomorphic(7)]
    monkeypatch.setattr(search, "_enum_cache", {})
    called = _spy_backend(monkeypatch, ext)
    assert [G.adj for G in search.enumerate_nonisomorphic(7)] == pure
    assert "canonical_min_bits" in called


def test_long_word_verify_through_extension(ext, monkeypatch):
    w, k, G, checked = long_word_checks(random.Random(53), 24, 3000)
    called = _spy_backend(monkeypatch, ext)
    assert verify.graph_of_word(w, k) == G
    assert [verify.verify_k11(w, H, k) for H in checked] == [reference_verify_k11(w, H, k) for H in checked]
    assert called == ["word_pair_counts"] * (1 + len(checked))


def test_dispatcher_size_guards(monkeypatch):
    # beyond 64 vertices (11 for canonical forms) the dispatcher must fall
    # back to pure Python even when the extension is loaded
    called = _spy_backend(monkeypatch, _kernels_py)
    n = 70
    succ = [0] * n
    assert _kernels.is_dag(n, succ)
    assert _kernels.descendants(n, succ) == [0] * n
    adj = [0] * n
    assert _kernels.forced_shortcut_pair(n, succ, adj) is None
    path = Graph.from_index_edges(tuple(str(i) for i in range(12)), [(i, i + 1) for i in range(11)])
    classes = _refined_classes(path)
    assert _kernels.canonical_min_bits(12, path.adj, classes) == _kernels_py.canonical_min_bits(
        12, path.adj, classes
    )
    assert called == []


def _full_reachability(n, succ):
    """Strict descendant and ancestor masks of ``succ``, recomputed from
    scratch.  Raises ValueError on a directed cycle."""
    desc = _kernels_py.descendants(n, succ)
    return desc, [sum(1 << i for i in range(n) if desc[i] >> j & 1) for j in range(n)]


def _reference_add_arc(n, succ, adj):
    """The reachability of ``succ`` recomputed from scratch, or None where
    the semi-transitive search must reject its last arc: on a cycle or a
    forced shortcut."""
    try:
        reach = _full_reachability(n, succ)
    except ValueError:
        return None
    return None if _kernels_py.forced_shortcut_pair(n, succ, adj) is not None else reach


def _reference_add_transitive_arc(n, succ, adj):
    """The reachability of ``succ`` recomputed from scratch, or None where
    the transitive search must reject its last arc: on a cycle or on a
    vertex reaching a non-neighbour."""
    try:
        reach = _full_reachability(n, succ)
    except ValueError:
        return None
    return None if any(d & ~a for d, a in zip(reach[0], adj)) else reach


def _rule_calls(seed, trials, rule, check):
    """Run ``orient._search`` with the per-arc ``rule`` on ``trials`` seeded
    random graphs (n = 5..12), calling ``check(n, adj, succ, desc, anc, up,
    down, verdict)`` on every call of the rule, with the rule's verdict."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randrange(5, 13)

        def spy(succ, adj, desc, anc, up, down):
            verdict = rule(succ, adj, desc, anc, up, down)
            check(n, adj, succ, desc, anc, up, down, verdict)
            return verdict

        orient._search(_random_graph(rng, n), None, spy)


def _check_arc_step(reference, counts):
    """A ``_rule_calls`` check: ``desc``/``anc`` after the arc step equal a
    full recompute (so the search drops a cycle before any rule sees it),
    and the rule rejects exactly the arcs ``reference`` rejects.
    ``counts[rejected?]`` counts the verdicts."""

    def check(n, adj, succ, desc, anc, up, down, verdict):
        assert (desc, anc) == _full_reachability(n, succ)
        assert reference(n, succ, adj) == (None if verdict is not None else (desc, anc))
        counts[verdict is not None] += 1

    return check


def test_add_arc_matches_full_recompute():
    counts = [0, 0]
    _rule_calls(47, 50, _kernels_py.shortcut_in, _check_arc_step(_reference_add_arc, counts))
    accepted, rejected = counts
    # both outcomes are exercised, not only the easy one
    assert rejected > 100 and accepted > 1000


def test_add_transitive_arc_matches_full_recompute():
    counts = [0, 0]
    _rule_calls(53, 200, _non_neighbour_in, _check_arc_step(_reference_add_transitive_arc, counts))
    accepted, rejected = counts
    assert rejected > 100 and accepted > 1000


def test_shortcut_in_witnesses_are_forced_shortcuts():
    seen = []

    def check(n, adj, succ, desc, anc, up, down, verdict):
        if verdict is None:
            return
        a, b, u, w = verdict
        desc, anc = _full_reachability(n, succ)
        assert succ[a] >> b & 1 and up >> a & 1 and down >> b & 1
        between = (desc[a] & anc[b]) | 1 << a | 1 << b
        assert between >> u & 1 and between >> w & 1
        assert desc[u] >> w & 1 and not adj[u] >> w & 1
        seen.append(verdict)

    _rule_calls(59, 50, _kernels_py.shortcut_in, check)
    assert len(seen) > 100


def test_non_neighbour_in_witnesses_are_reachable_non_neighbours():
    seen = []

    def check(n, adj, succ, desc, anc, up, down, verdict):
        if verdict is None:
            return
        a, w = verdict
        assert up >> a & 1 and down >> w & 1 and not adj[a] >> w & 1
        assert _full_reachability(n, succ)[0][a] >> w & 1
        seen.append(verdict)

    _rule_calls(61, 200, _non_neighbour_in, check)
    assert len(seen) > 100
