"""Per-call time of each kernel, on every backend that can be imported.

The inputs are made here from the seed; the canonical_min_bits vertex
classes come from a degree refinement written in this file, not from the
program's own.
"""

from __future__ import annotations

import importlib
import random
import statistics
from time import perf_counter

from spans import KERNELS

BACKENDS = (("pure", "wordrep._kernels_py"), ("ext", "wordrep._ext"))
REPEATS = 5


def backends() -> list[tuple[str, object]]:
    """(name, module) of every kernel backend that imports."""
    found = []
    for name, mod_name in BACKENDS:
        try:
            found.append((name, importlib.import_module(mod_name)))
        except ImportError:
            continue
    return found


def _random_adj(rng: random.Random, n: int, p: float = 0.4) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _random_dag(rng: random.Random, n: int, p: float = 0.4) -> list[int]:
    return [sum(1 << j for j in range(i + 1, n) if rng.random() < p) for i in range(n)]


def degree_classes(adj: list[int]) -> list[list[int]]:
    """Vertices grouped by (degree, sorted neighbour degrees), in sorted order."""
    n = len(adj)
    deg = [m.bit_count() for m in adj]
    key = [(deg[i], tuple(sorted(deg[j] for j in range(n) if adj[i] >> j & 1))) for i in range(n)]
    return [[i for i in range(n) if key[i] == k] for k in sorted(set(key))]


def inputs(seed: int) -> dict[str, list[tuple]]:
    rng = random.Random(seed)
    dags = [(14, _random_dag(rng, 14)) for _ in range(200)]
    shortcut = []
    for _ in range(200):
        adj = _random_adj(rng, 12)
        succ = [s & adj[i] for i, s in enumerate(_random_dag(rng, 12, 0.25))]
        shortcut.append((12, succ, adj))
    canon = []
    for _ in range(50):
        adj = _random_adj(rng, 8)
        canon.append((8, adj, degree_classes(adj)))
    return {
        "word_pair_counts": [([rng.randrange(12) for _ in range(60)], 12) for _ in range(200)],
        "descendants": dags,
        "is_dag": dags,
        "forced_shortcut_pair": shortcut,
        "canonical_min_bits": canon,
    }


def us_per_call(fn, args_list) -> float:
    """Median over REPEATS passes of the mean time per call, in microseconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for args in args_list:
            fn(*args)
        times.append((perf_counter() - start) / len(args_list))
    return statistics.median(times) * 1e6


def run(seed: int) -> dict[str, float]:
    """``kernels.<name>.us_per_call.<backend>`` for every importable backend."""
    cases = inputs(seed)
    out = {}
    for backend, mod in backends():
        for name in KERNELS:
            out[f"kernels.{name}.us_per_call.{backend}"] = us_per_call(getattr(mod, name), cases[name])
    return out
