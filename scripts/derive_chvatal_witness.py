#!/usr/bin/env python3
"""Derive a uniform 0-11-representant of the augmented Chvatal graph.

Simulated annealing over t-uniform words: the energy of a candidate is the
number of pair-level violations (an edge pair with any 11 occurrence, or a
non-edge pair with none).  A zero-energy word is re-verified exactly and
printed; it is then frozen into wordrep.catalog as
CHVATAL_AUGMENTED_UNIFORM_WORD.

Usage: python3 scripts/derive_chvatal_witness.py [t] [seed]
"""

import random
import sys

from wordrep import catalog
from wordrep.core import Word
from wordrep.verify import verify_k11
from wordrep._kernels import pair_index, word_pair_counts


def energy(letters, n, adj):
    counts = word_pair_counts(letters, n)
    bad = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = counts[pair_index(i, j, n)]
            if adj[i] >> j & 1:
                bad += d
            elif d == 0:
                bad += 1
    return bad


def anneal(G, t, rng, iters=200_000):
    n = G.n
    letters = [i for i in range(n) for _ in range(t)]
    rng.shuffle(letters)
    e = energy(letters, n, G.adj)
    temp = 2.0
    for step in range(iters):
        if e == 0:
            return letters
        temp = max(0.05, 2.0 * (1 - step / iters))
        a, b = rng.randrange(len(letters)), rng.randrange(len(letters))
        if letters[a] == letters[b]:
            continue
        letters[a], letters[b] = letters[b], letters[a]
        e2 = energy(letters, n, G.adj)
        if e2 <= e or rng.random() < pow(2.718, -(e2 - e) / temp):
            e = e2
        else:
            letters[a], letters[b] = letters[b], letters[a]
    return None


def main():
    t = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    G = catalog.get("chvatal-augmented").graph
    rng = random.Random(seed)
    for attempt in range(200):
        letters = anneal(G, t, rng)
        if letters is None:
            print(f"attempt {attempt}: no luck")
            continue
        word = Word(G.labels, tuple(letters))
        verdict = verify_k11(word, G, 0)
        if verdict:
            print("verified uniform representant:")
            print(str(word))
            return 0
        print(f"attempt {attempt}: annealer lied? {verdict.witness}")
    print("failed")
    return 1


if __name__ == "__main__":
    sys.exit(main())
