"""One call into every traced layer, on catalog graphs.

A traced run ends with this pass inside its spans, so every per-layer
metric is measured on every workload, including layers that the
workload's own ops never reach.  Functions are looked up on their modules
at call time, so the spans installed around them apply.
"""

from __future__ import annotations

from wordrep import catalog, core, search, verify


def layer_pass() -> bool:
    """Run the pass; True when every answer is the known one."""
    ok = catalog.verify_catalog().all_ok
    for name in ("w5", "graph12", "graph17"):
        entry = catalog.get(name)
        search.canonical_form(entry.graph)
        ok = ok and not search.is_word_representable(entry.graph)
        for w, k in entry.golden_words:
            ok = ok and verify.graph_of_word(w, k).same_graph(entry.graph)
    # 11 graphs on 4 vertices; the 5-cycle is 2-uniform representable
    ok = ok and len(list(search.enumerate_nonisomorphic(4))) == 11
    c5 = core.cycle_graph(("1", "2", "3", "4", "5"))
    return ok and search.find_uniform_representant(c5) is not None
