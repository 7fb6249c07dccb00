"""Spans around wordrep's layer boundaries, installed from outside the package.

``Instrumentation`` replaces each listed public function with a wrapper in
every wordrep module that binds it (``from .orient import ...`` makes a
second binding in ``search``), and puts the originals back on ``remove``.
Kernels are wrapped inside the backend modules themselves, so a kernel that
calls another (``forced_shortcut_pair`` calls ``descendants`` in the pure
backend) shows up as a child span.

A span has a name, start, end and parent.  The tracer aggregates calls,
total time and self time per name as spans close, and keeps up to
``keep`` raw spans for writing out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

# (layer, module, public functions).  Graph.__init__ is wrapped separately
# as core.graph_init.  core.iter_mask and the other word primitives are
# left out: they are called inside every inner loop, and wrapping them
# would measure the tracer rather than the program.
LAYERS = (
    ("search", "wordrep.search", (
        "canonical_form", "enumerate_nonisomorphic", "census_non_word_representable",
        "is_word_representable", "find_uniform_representant", "find_k11_representant",
        "chromatic_number",
    )),
    ("orient", "wordrep.orient", (
        "search_semi_transitive", "search_transitive", "is_semi_transitive",
        "is_acyclic", "find_shortcut",
    )),
    ("verify", "wordrep.verify", ("verify_k11", "graph_of_word", "induces_copy")),
    ("construct", "wordrep.construct", (
        "double_word", "remove_edge_sets", "remove_matching", "split_word",
        "mycielski_cycle_word", "mycielski", "comp_plus_ind_word",
        "comparability_perm_rep", "three_perm_graph",
    )),
    ("catalog", "wordrep.catalog", ("verify_catalog", "get")),
)
KERNELS = ("word_pair_counts", "descendants", "is_dag", "forced_shortcut_pair", "canonical_min_bits")
KERNEL_MODULES = ("wordrep._kernels_py", "wordrep._ext")

# span names shortened in reports
RENAMES = {"search.enumerate_nonisomorphic": "search.enumerate"}

# spans whose distinct return values are counted (useful-work ratio)
DISTINCT = ("search.canonical_form",)


class Tracer:
    """In-memory spans and per-name aggregates for one process."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.distinct: dict[int, set] = {}
        self.distinct_count: dict[int, int] = {}
        # entries into a layer from outside it (nested calls not recounted)
        self.layer_calls: dict[str, int] = {}
        self.layer_total: dict[str, float] = {}
        self.root_total = 0.0
        # raw spans: name id, start, end, parent index (-1 root)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # open frames: [name id, start, child time, raw index, suspended time]
        self._stack: list[list] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            if name in DISTINCT:
                self.distinct[self._ids[name]] = set()
        return self._ids[name]

    def open(self, nid: int) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        idx = -1
        if len(self.span_name) < self.keep:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
        frame = [nid, 0.0, 0.0, idx, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        nid, start, child, idx, suspended = frame
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child - suspended
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end
        layer = self.names[nid].split(".", 1)[0]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur - suspended
            if self.names[parent[0]].split(".", 1)[0] == layer:
                return
        else:
            self.root_total += dur - suspended
        self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
        self.layer_total[layer] = self.layer_total.get(layer, 0.0) + dur - suspended

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            # time the generator over its consumption, not over the call
            # that merely creates it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._traced_iter(nid, fn(*args, **kwargs))

            return gen_wrapper

        distinct = self.distinct.get(nid)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if distinct is not None:
                distinct.add(out)
            return out

        return wrapper

    def _traced_iter(self, nid, it):
        frame = self.open(nid)
        paused = None
        try:
            for item in it:
                # while the consumer runs, its spans are not this span's
                # children and its time is not this span's self time
                self._stack.pop()
                paused = perf_counter()
                yield item
                frame[4] += perf_counter() - paused
                paused = None
                self._stack.append(frame)
        finally:
            if paused is not None:  # closed by the consumer mid-way
                frame[4] += perf_counter() - paused
            self.close(frame)

    def end_op(self) -> None:
        """Count distinct outputs per op, so that forked and inline ops agree."""
        for nid, seen in self.distinct.items():
            self.distinct_count[nid] = self.distinct_count.get(nid, 0) + len(seen)
            seen.clear()

    def distinct_of(self, name: str) -> int:
        return self.distinct_count.get(self._ids.get(name, -1), 0)

    # -- moving a forked child's spans into the parent ------------------

    def reset(self) -> int:
        """Zero the aggregates in a forked child; returns its first span index."""
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.distinct_count = {}
        self.layer_calls = {}
        self.layer_total = {}
        self.root_total = 0.0
        return len(self.span_name)

    def export(self, first_span: int) -> dict:
        return {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "distinct": self.distinct_count,
            "layer_calls": self.layer_calls,
            "layer_total": self.layer_total,
            "root_total": self.root_total,
            "spans": (
                self.span_name[first_span:], self.span_start[first_span:],
                self.span_end[first_span:], self.span_parent[first_span:],
            ),
        }

    def merge(self, part: dict) -> None:
        """Add a forked child's ``export``.

        The child inherited this tracer at fork and the parent recorded
        nothing until the child ended, so name ids and span indices agree.
        """
        for nid, c in enumerate(part["calls"]):
            self.calls[nid] += c
            self.total[nid] += part["total"][nid]
            self.self_time[nid] += part["self"][nid]
        for nid, c in part["distinct"].items():
            self.distinct_count[nid] = self.distinct_count.get(nid, 0) + c
        for k, v in part["layer_calls"].items():
            self.layer_calls[k] = self.layer_calls.get(k, 0) + v
        for k, v in part["layer_total"].items():
            self.layer_total[k] = self.layer_total.get(k, 0.0) + v
        self.root_total += part["root_total"]
        names, starts, ends, parents = part["spans"]
        self.span_name.extend(names)
        self.span_start.extend(starts)
        self.span_end.extend(ends)
        self.span_parent.extend(parents)

    # -- reading ---------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def layer(self, layer: str) -> tuple[int, float]:
        """(entries, seconds) of a layer, nested calls within it not recounted."""
        return self.layer_calls.get(layer, 0), self.layer_total.get(layer, 0.0)

    def self_shares(self) -> list[tuple[str, float]]:
        """Self time per span name as a share of all root span time."""
        base = self.root_total or 1.0
        rows = [(n, self.self_time[i] / base) for i, n in enumerate(self.names) if self.calls[i]]
        return sorted(rows, key=lambda r: -r[1])

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i])
            for i in range(len(self.span_name))
        ]


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) in wordrep that binds ``fn``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wordrep" or mod_name.startswith("wordrep.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class Instrumentation:
    """Spans around the layers' public functions and the kernels.

    ``install`` and ``remove`` swap the wrappers in and out, so traced and
    untraced runs of the same op can alternate.
    """

    def __init__(self, tracer: Tracer):
        from wordrep.core import Graph

        self.patches: list[tuple[object, str, object, object]] = []
        for layer, mod_name, funcs in LAYERS:
            mod = importlib.import_module(mod_name)
            for func in funcs:
                fn = getattr(mod, func)
                name = RENAMES.get(f"{layer}.{func}", f"{layer}.{func}")
                wrapped = tracer.wrap(name, fn)
                self.patches += [(owner, attr, fn, wrapped) for owner, attr in _bindings(fn)]
        for mod_name in KERNEL_MODULES:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            for func in KERNELS:
                fn = getattr(mod, func)
                self.patches.append((mod, func, fn, tracer.wrap(f"kernels.{func}", fn)))
        self.patches.append((Graph, "__init__", Graph.__init__, tracer.wrap("core.graph_init", Graph.__init__)))

    def install(self) -> None:
        for owner, attr, _fn, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, fn, _wrapped in reversed(self.patches):
            setattr(owner, attr, fn)
