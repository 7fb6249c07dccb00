"""Tests of the benchmark's own logic: inputs, checks, failure accounting
and spans.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import checks
import gauge
import run
import workloads
from microbench import degree_classes
from spans import Instrumentation, Tracer
from wordrep import Word, catalog, search
from wordrep.orient import BudgetExceeded


def _kinds(ops):
    return [op.kind for op in ops]


def _decide_facts(op):
    """The planted facts an op's check holds: (adj, colours) or (adj, core, placement)."""
    return op.check.args


# -- inputs -------------------------------------------------------------


def test_same_seed_same_inputs():
    a, b = workloads.build("decide", 3), workloads.build("decide", 3)
    assert [_decide_facts(x) for x in a] == [_decide_facts(y) for y in b]


@pytest.mark.parametrize("workload", ["decide", "represent"])
def test_other_seed_other_inputs(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert len(a) == len(b)
    assert [x.args for x in a] != [y.args for y in b]


@pytest.mark.parametrize("seed", [1, 2])
def test_planted_verdicts_check_out(seed):
    ops = workloads.build("decide", seed)
    kinds = _kinds(ops)
    assert kinds.count("decide.yes") == 2 * sum(k.startswith("decide.no.") for k in kinds)
    for op in ops:
        if op.kind == "decide.yes":
            adj, colours = _decide_facts(op)
            assert checks.colouring_ok(adj, colours)
            assert checks.connected(adj) and 10 <= len(adj) <= 13
        else:
            adj, core, placement = _decide_facts(op)
            assert checks.planted_core_ok(adj, core, placement)
            assert checks.connected(adj)


@pytest.mark.parametrize("seed", [1, 2])
def test_decide_ops_pass_their_checks(seed):
    ops = workloads.build("decide", seed)[:6]
    failed, items, failures = run.score(ops, [run.run_one(ops, i) for i in range(len(ops))])
    assert (failed, items, failures) == (0, 6, [])


def test_traced_represent_run_covers_three_passes():
    assert run.TRACE_OPS["represent"] == 3 * len(workloads.build("represent", 1))


def test_represent_ops_pass_their_checks():
    # everything but the slow bw3 search, which comes first in a pass
    ops = workloads.build("represent", 5)[1:]
    failed, items, failures = run.score(ops, [run.run_one(ops, i) for i in range(len(ops))])
    assert (failed, failures) == (0, [])
    assert items == len(ops)


def test_non_representable_cores_match_the_catalog():
    for name, (size, edges) in checks.NON_WORD_REPRESENTABLE.items():
        G = catalog.get(name).graph
        assert G.n == size
        assert {frozenset(map(str, e)) for e in edges} == {frozenset(e) for e in G.edge_labels()}


# -- failures are counted -------------------------------------------------


def _records(ops, outputs):
    return [(i, 0.001, out, None, 0) for i, out in enumerate(outputs)]


def test_wrong_verdict_is_a_failure():
    ops = workloads.build("decide", 1)[:3]  # yes, yes, no
    good = [run.run_one(ops, i)[2] for i in range(3)]
    assert run.score(ops, _records(ops, good))[0] == 0
    # a yes-instance answered "no", and the no-instance answered with the
    # orientation found for a yes-instance
    wrong = [None, good[1], good[0]]
    failed, items, failures = run.score(ops, _records(ops, wrong))
    assert failed == 2 and items == 1
    assert failures[0].startswith("decide.yes (op 0)")


def _corrupt_drop_letter(w):
    return Word(w.alphabet, tuple(a for a in w.letters if a != w.letters[0]))


def _corrupt_double_last(w):
    return Word(w.alphabet, w.letters + (w.letters[-1],))


@pytest.mark.parametrize("corrupt", [_corrupt_drop_letter, _corrupt_double_last])
def test_corrupted_word_is_a_failure(monkeypatch, corrupt):
    ops = [op for op in workloads.build("represent", 1) if op.func == "mycielski_cycle_word"]
    original = ops[0].module.mycielski_cycle_word
    monkeypatch.setattr(ops[0].module, "mycielski_cycle_word", lambda n: corrupt(original(n)))
    records, _wall, _speeds = run.run_ops(ops, seconds=0.0)
    failed, items, _ = run.score(ops, records)
    assert failed == len(records) >= run.MIN_OPS and items == 0


def test_exception_and_budget_exceeded_are_failures():
    no_op = workloads.build("decide", 1)[2]
    starved = dataclasses.replace(no_op, kwargs={"max_nodes": 1})
    rec = run.run_one([starved], 0)
    assert rec[3].startswith(BudgetExceeded.__name__)
    assert run.score([starved], [rec])[0] == 1
    broken = dataclasses.replace(no_op, args=())
    assert run.score([broken], [run.run_one([broken], 0)])[0] == 1


def test_census_checked_against_published_counts():
    op = workloads.Op(
        "census6", search, "census_non_word_representable", (6,),
        partial(workloads._census_check, 6), items=112, forked=True,
    )
    rec = run.run_one([op], 0)
    assert rec[3] is None and rec[4] > 0  # no error; the child's peak RSS
    assert run.score([op], [rec])[:2] == (0, 112)
    short = dataclasses.replace(rec[2], non_word_representable=())
    assert run.score([op], [(0, 0.1, short, None, 0)])[0] == 1


# -- independent checks ------------------------------------------------------


def test_orientation_check_from_the_definition():
    entry = catalog.get("chvatal-augmented")
    D = entry.golden_orientations[0]
    assert checks.orientation_ok(entry.graph.adj, D.succ)
    # the 4-cycle as path 0->1->2->3 plus the shortcut arc 0->3, with 0 and
    # 2 non-adjacent
    c4 = [0b1010, 0b0101, 0b1010, 0b0101]
    assert not checks.orientation_ok(c4, [0b1010, 0b0100, 0b1000, 0])
    triangle = [0b110, 0b101, 0b011]
    assert not checks.orientation_ok(triangle, [0b010, 0b100, 0b001])  # a cycle
    assert checks.orientation_ok(triangle, [0b110, 0b100, 0])
    assert not checks.orientation_ok(triangle, [0b110, 0b000, 0])  # edge 1-2 unoriented


def test_count_11_by_definition():
    assert checks.count_11("xxyxyy", "x", "y") == 2
    assert checks.word_represents(list("abab"), ["a", "b"], {frozenset("ab")}, 0)
    assert not checks.word_represents(list("aabb"), ["a", "b"], {frozenset("ab")}, 0)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert value == 29.0 and sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == 75.0


def test_every_op_lies_between_two_gauge_samples(monkeypatch):
    samples = iter(range(1, 100))
    monkeypatch.setattr(gauge, "sample", lambda: float(next(samples)))
    monkeypatch.setattr(run, "GAUGE_EVERY_S", 0.0)  # a sample after every op
    idle = workloads.Op("idle", time, "sleep", (0.0,), lambda out: out is None)
    records, _wall, speeds = run.run_ops([idle], seconds=0.0)
    assert len(records) == run.MIN_OPS
    assert speeds == [(i + i + 1) / (2 * gauge.NOMINAL_S) for i in range(1, run.MIN_OPS + 1)]


def test_gauge_is_fixed_and_leaves_the_collector_as_it_was():
    import gc

    assert gauge.work() == gauge.work() == len(gauge.GRAPHS)
    assert gauge.sample() > 0 and gc.isenabled()
    gc.disable()
    try:
        gauge.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_degree_classes_partition_the_vertices():
    adj = [0b0010, 0b0101, 0b1010, 0b0100]  # path 0-1-2-3
    assert degree_classes(adj) == [[0, 3], [1, 2]]


# -- spans ---------------------------------------------------------------------


def test_generator_spans_cover_consumption_not_the_consumer():
    tracer = Tracer()

    def slow_gen():
        for i in range(3):
            time.sleep(0.01)
            yield i

    gen = tracer.wrap("search.gen", slow_gen)
    for _ in gen():
        time.sleep(0.02)
    calls, total, self_s = tracer.stat("search.gen")
    assert calls == 1
    assert 0.03 <= self_s < 0.05  # the generator's own sleeps only
    assert total >= 0.09  # from first item to exhaustion


def test_instrumentation_records_layers_and_restores():
    tracer = Tracer()
    spans = Instrumentation(tracer)
    before = search.canonical_form
    spans.install()
    try:
        graphs = list(search.enumerate_nonisomorphic(4))
    finally:
        spans.remove()
    assert search.canonical_form is before
    assert len(graphs) == 11
    assert tracer.stat("search.enumerate")[1] > 0
    assert tracer.stat("search.canonical_form")[0] > 0
    assert tracer.stat("kernels.canonical_min_bits")[0] == tracer.stat("search.canonical_form")[0]


# -- the command ---------------------------------------------------------------


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = Path(run.__file__).parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
