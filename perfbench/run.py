#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of wordrep.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 36 --trace 0

Workloads (built from the seed in workloads.py):
  census7    census_non_word_representable(7), each call in a freshly forked
             child of a process that has imported wordrep and enumerated
             nothing, as every `wordrep census 7` invocation starts
  decide     search_semi_transitive on connected 10-13 vertex graphs whose
             verdict is planted: a proper 3-colouring (yes) or an induced
             non-word-representable graph (no)
  represent  word requests: uniform representants, the self-verifying
             constructors and verify_k11 on long words

Load is a closed loop with one client in one process: ops run back to back
for --seconds, on whichever kernel backend wordrep selects.  Every output is
checked afterwards by independent code (checks.py), outside the timed
region.  An op fails on a wrong verdict, an output that fails its check,
any exception, or BudgetExceeded.

--trace 0 prints the end-to-end metrics.  Their timings are host-corrected:
a fixed reference computation that shares no code with wordrep
(gauge.py) is timed between ops, and each op's time and each set-up time
is divided by the host speed measured around it (reference time over its
idle-host time), so that load from other tenants of a shared host cancels
out.  items_per_s is items completed and checked per second of corrected
op time.  The raw wall-clock figures are kept in the run record.

--trace 1 runs each of a fixed number of the workload's ops (TRACE_OPS,
not --seconds, so that its counts repeat exactly for a seed) once
untraced and once traced, in random order, then one pass through every
traced layer on catalog graphs (layer_pass.py).  It prints the per-layer
metrics, the tracing overhead and the kernel microbenchmark of every
importable backend.

The lines before the last describe the run; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record, with the spans of a traced run, is written to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("census7", "decide", "represent")
# set-up is timed in this many fresh interpreters, after one that warms the
# bytecode cache
SETUP_REPEATS = 11
# op_tail_s needs at least 10 samples beyond it
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# represent runs its one seconds-long search (bw3) once a pass; at least
# this many passes keep op_tail_s among those searches on a slow host
MIN_PASSES = {"represent": TAIL_BEYOND + 3}
# ops run untraced and traced in a --trace 1 run: fixed counts, so that span
# counts repeat exactly for a seed (represent: three passes of 102 ops, so
# that the overhead ratio, which bw3 dominates, rests on three pairs of bw3
# calls)
TRACE_OPS = {"census7": 3, "decide": 90, "represent": 3 * 102}
# seconds of op time between two samples of the host gauge
GAUGE_EVERY_S = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- running ops --------------------------------------------------------


def run_inline(op, tracer=None):
    """(seconds, output, error) of one op in this process."""
    start = perf_counter()
    try:
        out, err = op.call(), None
    except Exception as exc:  # any exception is a failed op; the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    return seconds, out, err


def run_forked(op, tracer=None):
    """(seconds, output, error, child peak RSS in KiB) of one op in a fresh
    child; the child's spans are merged into ``tracer``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = perf_counter()
    pid = os.fork()
    if pid == 0:  # child: run the op, send the outcome, never return
        status = 1
        try:
            os.close(read_fd)
            first = tracer.reset() if tracer is not None else 0
            seconds, out, err = run_inline(op, tracer)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            part = tracer.export(first) if tracer is not None else None
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump((seconds, out, err, rss, part), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return perf_counter() - start, None, f"child exited with status {status}", 0
    # only this program's own child wrote these bytes
    seconds, out, err, rss, part = pickle.loads(data)
    if part is not None:
        tracer.merge(part)
    return seconds, out, err, rss


def run_one(ops, i, tracer=None):
    """Record (op index, seconds, output, error, peak RSS KiB) of op i."""
    idx = i % len(ops)
    op = ops[idx]
    if op.forked:
        return (idx, *run_forked(op, tracer))
    return (idx, *run_inline(op, tracer), 0)


def run_ops(ops, seconds, min_ops=MIN_OPS):
    """Closed loop: run ops back to back, cycling through the pass, until
    ``seconds`` have passed and at least ``min_ops`` ops have run.

    The host gauge (gauge.py) is timed before the first op, after the
    last, and between ops whenever GAUGE_EVERY_S of op time has run since
    it was last timed, so that every op lies between two gauge samples.

    Returns (records, wall seconds, host speed around each record).
    """
    records, before = [], []
    samples = [gauge.sample()]
    since = 0.0
    start = perf_counter()
    while len(records) < min_ops or perf_counter() - start < seconds:
        records.append(run_one(ops, len(records)))
        before.append(len(samples) - 1)
        since += records[-1][1]
        if since >= GAUGE_EVERY_S:
            samples.append(gauge.sample())
            since = 0.0
    wall = perf_counter() - start
    if since:
        samples.append(gauge.sample())
    speeds = [(samples[b] + samples[b + 1]) / (2 * gauge.NOMINAL_S) for b in before]
    return records, wall, speeds


def score(ops, records):
    """(failed ops, items completed and checked, failure descriptions).

    Runs every check outside the timed loop.  A check that raises counts
    as a failed op.
    """
    failed, items, failures = 0, 0, []
    for idx, _seconds, out, err, _rss in records:
        op = ops[idx]
        if err is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:  # a malformed output fails its op
                ok, err = False, f"check raised {type(exc).__name__}: {exc}"
            if not ok and err is None:
                err = "output failed its check"
        else:
            ok = False
        if ok:
            items += op.items
        else:
            failed += 1
            failures.append(f"{op.kind} (op {idx}): {err}")
    return failed, items, failures


def tail(times):
    """(seconds, percentile): the highest percentile of ``times`` that still
    has TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_kib(records) -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max([own] + [r[4] for r in records])


# -- set-up ---------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, host speed) of each import of wordrep and build of the
    inputs, in fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            seconds, speed = map(float, proc.stdout.split()[-2:])
            samples.append((seconds, speed))
    return samples


# -- run record -------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wordrep").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def run_record(args, wordrep, budget) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "backend": "ext" if wordrep.HAVE_EXT else "pure",
        "HAVE_EXT": wordrep.HAVE_EXT,
        "budget": budget,
        "load": "closed loop, 1 client, 1 process",
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- the two kinds of run ------------------------------------------------------


def end_to_end(args, ops, setup_samples):
    """End-to-end metrics.  Every timing is divided by the host speed
    measured around it (gauge.py), so it reads as seconds on an idle host;
    the raw wall-clock figures are kept in the notes."""
    min_ops = max(MIN_OPS, MIN_PASSES.get(args.workload, 0) * len(ops))
    records, wall, speeds = run_ops(ops, args.seconds, min_ops)
    failed, items, failures = score(ops, records)
    raw = [r[1] for r in records]
    times = [t / s for t, s in zip(raw, speeds)]
    tail_s, tail_pct = tail(times)
    setup = [t / s for t, s in setup_samples]
    attempted = len(records)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "items_per_s": metric(items / sum(times), "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_kib(records) / 1024, "MB"),
    }
    notes = {
        "op_tail_percentile": tail_pct,
        "op_samples": attempted,
        "fail_ratio": failed / attempted,
        "wall_s": wall,
        "items": items,
        "host_speed_median": statistics.median(speeds),
        "host_speed_range": [min(speeds), max(speeds)],
        "raw_items_per_wall_s": items / wall,
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": tail(raw)[0],
        "raw_setup_s": statistics.median(t for t, _ in setup_samples),
        "setup_samples_s": setup_samples,
    }
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "notes": notes}


def traced(args, ops):
    """Per-layer metrics: each of the first TRACE_OPS ops runs untraced and
    traced, in a seeded random order, then the layer pass runs traced."""
    import microbench
    from layer_pass import layer_pass
    from spans import Instrumentation, Tracer

    count = TRACE_OPS[args.workload]
    order = random.Random(args.seed)
    tracer = Tracer()
    spans_on = Instrumentation(tracer)
    plain, spanned = [], []
    try:
        for i in range(count):
            for on in (False, True) if order.random() < 0.5 else (True, False):
                if on:
                    spans_on.install()
                    spanned.append(run_one(ops, i, tracer))
                    spans_on.remove()
                else:
                    plain.append(run_one(ops, i))
        ops_root = tracer.root_total
        calls_per_op = {name: tracer.stat(name)[0] / count for name in tracer.names}
        spans_on.install()
        layer_ok = layer_pass()
        tracer.end_op()
    finally:
        spans_on.remove()
    records = plain + spanned
    failed, _items, failures = score(ops, records)
    if not layer_ok:
        failed += 1
        failures.append("layer pass: a known answer came out wrong")
    metrics = layer_metrics(tracer)
    micro = microbench.run(args.seed)
    for name, value in micro.items():
        if name.endswith(".pure"):
            metrics[name] = metric(value, "us")
    op_seconds = sum(r[1] for r in spanned)
    metrics["trace.overhead_ratio"] = metric(op_seconds / sum(r[1] for r in plain), "ratio")
    metrics["trace.span_coverage"] = metric(ops_root / op_seconds, "ratio")
    notes = {
        "traced_ops": count,
        "calls_per_op": calls_per_op,
        "microbench_us_per_call": micro,
        "self_time_share": tracer.self_shares(),
    }
    return {"attempted": len(records) + 1, "failed": failed, "failures": failures,
            "metrics": metrics, "notes": notes, "tracer": tracer}


def layer_metrics(tracer) -> dict:
    """The span-based per-layer metrics: totals over one traced run."""
    out = {}

    def span(name, *fields):
        calls, total, self_s = tracer.stat(name)
        values = {"calls": (calls, "count"), "s": (total, "s"), "self_s": (self_s, "s")}
        for f in fields:
            out[f"{name}.{f}"] = metric(*values[f])

    span("search.canonical_form", "calls", "s")
    calls, seconds, _ = tracer.stat("search.canonical_form")
    out["search.canonical_form.per_s"] = metric(calls / seconds if seconds else 0.0, "1/s")
    distinct = tracer.distinct_of("search.canonical_form")
    out["search.canonical_form.useful_ratio"] = metric(distinct / calls if calls else 0.0, "ratio")
    span("search.enumerate", "s")
    span("core.graph_init", "calls", "s")
    span("orient.search_semi_transitive", "calls", "s", "self_s")
    span("search.find_uniform_representant", "calls", "self_s")
    span("verify.verify_k11", "calls", "s")
    span("verify.graph_of_word", "calls", "s")
    calls, seconds = tracer.layer("construct")
    out["construct.calls"] = metric(calls, "count")
    out["construct.s"] = metric(seconds, "s")
    span("catalog.verify_catalog", "s")
    for kernel in ("forced_shortcut_pair", "word_pair_counts", "descendants", "is_dag", "canonical_min_bits"):
        span(f"kernels.{kernel}", "calls", "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wordrep" / "__init__.py").is_file():
        print(f"error: wordrep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wordrep

    if Path(wordrep.__file__).resolve().parent != (SRC / "wordrep").resolve():
        print(f"error: imported wordrep from {wordrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    record = run_record(args, wordrep, workloads.budget(args.workload))
    if args.trace:
        res = traced(args, ops)
    else:
        res = end_to_end(args, ops, measure_setup(args.workload, args.seed))
    metrics, notes, tracer = res["metrics"], res["notes"], res.get("tracer")

    record["notes"] = notes
    record["failures"] = res["failures"]
    print("run " + json.dumps(record, default=str))
    for msg in res["failures"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    if tracer is not None:
        print("self time by span (share of traced root time):")
        for name, share in tracer.self_shares()[:12]:
            print(f"  {name:<46} {100 * share:6.2f}%")
    else:
        print(f"op_tail_s is p{notes['op_tail_percentile']:.1f} of {notes['op_samples']} ops "
              f"({TAIL_BEYOND} beyond it); fail_ratio {notes['fail_ratio']:.4f}")

    OUT_DIR.mkdir(exist_ok=True)
    out = {"run": record, "metrics": metrics}
    if tracer is not None:
        out["spans"] = tracer.spans()
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, default=str))

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
