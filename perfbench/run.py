"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload tpch_warm --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload half untraced and half under the
per-layer timing wrappers, and reports the per-layer metrics, the tracing
overhead and the time no wrapper covers.  Either way every statement's
output is checked (see check.py), a run header and a host-speed probe
are printed, and the full result is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` (plus the spans of a
traced run).  The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.

``python3 perfbench/compare.py A B`` compares two sets of result files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest reads a timed loop sends: ten lie beyond read_p95_ms.
MIN_READS = 200


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_revision(root: str) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without starting a process."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(db, statements: Iterator, seconds: float, outcomes: list,
               min_reads: int = 0) -> float:
    """Closed loop: send the next statement when the last one returned.

    Runs until ``seconds`` have passed, a pass has ended and at least
    ``min_reads`` reads were sent (or the statements run out); returns
    the loop's wall time.
    """
    from check import Outcome

    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    reads = 0
    for statement in statements:
        reads += statement.kind == "read"
        began = clock()
        try:
            result = db.run(statement.sql, optimizer=statement.optimizer,
                            use_plan_cache=statement.use_plan_cache)
        except Exception as exc:  # counted as a failed statement
            outcomes.append(Outcome(statement, clock() - began,
                                    error=f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append(Outcome(statement, clock() - began,
                                    rows=result.rows,
                                    optimizer_used=result.optimizer_used))
        if statement.ends_pass and clock() >= deadline \
                and reads >= min_reads:
            break
    return clock() - start


def memo_path(workload, src_dir: str) -> str:
    """Where references on the loaded data of this workload are kept."""
    from check import source_digest

    dataset = workload.dataset
    return os.path.join(
        OUT_DIR, "refs", f"{dataset.name}-{dataset.scale}-"
        f"{dataset.data_seed}-{source_digest(src_dir)}.json")


def check_outcomes(workload, outcomes: list, reference_db,
                   memo_file: Optional[str]) -> List[str]:
    """Check every outcome in run order; returns the failure messages."""
    from check import DiskMemo, ReferenceChecker

    target = workload.dataset.write_target
    checker = ReferenceChecker(reference_db,
                               [target.table] if target else [],
                               DiskMemo(memo_file))
    for outcome in outcomes:
        checker.check(outcome)
    checker.memo.save()
    return checker.failures


def latencies_ms(outcomes: list, kind: str) -> List[float]:
    return [o.seconds * 1000.0 for o in outcomes if o.statement.kind == kind]


def run_untraced(workload, seconds: float, new_db) -> Tuple[list, dict,
                                                           object]:
    """The end-to-end run; returns ``(outcomes, metrics, reference_db)``."""
    setups = []
    db, took = workload.setup(new_db)
    setups.append(took)
    outcomes: list = []
    statements = workload.statements(db)
    gc.collect()
    wall = timed_loop(db, statements, seconds, outcomes, MIN_READS)
    rss = peak_rss_mb()
    del db, statements
    gc.collect()
    reference_db, took = workload.setup(new_db)
    setups.append(took)
    while len(setups) < SETUPS:
        spare, took = workload.setup(new_db)
        setups.append(took)
        del spare
    reads = latencies_ms(outcomes, "read")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "stmts_per_s": (len(outcomes) / wall, "1/s"),
        "read_p50_ms": (percentile(reads, 0.50), "ms"),
        "read_p95_ms": (percentile(reads, 0.95), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return outcomes, metrics, reference_db


def run_traced(workload, seconds: float, new_db, spans_path: str
               ) -> Tuple[list, dict, object]:
    """Half untraced, half traced; returns per-layer metrics."""
    import layers

    db = new_db()
    start = time.perf_counter()
    workload.load(db, analyze=False)
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    db.analyze()
    analyze_s = time.perf_counter() - start
    if not workload.spec.cold:
        workload.warm_up(db)
    statements = workload.statements(db)
    plain: list = []
    gc.collect()
    timed_loop(db, statements, seconds / 2.0, plain)
    recorder = layers.SpanRecorder()
    traced: list = []
    gc.collect()
    with layers.Tracing(recorder) as tracing:
        before = layers.counter_snapshot(db)
        timed_loop(db, statements, seconds / 2.0, traced)
        after = layers.counter_snapshot(db)
    reads = [o for o in traced if o.statement.kind == "read"]
    metrics = layers.layer_metrics(
        recorder, before, after, reads=len(reads),
        writes=len(traced) - len(reads),
        rows_returned=sum(len(o.rows) for o in reads if o.rows))
    metrics["workloads.load_s"] = load_s
    metrics["catalog.analyze_s"] = analyze_s
    metrics["trace.overhead_frac"] = tracing_overhead(plain, traced)
    units = {name: unit for name, unit, __, __ in layers.LAYER_METRICS}
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as handle:
        json.dump({"missing_entry_points": tracing.missing,
                   "fields": ["name", "start", "end", "parent",
                              "statement"],
                   "spans": recorder.spans}, handle)
    del db, statements
    gc.collect()
    reference_db, __ = workload.setup(new_db)
    return plain + traced, {k: (v, units[k]) for k, v in metrics.items()}, \
        reference_db


def tracing_overhead(plain: list, traced: list) -> float:
    """(traced wall - untraced wall) / untraced wall, mix-adjusted.

    Each statement label's mean latency is compared between the phases,
    weighted by how often the traced phase ran it, over the labels both
    phases ran.
    """
    def means(outcomes):
        sums: Dict[str, List[float]] = {}
        for outcome in outcomes:
            sums.setdefault(outcome.statement.label, []).append(
                outcome.seconds)
        return {k: (sum(v) / len(v), len(v)) for k, v in sums.items()}

    base, with_trace = means(plain), means(traced)
    shared = [k for k in with_trace if k in base]
    untraced_wall = sum(base[k][0] * with_trace[k][1] for k in shared)
    traced_wall = sum(with_trace[k][0] * with_trace[k][1] for k in shared)
    if not untraced_wall:
        return 0.0
    return (traced_wall - untraced_wall) / untraced_wall


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src_dir, "repro")):
        print(f"no engine source at {src_dir}/repro; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    from check import source_digest
    from repro import Database, DatabaseConfig
    from workloads import Workload

    workload = Workload(WORKLOADS[args.workload], args.seed)
    header = {
        "git_revision": git_revision(root),
        "source_digest": source_digest(src_dir),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workload": workload.name,
        "scale": workload.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("header " + json.dumps(header), flush=True)
    probe_before = host_probe()

    def new_db():
        return Database(DatabaseConfig())

    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}")
    if args.trace:
        outcomes, metrics, reference_db = run_traced(
            workload, args.seconds, new_db, stem + "-spans.json")
    else:
        outcomes, metrics, reference_db = run_untraced(
            workload, args.seconds, new_db)
    failures = check_outcomes(workload, outcomes, reference_db,
                              memo_path(workload, src_dir))
    probe_after = host_probe()
    if not args.trace:
        metrics["correct_frac"] = (1.0 - len(failures) / len(outcomes),
                                   "ratio")
    host = {"probe_before_s": probe_before, "probe_after_s": probe_after}
    print("host " + json.dumps(host))
    # Write latency is recorded but not gated (see workloads.py).
    writes = latencies_ms(outcomes, "write")
    write_latency = {"count": len(writes)}
    if writes:
        write_latency.update(p50_ms=percentile(writes, 0.50),
                             p90_ms=percentile(writes, 0.90))
    print("writes " + json.dumps(write_latency))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    for failure in failures[:20]:
        print("  FAILED " + failure)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(stem + ".json", "w") as handle:
        json.dump({"header": header, "host": host, "result": result,
                   "writes": write_latency, "failures": failures},
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
