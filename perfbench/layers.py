"""Outside-in per-layer tracing for the traced run.

Timing wrappers are installed around each layer's entry points from this
file, so no engine source changes; they exist only during the traced
phase.  Each call records a span (name, start, end, parent span,
statement id) in memory.  A layer's self time is its spans' duration
minus the time of the wrapped calls nested inside them.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric
and workload it should move; BENCHMARK.json's ``per_layer`` mirrors it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

#: Span name -> entry points, as (module, "function" or "Class.method").
ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "database.run": [("repro.database", "Database.run")],
    "sql.parse": [("repro.sql.parser", "parse_statement")],
    "sql.prepare": [("repro.sql.resolver", "Resolver.resolve"),
                    ("repro.sql.prepare", "prepare")],
    "plan_cache.lookup": [("repro.plan_cache", "PlanCache.lookup")],
    "bridge.detour": [("repro.bridge.router", "OrcaRouter.optimize_guarded")],
    "bridge.metadata": (
        [("repro.orca.mdcache", f"MDAccessor.{m}")
         for m in ("table_oid", "synthetic_oid", "relation", "table",
                   "statistics", "type_info")]
        + [("repro.bridge.metadata_provider", f"MySQLMetadataProvider.{m}")
           for m in ("get_table_oid", "get_synthetic_oid", "get_column_oid",
                     "get_relation_dxl", "get_statistics_dxl",
                     "get_type_dxl", "get_arithmetic_oid",
                     "get_comparison_oid", "get_aggregate_oid",
                     "get_commutator_oid", "get_inverse_oid",
                     "get_expression_oid", "get_function_oid",
                     "get_function_pointer")]
        + [("repro.bridge.dxl", f) for f in (
            "relation_to_dxl", "relation_from_dxl", "statistics_to_dxl",
            "statistics_from_dxl", "type_to_dxl", "type_from_dxl")]),
    "bridge.parse_tree_convert": [
        ("repro.bridge.parse_tree_converter",
         "ParseTreeConverter.convert_block")],
    "bridge.plan_convert": [("repro.bridge.plan_converter",
                             "OrcaPlanConverter.convert")],
    "orca.preprocess": [("repro.orca.preprocess", "preprocess_block")],
    "orca.memo_search": [("repro.orca.optimizer",
                          "OrcaOptimizer.optimize_block")],
    "mysql_optimizer.optimize": [("repro.mysql_optimizer.optimizer",
                                  "MySQLOptimizer.optimize")],
    "mysql_optimizer.refine": [("repro.mysql_optimizer.refinement",
                                "PlanBuilder.build")],
    "executor.execute": [("repro.executor.executor", "Executor.execute")],
    "storage.write": [("repro.storage.engine", "StorageEngine.load_rows"),
                      ("repro.storage.engine", "StorageEngine.replace_rows")],
    "dml.execute": [("repro.dml", f) for f in (
        "execute_insert", "execute_update", "execute_delete")],
    # What Database.run does around the pipeline: the governor, plan
    # quality, the workload repository, the flight recorder, the
    # slow-query log and the plan-cache store.
    "database.bookkeeping": [
        ("repro.database", f"Database.{m}") for m in (
            "_make_governor", "_record_plan_quality", "_record_workload",
            "_record_flight", "_log_slow_query", "_record_abort")]
        + [("repro.plan_quality", "statement_quality"),
           ("repro.plan_cache", "PlanCache.store")],
}

#: (name, unit, better, what it should move, on which workload).
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("sql.parse_ms", "ms", "lower",
     "read_p50_ms on tpch_warm (parse runs even on cache hits) and on "
     "tpcds_adhoc"),
    ("sql.prepare_ms", "ms", "lower",
     "read_p50_ms on tpcds_adhoc; none on tpch_warm"),
    ("plan_cache.lookup_ms", "ms", "lower", "read_p50_ms on tpch_warm"),
    ("plan_cache.hit_ratio", "ratio", "higher",
     "stmts_per_s and read_p50_ms on tpch_dml_churn; stays 1.0 on "
     "tpch_warm; none on tpcds_adhoc"),
    ("plan_cache.invalidations_per_write", "count", "lower",
     "stmts_per_s and read_p50_ms on tpch_dml_churn"),
    ("bridge.detour_ms", "ms", "lower",
     "read_p50_ms, read_p95_ms and stmts_per_s on tpcds_adhoc; "
     "read_p50_ms on tpch_dml_churn"),
    ("bridge.metadata_ms", "ms", "lower",
     "read_p50_ms on tpcds_adhoc (metadata cache, ROADMAP item 1)"),
    ("bridge.mdcache_hit_ratio", "ratio", "higher",
     "read_p50_ms on tpcds_adhoc"),
    ("bridge.metadata_requests_per_detour", "count", "lower",
     "read_p50_ms on tpcds_adhoc"),
    ("bridge.parse_tree_convert_ms", "ms", "lower",
     "read_p50_ms on tpcds_adhoc"),
    ("bridge.plan_convert_ms", "ms", "lower", "read_p50_ms on tpcds_adhoc"),
    ("bridge.fallback_frac", "ratio", "lower",
     "correct_frac guard, all workloads"),
    ("orca.preprocess_ms", "ms", "lower", "read_p50_ms on tpcds_adhoc"),
    ("orca.memo_search_ms", "ms", "lower", "read_p95_ms on tpcds_adhoc"),
    ("orca.cost_evaluations_per_detour", "count", "lower",
     "read_p95_ms on tpcds_adhoc"),
    ("mysql_optimizer.optimize_ms", "ms", "lower",
     "read_p50_ms on tpcds_adhoc and tpch_dml_churn"),
    ("mysql_optimizer.refine_ms", "ms", "lower",
     "read_p50_ms on tpcds_adhoc and tpch_dml_churn"),
    ("executor.execute_ms", "ms", "lower",
     "read_p50_ms and read_p95_ms on tpch_warm; about a third of "
     "tpcds_adhoc"),
    ("executor.row_engine_frac", "ratio", "lower",
     "read_p95_ms on tpch_warm (ROADMAP item 2)"),
    ("executor.rows_per_batch", "count", "higher",
     "read_p50_ms on tpch_warm"),
    ("storage.rows_examined_per_row_returned", "count", "lower",
     "read_p50_ms on tpch_warm"),
    ("storage.index_lookups_per_stmt", "count", "lower",
     "read_p95_ms on tpch_warm"),
    ("storage.chunks_skipped_per_stmt", "count", "higher",
     "read_p50_ms on tpch_warm"),
    ("storage.write_ms", "ms", "lower",
     "stmts_per_s on tpch_dml_churn; none elsewhere"),
    ("storage.rows_rewritten_per_write", "count", "lower",
     "stmts_per_s on tpch_dml_churn"),
    ("dml.execute_ms", "ms", "lower", "stmts_per_s on tpch_dml_churn"),
    ("database.bookkeeping_ms", "ms", "lower",
     "read_p50_ms on tpch_warm (ROADMAP item 5)"),
    ("unattributed_ms", "ms", "lower",
     "none: Database.run time outside every wrapped call"),
    ("workloads.load_s", "s", "lower", "setup_s, all workloads"),
    ("catalog.analyze_s", "s", "lower", "setup_s, all workloads"),
    ("trace.overhead_frac", "ratio", "lower", "reported only"),
]


class SpanRecorder:
    """In-memory spans with self-time accounting.

    A span is ``[name, start, end, parent_index, statement_id]``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.self_seconds: Dict[str, float] = {}
        self.inclusive_seconds: Dict[str, float] = {}
        self.statement_id = 0
        #: Open spans: (span index, seconds of nested wrapped calls).
        self._stack: List[list] = []
        #: Rows the storage write path rewrote (see Tracing._count_replace).
        self.rows_rewritten = 0

    def call(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        if name == "database.run":
            self.statement_id += 1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.statement_id]
        self.spans.append(span)
        frame = [index, 0.0]
        self._stack.append(frame)
        span[1] = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_seconds[name] = (self.self_seconds.get(name, 0.0)
                                       + duration - frame[1])
            self.inclusive_seconds[name] = (
                self.inclusive_seconds.get(name, 0.0) + duration)
            if self._stack:
                self._stack[-1][1] += duration


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        return getattr(module, class_name), method
    return module, attr


class Tracing:
    """Installs the wrappers; use as a context manager."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []
        #: Entry points that no longer exist in the engine; their time
        #: lands in ``unattributed_ms``.
        self.missing: List[str] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracing":
        for name, points in ENTRY_POINTS.items():
            for module_name, attr in points:
                try:
                    owner, member = _resolve(module_name, attr)
                    original = owner.__dict__[member]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(name, original)
                if member == "replace_rows":
                    wrapper = self._count_replace(wrapper)
                elif member == "load_rows":
                    wrapper = self._count_load(wrapper)
                self._set(owner, member, wrapper)
                if isinstance(owner, type):
                    continue
                # A module function is also bound by name in every module
                # that imported it with ``from ... import``.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(
                            module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _count_replace(self, wrapper: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(wrapper)
        def counted(storage, table_name, rows, *args, **kwargs):
            recorder.rows_rewritten += len(rows)
            return wrapper(storage, table_name, rows, *args, **kwargs)
        return counted

    def _count_load(self, wrapper: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(wrapper)
        def counted(storage, table_name, *args, **kwargs):
            result = wrapper(storage, table_name, *args, **kwargs)
            # load_rows re-indexes every heap row of the table.
            recorder.rows_rewritten += storage.heap(table_name).row_count
            return result
        return counted


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Registry counters whose run deltas feed the per-layer metrics.
COUNTERS = ("plan_cache.hits", "plan_cache.misses",
            "plan_cache.invalidations", "mdcache.hits", "mdcache.misses",
            "metadata.requests", "detour.entered", "detour.succeeded",
            "fallback.exec_batch_unsupported", "executor.batches",
            "executor.batch_rows")


def counter_snapshot(db) -> Dict[str, float]:
    snapshot = {name: db.metrics.count(name) for name in COUNTERS}
    histogram = db.metrics.histogram("orca.cost_evaluations")
    snapshot["orca.cost_evaluations"] = histogram.total if histogram else 0.0
    snapshot.update(("storage." + k, v)
                    for k, v in db.storage.counters.snapshot().items())
    return snapshot


def layer_metrics(recorder: SpanRecorder, before: Dict[str, float],
                  after: Dict[str, float], reads: int, writes: int,
                  rows_returned: int) -> Dict[str, float]:
    """Per-layer metrics of one traced phase (setup and overhead excluded).

    ``_ms`` metrics are mean self time per statement of the kind the
    layer serves: parse, bookkeeping and unattributed per statement, the
    write path per write, everything else per read.
    """
    delta = {k: after[k] - before[k] for k in after}
    own = recorder.self_seconds
    statements = reads + writes

    def per(name: str, count: int) -> float:
        return _ratio(own.get(name, 0.0) * 1000.0, count)

    lookups = delta["plan_cache.hits"] + delta["plan_cache.misses"]
    detours = delta["detour.entered"]
    examined = delta["storage.rows_scanned"] + delta["storage.index_rows_read"]
    metrics = {
        "sql.parse_ms": per("sql.parse", statements),
        "sql.prepare_ms": per("sql.prepare", reads),
        "plan_cache.lookup_ms": per("plan_cache.lookup", reads),
        "plan_cache.hit_ratio": _ratio(delta["plan_cache.hits"], lookups),
        "plan_cache.invalidations_per_write": _ratio(
            delta["plan_cache.invalidations"], writes),
        "bridge.detour_ms": _ratio(
            recorder.inclusive_seconds.get("bridge.detour", 0.0) * 1000.0,
            reads),
        "bridge.metadata_ms": per("bridge.metadata", reads),
        "bridge.mdcache_hit_ratio": _ratio(
            delta["mdcache.hits"],
            delta["mdcache.hits"] + delta["mdcache.misses"]),
        "bridge.metadata_requests_per_detour": _ratio(
            delta["metadata.requests"], detours),
        "bridge.parse_tree_convert_ms": per("bridge.parse_tree_convert",
                                            reads),
        "bridge.plan_convert_ms": per("bridge.plan_convert", reads),
        "bridge.fallback_frac": _ratio(
            detours - delta["detour.succeeded"], detours),
        "orca.preprocess_ms": per("orca.preprocess", reads),
        "orca.memo_search_ms": per("orca.memo_search", reads),
        "orca.cost_evaluations_per_detour": _ratio(
            delta["orca.cost_evaluations"], detours),
        "mysql_optimizer.optimize_ms": per("mysql_optimizer.optimize",
                                           reads),
        "mysql_optimizer.refine_ms": per("mysql_optimizer.refine", reads),
        "executor.execute_ms": per("executor.execute", reads),
        "executor.row_engine_frac": _ratio(
            delta["fallback.exec_batch_unsupported"], reads),
        "executor.rows_per_batch": _ratio(delta["executor.batch_rows"],
                                          delta["executor.batches"]),
        "storage.rows_examined_per_row_returned": _ratio(examined,
                                                         rows_returned),
        "storage.index_lookups_per_stmt": _ratio(
            delta["storage.index_lookups"], statements),
        "storage.chunks_skipped_per_stmt": _ratio(
            delta["storage.chunks_skipped"], statements),
        "storage.write_ms": per("storage.write", writes),
        "storage.rows_rewritten_per_write": _ratio(recorder.rows_rewritten,
                                                   writes),
        "dml.execute_ms": per("dml.execute", writes),
        "database.bookkeeping_ms": per("database.bookkeeping", statements),
        # Database.run's own self time: everything no wrapper covers.
        "unattributed_ms": per("database.run", statements),
    }
    return metrics
