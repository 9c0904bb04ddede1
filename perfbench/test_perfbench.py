"""Tests of the benchmark itself (not part of the engine's test suite).

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from check import Outcome  # noqa: E402
from workloads import WORKLOADS, Statement, Workload  # noqa: E402

from repro import Database, DatabaseConfig  # noqa: E402


def small(name: str, seed: int = 3) -> Workload:
    workload = Workload(WORKLOADS[name], seed)
    workload.dataset.scale = 0.05
    return workload


def loaded(workload: Workload) -> Database:
    db = Database(DatabaseConfig())
    workload.load(db)
    return db


def run_statements(db, statements) -> list:
    outcomes: list = []
    for statement in statements:
        run.timed_loop(db, iter([statement]), 0.0, outcomes)
    return outcomes


def failed_frac(workload, outcomes) -> float:
    failures = run.check_outcomes(workload, outcomes, loaded(workload), None)
    return len(failures) / len(outcomes)


@pytest.fixture(scope="module")
def churn_run():
    workload = small("tpch_dml_churn")
    db = loaded(workload)
    stream = workload.statements(db)
    statements = [next(stream) for __ in range(15)]
    return workload, run_statements(db, statements)


def test_clean_run_has_no_failures(churn_run):
    workload, outcomes = churn_run
    kinds = {o.statement.label.split(".")[1] for o in outcomes
             if o.statement.kind == "write"}
    assert kinds == {"insert", "update", "delete"}
    assert failed_frac(workload, outcomes) == 0.0


def test_injected_wrong_row_raises_failed_frac(churn_run):
    workload, outcomes = churn_run
    bad = list(outcomes)
    index = next(i for i, o in enumerate(bad)
                 if o.statement.kind == "read" and o.rows)
    wrong = bad[index]
    bad[index] = Outcome(wrong.statement, wrong.seconds,
                         rows=wrong.rows[:-1] + [("injected",)],
                         optimizer_used=wrong.optimizer_used)
    assert failed_frac(workload, bad) == 1 / len(bad)


def test_raised_error_raises_failed_frac():
    workload = small("tpch_warm")
    db = loaded(workload)
    statements = [workload.read(6),
                  Statement("read", "SELECT nope FROM missing_table",
                            "tpch.broken")]
    outcomes = run_statements(db, statements)
    assert outcomes[1].error is not None
    assert failed_frac(workload, outcomes) == 0.5


def test_write_with_wrong_row_count_fails():
    workload = small("tpch_warm")
    db = loaded(workload)
    statements = [Statement("write",
                            "DELETE FROM orders WHERE o_orderkey = -1",
                            "write.delete")]
    outcomes = run_statements(db, statements)
    assert failed_frac(workload, outcomes) == 1.0


def test_writes_replay_on_the_reference():
    """A read after a write compares against the written state."""
    workload = small("tpch_dml_churn")
    db = loaded(workload)
    writes = workload.write_stream(db)
    count = "SELECT COUNT(*) FROM orders"
    statements = [Statement("read", count, "count"), writes.next(),
                  Statement("read", count, "count")]
    outcomes = run_statements(db, statements)
    assert outcomes[2].rows[0][0] == outcomes[0].rows[0][0] + 1
    assert failed_frac(workload, outcomes) == 0.0


def test_seed_drives_statement_order_and_writes():
    def first(seed):
        workload = small("tpch_dml_churn", seed)
        stream = workload.statements(loaded(workload))
        return [next(stream).sql for __ in range(10)]

    assert first(4) == first(4)
    assert first(4) != first(5)


def test_span_self_time_subtracts_nested_calls():
    recorder = layers.SpanRecorder()

    def inner():
        return 1

    def outer():
        return recorder.call("inner", inner, (), {}) + 1

    assert recorder.call("database.run", outer, (), {}) == 2
    assert len(recorder.spans) == 2
    assert recorder.spans[1][3] == 0         # parent is the outer span
    total = recorder.inclusive_seconds["database.run"]
    assert recorder.self_seconds["database.run"] == pytest.approx(
        total - recorder.inclusive_seconds["inner"])


def test_tracing_installs_and_restores_every_entry_point():
    from repro.database import Database as DatabaseClass
    import repro.database
    original_run = DatabaseClass.__dict__["run"]
    original_parse = repro.database.parse_statement
    recorder = layers.SpanRecorder()
    workload = small("tpch_warm")
    db = loaded(workload)
    with layers.Tracing(recorder) as tracing:
        assert tracing.missing == []
        assert repro.database.parse_statement is not original_parse
        db.run(workload.read(5).sql)
    assert DatabaseClass.__dict__["run"] is original_run
    assert repro.database.parse_statement is original_parse
    names = {span[0] for span in recorder.spans}
    assert {"database.run", "sql.parse", "bridge.detour",
            "bridge.metadata", "orca.memo_search",
            "executor.execute"} <= names


def test_benchmark_json_mirrors_the_layer_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, u, b) for n, u, b, __ in layers.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_exits_nonzero_without_engine_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpch_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_judges_against_the_bound():
    assert compare.verdict(10.0, 13.0, "lower", 0.25)[1] == "REGRESSED"
    assert compare.verdict(10.0, 12.0, "lower", 0.25)[1] == "within bound"
    assert compare.verdict(10.0, 7.0, "higher", 0.25)[1] == "REGRESSED"
    assert compare.verdict(10.0, 7.0, "lower", 0.25)[1] == "improved"
