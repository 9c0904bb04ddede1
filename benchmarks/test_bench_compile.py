"""BENCH — cold vs warm Orca compile, per layer, and plan-cache survival.

Produces ``benchmarks/results/BENCH_compile.json`` and ``.txt``.  The
header records the git revision, host cores, Python version, scale, and
seeds, so numbers stay comparable across changes.

Compile (TPC-H's 22 queries, TPC-DS's 99; ``optimizer="orca"``,
compile only, in a seeded shuffled order):

* **cold** — the metadata cache is empty, as in a new ``Database``:
  every relation and statistics object makes the DXL round trip;
* **warm** — the cache already holds every table the query reads, the
  steady state once each table was compiled against once since its
  last DDL or ANALYZE.

Each query's compile is traced and every span's *self* time (its
duration minus its children's) is summed per layer; the report gives
the per-query median, cold and warm, plus provider requests and the
metadata-cache hit ratio.

Plan-cache survival: the 22 TPC-H reads are cached, then single-row
writes to ``orders`` (INSERT, UPDATE, DELETE) each follow by a pass of
the reads.  Plans of queries that never read ``orders`` must survive
every write; the rest must recompile.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_bench_compile.py``
(``REPRO_BENCH_SCALE`` sets the data scale, default 1.0).
"""

import json
import os
import platform
import random
import subprocess
import statistics
from pathlib import Path
from typing import Dict, List

from benchmarks.conftest import RESULTS_DIR, SCALE, write_report
from repro.bridge.metadata_provider import MySQLMetadataProvider
from repro.observability import Tracer
from repro.orca.mdcache import MDAccessor
from repro.sql.parser import parse_statement
from repro.sql.resolver import Resolver
from repro import Database, DatabaseConfig
from repro.workloads.tpch import TPCH_QUERIES, load_tpch
from repro.workloads.tpcds import TPCDS_QUERIES

#: Seed of the compile order shuffle and of the write keys.
SEED = 11
#: Compiles per query and state; the median is reported.
COLD_SAMPLES = 3
WARM_SAMPLES = 5
#: Layers reported, in pipeline order (span names).
LAYERS = ("parse", "prepare", "route", "orca_detour", "preprocess",
          "metadata_lookup", "parse_tree_convert", "memo_search",
          "plan_convert", "mysql_optimize", "refine")
#: Writes in the survival pass, cycling INSERT / UPDATE / DELETE.
WRITES = 6
#: Registry counters read around each compile.
COUNTERS = {"requests": "metadata.requests", "hits": "mdcache.hits",
            "misses": "mdcache.misses"}


def _git_revision():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).parent, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _header(data_seeds: Dict[str, int]) -> dict:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        cores = os.cpu_count() or 1
    return {"git_revision": _git_revision(), "host_cores": cores,
            "python": platform.python_version(), "scale": SCALE,
            "seed": SEED, "data_seeds": data_seeds}


def _empty_cache(db) -> None:
    """Give ``db`` the empty metadata cache a new Database starts with."""
    db.md_accessor = MDAccessor(
        MySQLMetadataProvider(db.catalog, config=db.config,
                              metrics=db.metrics),
        metrics=db.metrics, capacity=db.config.mdcache_capacity)


def _self_seconds(root) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span in root.walk():
        own = span.duration - sum(child.duration
                                  for child in span.children)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def _traced_compile(db, sql: str) -> Dict[str, float]:
    tracer = Tracer()
    previous, db.tracer = db.tracer, tracer
    try:
        with tracer.span("compile") as root:
            result = db.compile_only(sql, optimizer="orca")
    finally:
        db.tracer = previous
    assert result.optimizer_used == "orca", result.fallback_reason
    layers = _self_seconds(root)
    layers["total"] = root.duration
    return layers


def _median_layers(samples: List[Dict[str, float]]) -> Dict[str, float]:
    names = set(LAYERS) | {"total"}
    return {name: statistics.median(s.get(name, 0.0) for s in samples)
            for name in names}


def _compile_suite(db, queries: Dict[int, str]) -> dict:
    order = sorted(queries)
    random.Random(SEED).shuffle(order)
    per_state = {"cold": [], "warm": []}
    counts = {state: dict.fromkeys(COUNTERS, 0.0) for state in per_state}
    metrics = db.metrics

    def measure(state, sql):
        before = {name: metrics.count(counter)
                  for name, counter in COUNTERS.items()}
        layers = _traced_compile(db, sql)
        for name, counter in COUNTERS.items():
            counts[state][name] += metrics.count(counter) - before[name]
        return layers

    for number in order:
        sql = queries[number]
        cold = []
        for __ in range(COLD_SAMPLES):
            _empty_cache(db)
            cold.append(measure("cold", sql))
        warm = [measure("warm", sql) for __ in range(WARM_SAMPLES)]
        per_state["cold"].append(_median_layers(cold))
        per_state["warm"].append(_median_layers(warm))

    out = {"queries": len(order)}
    for state, rows in per_state.items():
        samples = COLD_SAMPLES if state == "cold" else WARM_SAMPLES
        compiles = samples * len(order)
        lookups = counts[state]["hits"] + counts[state]["misses"]
        out[state] = {
            "median_ms": {
                name: 1000.0 * statistics.median(r[name] for r in rows)
                for name in (*LAYERS, "total")},
            "metadata_requests_per_compile":
                counts[state]["requests"] / compiles,
            "mdcache_hit_ratio":
                counts[state]["hits"] / lookups if lookups else 0.0,
        }
    return out


def _write(db, number: int, rng: random.Random,
           inserted: List[int]) -> str:
    """Single-row write ``number``: INSERT, UPDATE, DELETE in turn."""
    kind = number % 3
    if kind == 0:
        key = 10_000_000 + number
        inserted.append(key)
        return ("INSERT INTO orders VALUES "
                f"({key}, 1, 'O', 100.5, '1996-01-02', '5-LOW', "
                "'Clerk#000000001', 0, 'churn')")
    if kind == 1:
        key = rng.choice(db.storage.heap("orders").rows[:1000])[0]
        return (f"UPDATE orders SET o_totalprice = "
                f"{rng.randrange(100, 900)}.5 WHERE o_orderkey = {key}")
    return f"DELETE FROM orders WHERE o_orderkey = {inserted.pop(0)}"


def _reads_orders(db, sql: str) -> bool:
    __, context = Resolver(db.catalog).resolve(parse_statement(sql))
    return "orders" in context.base_tables()


def _plan_cache_survival() -> dict:
    # A Database of its own, so the writes leave the shared fixture
    # alone; the plan-quality loop (which drops a plan whose estimates
    # keep breaching) is held off, so only writes invalidate.
    db = Database(DatabaseConfig(planq_consecutive_breaches=1 << 30))
    load_tpch(db, scale=SCALE)
    reads = dict(TPCH_QUERIES)
    optimizer = {number: "orca" if number == 19 else "auto"
                 for number in reads}
    readers = sorted(n for n in reads if _reads_orders(db, reads[n]))
    for number in sorted(reads):  # populate the plan cache
        db.run(reads[number], optimizer=optimizer[number])
    rng = random.Random(SEED)
    inserted: List[int] = []
    passes = []
    for number in range(WRITES):
        invalidations = db.plan_cache.invalidations
        sql = _write(db, number, rng, inserted)
        assert db.run(sql).rows == [(1,)], sql
        hits = [n for n in sorted(reads)
                if db.run(reads[n], optimizer=optimizer[n]).plan_cache_hit]
        passes.append({
            "write": sql.split()[0],
            "survived": len(hits),
            "recompiled": len(reads) - len(hits),
            "invalidations": db.plan_cache.invalidations - invalidations,
            "hits": hits,
        })
    return {"table": "orders", "reads": len(reads),
            "reads_of_table": readers, "passes": passes}


def _format(payload: dict) -> str:
    header = payload["header"]
    lines = [
        "BENCH_compile — Orca compile cold vs warm, per layer; "
        "plan-cache survival under DML",
        f"git {header['git_revision']}  host cores "
        f"{header['host_cores']}  Python {header['python']}  "
        f"scale {header['scale']}  seed {header['seed']}",
    ]
    for suite in ("tpch", "tpcds"):
        data = payload["compile"][suite]
        lines.append("")
        lines.append(f"{suite.upper()} ({data['queries']} queries), "
                     f"median self ms per compile")
        lines.append(f"  {'layer':<20} {'cold':>9} {'warm':>9}")
        for layer in (*LAYERS, "total"):
            lines.append(
                f"  {layer:<20} {data['cold']['median_ms'][layer]:>9.3f} "
                f"{data['warm']['median_ms'][layer]:>9.3f}")
        for state in ("cold", "warm"):
            lines.append(
                f"  {state}: "
                f"{data[state]['metadata_requests_per_compile']:.1f} "
                f"provider requests per compile, mdcache hit ratio "
                f"{data[state]['mdcache_hit_ratio']:.3f}")
    survival = payload["plan_cache_survival"]
    lines.append("")
    lines.append(f"Plan-cache survival, single-row writes to "
                 f"{survival['table']}: {survival['reads']} TPC-H reads, "
                 f"{len(survival['reads_of_table'])} of them read it")
    for row in survival["passes"]:
        lines.append(f"  {row['write']:<7} survived {row['survived']:>2}"
                     f"  recompiled {row['recompiled']:>2}"
                     f"  invalidations {row['invalidations']:>2}")
    return "\n".join(lines)


def test_bench_compile(tpch_db, tpcds_db):
    payload = {
        "header": _header({"tpch": 42, "tpcds": 7}),
        "compile": {"tpch": _compile_suite(tpch_db, TPCH_QUERIES),
                    "tpcds": _compile_suite(tpcds_db, TPCDS_QUERIES)},
        "plan_cache_survival": _plan_cache_survival(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_compile.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_report("BENCH_compile.txt", _format(payload))

    for suite in ("tpch", "tpcds"):
        data = payload["compile"][suite]
        # A warm compile never goes to the provider ...
        assert data["warm"]["metadata_requests_per_compile"] == 0.0
        assert data["warm"]["mdcache_hit_ratio"] == 1.0
        assert data["warm"]["median_ms"]["metadata_lookup"] == 0.0
        # ... and the round trips it skips are what made cold slower.
        assert data["cold"]["metadata_requests_per_compile"] > 0.0
        assert data["warm"]["median_ms"]["total"] < \
            data["cold"]["median_ms"]["total"]

    survival = payload["plan_cache_survival"]
    readers = set(survival["reads_of_table"])
    others = [n for n in TPCH_QUERIES if n not in readers]
    assert readers and others
    for row in survival["passes"]:
        # Every plan that does not read orders survives the write; every
        # plan that does is recompiled.
        assert set(row["hits"]) == set(others), row
        assert row["recompiled"] == len(readers)
