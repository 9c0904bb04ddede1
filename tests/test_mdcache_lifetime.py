"""The metadata cache outlives a statement; per-table versions bound it.

Orca's MD cache (``Database.md_accessor``) is shared by every detour of
a Database, and the statement plan cache validates its entries against
the same per-table change stamps.  This module pins the invalidation
contract down:

* the first compile misses, later compiles hit;
* ANALYZE of one table re-fetches only that table's statistics DXL;
* DROP and re-CREATE of a table with different columns is seen by Orca;
* single-row DML on ``orders`` keeps the MD cache and the cached plans
  of queries that never read ``orders``, while plans that do read it
  recompile and return the post-DML rows;
* the advisor's re-ANALYZE apply path invalidates what it re-ANALYZEs;
* plans do not depend on cache state: EXPLAIN of every TPC-H query and
  every TPC-DS flagship is identical on a cold Database and on a warm
  one that first compiled every other query in a shuffled order;
* the ``metadata_provider`` fault site is still reached by cold entries,
  and a fault mid-miss leaves no entry behind.
"""

import random

import pytest

from repro import Database, DatabaseConfig, FallbackReason, FaultInjector
from repro.bench.harness import results_match
from repro.catalog.schema import Column, Index, TableSchema
from repro.mysql_types import MySQLType
from repro.workload import Recommendation
from repro.workloads.tpcds import load_tpcds, tpcds_query
from repro.workloads.tpch import load_tpch, tpch_query

from tests.conftest import build_mini_db

#: Reads orders (and customer, lineitem).
JOIN_SQL = """
SELECT c_segment, COUNT(*), SUM(o_totalprice) FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_segment
"""

#: Never reads orders.
LINEITEM_SQL = """
SELECT p_brand, COUNT(*), SUM(l_quantity) FROM lineitem, part
WHERE l_partkey = p_partkey AND l_quantity > 10
GROUP BY p_brand
"""

#: The hand-written TPC-DS queries the paper's evaluation names.
TPCDS_FLAGSHIPS = (1, 6, 9, 14, 17, 24, 31, 32, 41, 58, 64, 72, 81, 92)

WRITES = (
    "INSERT INTO orders VALUES "
    "(99001, 1, 'O', 500.0, '1995-06-01', '1-PRIO', NULL)",
    "UPDATE orders SET o_totalprice = 1.0 WHERE o_orderkey = 3",
    "DELETE FROM orders WHERE o_orderkey = 99001",
)


@pytest.fixture()
def db():
    return build_mini_db(seed=12, orders=80)


def _detour(db, sql=JOIN_SQL):
    result = db.run(sql, optimizer="orca", use_plan_cache=False)
    assert result.optimizer_used == "orca"
    return result


def _requests(db, api):
    return db.md_accessor.provider.request_counts.get(api, 0)


class TestHitsAcrossStatements:

    def test_first_compile_misses_later_compiles_hit(self, db):
        accessor = db.md_accessor
        assert accessor.stats()["misses"] == 0
        _detour(db)
        cold = accessor.stats()
        assert cold["misses"] > 0
        requests = db.metrics.count("metadata.requests")
        for __ in range(3):
            _detour(db)
        warm = accessor.stats()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] > cold["hits"]
        assert db.metrics.count("metadata.requests") == requests

    def test_every_router_shares_the_database_cache(self, db):
        _detour(db)
        first = db.last_router
        _detour(db)
        assert db.last_router is not first
        assert db.last_router.last_accessor is db.md_accessor
        assert first.last_accessor is db.md_accessor


class TestInvalidation:

    def test_analyze_refetches_only_that_tables_statistics(self, db):
        _detour(db)
        statistics = _requests(db, "statistics_dxl")
        relations = _requests(db, "relation_dxl")
        db.storage.analyze_table("orders")
        _detour(db)
        assert _requests(db, "statistics_dxl") == statistics + 1
        assert _requests(db, "relation_dxl") == relations
        assert db.md_accessor.stats()["invalidations_by_kind"] == \
            {"statistics": 1}
        # ... and the fresh entry is served from then on.
        _detour(db)
        assert _requests(db, "statistics_dxl") == statistics + 1

    def test_recreated_table_with_new_columns_is_seen(self, db):
        _detour(db, LINEITEM_SQL)
        assert "p_weight" not in \
            db.md_accessor.relation("part").column_names
        db.storage.drop_table("part")
        db.create_table(TableSchema("part", [
            Column.of("p_partkey", MySQLType.LONGLONG, nullable=False),
            Column.of("p_brand", MySQLType.VARCHAR, 10, nullable=False),
            Column.of("p_weight", MySQLType.DOUBLE, nullable=False),
        ], [Index("PRIMARY", ("p_partkey",), primary=True)]))
        db.load("part", [(k, f"Brand#{k % 3}", k * 0.5)
                         for k in range(1, 30)])
        db.storage.analyze_table("part")
        sql = ("SELECT p_brand, SUM(p_weight) FROM lineitem, part "
               "WHERE l_partkey = p_partkey GROUP BY p_brand")
        result = _detour(db, sql)
        relation = db.md_accessor.relation("part")
        assert "p_weight" in relation.column_names
        assert "p_size" not in relation.column_names
        statistics = db.md_accessor.statistics("part")
        assert statistics.row_count == 29
        assert results_match(result.rows,
                             db.execute(sql, optimizer="mysql"))

    @pytest.mark.parametrize("write", WRITES)
    def test_dml_on_orders_keeps_unrelated_cache_entries(self, db, write):
        if write.startswith("DELETE"):
            db.run(WRITES[0])
        assert not db.run(LINEITEM_SQL, optimizer="orca").plan_cache_hit
        assert db.run(LINEITEM_SQL, optimizer="orca").plan_cache_hit
        _detour(db)
        misses = db.md_accessor.stats()["misses"]
        requests = db.metrics.count("metadata.requests")
        invalidations = db.plan_cache.invalidations

        assert db.run(write).rows == [(1,)]

        # The plan over lineitem/part survives the write to orders ...
        assert db.run(LINEITEM_SQL, optimizer="orca").plan_cache_hit
        assert db.plan_cache.invalidations == invalidations
        # ... and so does every MD-cache entry, orders' included: DML
        # changes no statistics.
        _detour(db)
        assert db.md_accessor.stats()["misses"] == misses
        assert db.metrics.count("metadata.requests") == requests

    def test_plans_reading_orders_invalidate_and_see_new_rows(self, db):
        sql = ("SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders "
               "WHERE c_custkey = o_custkey")
        first = db.run(sql, optimizer="orca")
        assert db.run(sql, optimizer="orca").plan_cache_hit
        count, total = first.rows[0]

        db.run(WRITES[0])
        inserted = db.run(sql, optimizer="orca")
        assert not inserted.plan_cache_hit
        assert inserted.rows[0][0] == count + 1
        assert inserted.rows[0][1] == pytest.approx(total + 500.0)

        db.run(WRITES[2])
        deleted = db.run(sql, optimizer="orca")
        assert not deleted.plan_cache_hit
        assert deleted.rows == first.rows

        price = db.execute(
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 3")[0][0]
        db.run(WRITES[1])
        updated = db.run(sql, optimizer="orca")
        assert not updated.plan_cache_hit
        assert updated.rows[0][1] == pytest.approx(total - price + 1.0)
        assert results_match(updated.rows,
                             db.execute(sql, optimizer="mysql"))

    def test_advisor_reanalyze_invalidates_what_it_analyzes(self, db):
        db.run(JOIN_SQL, optimizer="orca")
        db.run(LINEITEM_SQL, optimizer="orca")
        statistics = _requests(db, "statistics_dxl")
        versions = db.catalog.table_versions("orders")
        actions = db.advisor.apply([Recommendation(
            kind="reanalyze", target="orders", score=1.0,
            reason="test", details={})])
        assert [a["action"] for a in actions] == ["analyzed"]
        assert db.catalog.table_versions("orders").stats > versions.stats
        assert db.catalog.table_versions("orders").schema == \
            versions.schema
        assert not db.run(JOIN_SQL, optimizer="orca").plan_cache_hit
        assert db.run(LINEITEM_SQL, optimizer="orca").plan_cache_hit
        assert _requests(db, "statistics_dxl") == statistics + 1


# -- plans do not depend on cache state ------------------------------------------


def _explain_cold_and_warm(load, queries, seed):
    """EXPLAIN of each query on a fresh Database, and on one Database
    that first compiled every query in one shuffled order and then
    explains them in another."""
    cold = {}
    for number, sql in queries.items():
        db = Database()
        load(db)
        cold[number] = db.explain(sql, optimizer="orca")
    warm_db = Database()
    load(warm_db)
    rng = random.Random(seed)
    order = list(queries)
    rng.shuffle(order)
    for number in order:
        warm_db.explain(queries[number], optimizer="orca")
    rng.shuffle(order)
    warm = {number: warm_db.explain(queries[number], optimizer="orca")
            for number in order}
    assert warm_db.md_accessor.stats()["hits"] > 0
    return cold, warm


class TestPlansAreCacheIndependent:

    def test_tpch_explain_identical_cold_and_warm(self):
        queries = {q: tpch_query(q) for q in range(1, 23)}
        cold, warm = _explain_cold_and_warm(
            lambda db: load_tpch(db, scale=0.02), queries, seed=3)
        for number in queries:
            assert warm[number] == cold[number], f"TPC-H Q{number}"

    def test_tpcds_flagships_explain_identical_cold_and_warm(self):
        queries = {q: tpcds_query(q) for q in TPCDS_FLAGSHIPS}
        cold, warm = _explain_cold_and_warm(
            lambda db: load_tpcds(db, scale=0.05), queries, seed=4)
        for number in queries:
            assert warm[number] == cold[number], f"TPC-DS Q{number}"


# -- fault injection through the shared cache ---------------------------------------


class TestFaultsOnColdEntries:

    def test_site_reached_on_cold_cache_after_analyze(self, db):
        _detour(db)
        injector = FaultInjector()
        db.config.fault_injector = injector
        _detour(db)
        assert injector.reached["metadata_provider"] == 0  # all cached
        db.analyze()
        _detour(db)
        assert injector.reached["metadata_provider"] > 0

    @pytest.mark.parametrize("action,reason", [
        ("crash", FallbackReason.UNEXPECTED_EXCEPTION),
        ("typed", FallbackReason.TYPED_ABORT),
    ])
    def test_fault_mid_miss_is_contained_and_leaves_no_entry(
            self, db, action, reason):
        expected = _detour(db).rows
        db.analyze()
        db.config.fault_injector = FaultInjector().arm(
            "metadata_provider", action, times=1)
        statistics = _requests(db, "statistics_dxl")
        faulted = db.run(JOIN_SQL, optimizer="orca", use_plan_cache=False)
        assert faulted.optimizer_used == "mysql"
        assert faulted.fallback_reason is reason
        assert results_match(faulted.rows, expected)
        # The fault fired on the first statistics fetch, so no table's
        # fresh statistics were cached: the next detour fetches all
        # three, then the cache serves them.
        assert _requests(db, "statistics_dxl") == statistics + 1
        recovered = _detour(db)
        assert recovered.rows == expected
        assert _requests(db, "statistics_dxl") == statistics + 4
        _detour(db)
        assert _requests(db, "statistics_dxl") == statistics + 4
