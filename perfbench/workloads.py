"""The three benchmark workloads: data set, read stream and write stream.

Every workload is a closed loop driven by one client: the next statement
is sent only after the previous one returned.  The seed drives the
statement order and the keys and values writes use; the engine only ever
sees the generated SQL.  The data set itself is generated from a fixed
seed per data set: across data-generator seeds the work one TPC-H pass
does moved by up to 18% (index lookups per pass ranged 5038-5971 over
five seeds), a spread wider than the bounds the benchmark must hold.

* ``tpch_warm``: the 22 TPC-H statements at scale 1.0 in seeded,
  shuffled passes.  A warm-up pass during set-up fills the plan cache, so
  timed reads hit it and the optimizer layers are bypassed (about one in
  ten misses: the misestimation ledger evicts plans whose estimates keep
  breaching its Q-error threshold).
* ``tpcds_adhoc``: the 99 TPC-DS statements at scale 0.3 in seeded,
  shuffled passes, each sent with ``use_plan_cache=False`` so every
  statement compiles cold.
* ``tpch_dml_churn``: the ``tpch_warm`` read stream plus one single-row
  write on ``orders`` after every fourth read, cycling INSERT a fresh
  key, UPDATE a random existing row, DELETE the oldest inserted key.

Q19 is sent with ``optimizer="orca"``.  Auto-routed it goes to the MySQL
optimizer (2 table references, below the routing threshold of 3), whose
plan runs for 11-14 s, about 10^3 times longer than any other statement.

Write latency is not a gated end-to-end metric.  Back-to-back writes
rebuild a table's indexes and column store and are memory-bound; on a
shared host their latency swung up to 1.8x between runs of one seed, a
spread wider than any bound the benchmark may set.  Writes show end to
end through ``tpch_dml_churn``'s throughput, and layer by layer in the
traced run.
"""

from __future__ import annotations

import datetime
import random
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Writes per read in ``tpch_dml_churn``: one write after every 4th read.
READS_PER_WRITE = 4


@dataclass(frozen=True)
class Statement:
    """One statement the client sends."""

    kind: str                  # "read" or "write"
    sql: str
    label: str                 # stable name: "tpch.q19", "write.update"
    optimizer: str = "auto"
    use_plan_cache: bool = True
    #: Last read of a pass; the timed loop stops only at a pass end, so
    #: every run sends whole passes and the statement mix is fixed.
    ends_pass: bool = False


@dataclass(frozen=True)
class WriteTarget:
    """The table a workload writes and how a single-row write is built."""

    table: str
    #: The primary key, one integer column.
    key_column: str
    #: A DOUBLE column that UPDATE overwrites and INSERT perturbs.
    value_column: str


@dataclass
class Dataset:
    name: str
    scale: float
    load: Callable                      # load_x(db, scale, seed, analyze)
    #: Data-generator seed (fixed; see the module docstring).
    data_seed: int
    queries: Dict[int, str]
    #: The table ``tpch_dml_churn`` writes; None for a read-only data set.
    write_target: Optional[WriteTarget] = None
    #: Statement number -> optimizer it is pinned to.
    pinned: Dict[int, str] = field(default_factory=dict)


def _tpch() -> Dataset:
    from repro.workloads.tpch import TPCH_QUERIES, load_tpch
    return Dataset(
        name="tpch", scale=1.0, load=load_tpch, data_seed=42,
        queries=dict(TPCH_QUERIES),
        write_target=WriteTarget("orders", "o_orderkey", "o_totalprice"),
        pinned={19: "orca"})


def _tpcds() -> Dataset:
    from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
    return Dataset(
        name="tpcds", scale=0.3, load=load_tpcds, data_seed=7,
        queries=dict(TPCDS_QUERIES))


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    dataset: Callable[[], Dataset]
    #: Reads bypass the plan cache, so every statement compiles cold;
    #: otherwise a read pass during set-up fills the cache.
    cold: bool
    #: Writes interleave with reads.
    churn: bool


WORKLOADS: Dict[str, WorkloadSpec] = {
    "tpch_warm": WorkloadSpec("tpch_warm", _tpch, cold=False, churn=False),
    "tpcds_adhoc": WorkloadSpec("tpcds_adhoc", _tpcds, cold=True,
                                churn=False),
    "tpch_dml_churn": WorkloadSpec("tpch_dml_churn", _tpch, cold=False,
                                   churn=True),
}


def sql_literal(value) -> str:
    """Render a Python value the engine returned as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    return "'" + str(value).replace("'", "''") + "'"


def tables_in(sql: str, tables) -> Tuple[str, ...]:
    """The tables among ``tables`` whose name appears as a word in ``sql``.

    A conservative over-approximation of the tables a statement reads:
    an extra match only costs a recomputed reference, never a stale one.
    """
    lowered = sql.lower()
    return tuple(t for t in tables
                 if re.search(rf"\b{re.escape(t)}\b", lowered))


class WriteStream:
    """Seeded single-row writes cycling INSERT, UPDATE, DELETE.

    INSERT copies a random original row under a fresh key with a new
    value; UPDATE overwrites the value of a random original row; DELETE
    removes the oldest key this stream inserted.  Original rows are never
    deleted, so every write affects exactly one row and the table size
    stays within one row of where it started.
    """

    KINDS = ("insert", "update", "delete")

    def __init__(self, target: WriteTarget, columns: List[str],
                 rows: List[tuple], seed: int) -> None:
        self.target = target
        self.rows = rows
        self.key_position = columns.index(target.key_column)
        self.value_position = columns.index(target.value_column)
        self.rng = random.Random(seed * 7919 + 3)
        self.next_key = max(row[self.key_position] for row in rows) + 1
        self.inserted: List[int] = []
        self.count = 0

    def _where(self, key: int) -> str:
        return f"{self.target.key_column} = {key}"

    def _value(self) -> float:
        return round(self.rng.uniform(1.0, 50000.0), 2)

    def next(self) -> Statement:
        kind = self.KINDS[self.count % 3]
        self.count += 1
        table = self.target.table
        if kind == "insert":
            row = list(self.rng.choice(self.rows))
            row[self.key_position] = self.next_key
            self.inserted.append(self.next_key)
            self.next_key += 1
            row[self.value_position] = self._value()
            values = ", ".join(sql_literal(v) for v in row)
            sql = f"INSERT INTO {table} VALUES ({values})"
        elif kind == "update":
            key = self.rng.choice(self.rows)[self.key_position]
            sql = (f"UPDATE {table} SET {self.target.value_column} = "
                   f"{sql_literal(self._value())} WHERE {self._where(key)}")
        else:
            key = self.inserted.pop(0)
            sql = f"DELETE FROM {table} WHERE {self._where(key)}"
        return Statement("write", sql, f"write.{kind}")


class Workload:
    """One workload instance for one seed: set-up plus statement streams."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.dataset = spec.dataset()
        self.queries = self.dataset.queries

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def scale(self) -> float:
        return self.dataset.scale

    def read(self, number: int, ends_pass: bool = False) -> Statement:
        return Statement(
            "read", self.queries[number], f"{self.dataset.name}.q{number}",
            optimizer=self.dataset.pinned.get(number, "auto"),
            use_plan_cache=not self.spec.cold, ends_pass=ends_pass)

    def read_stream(self) -> Iterator[Statement]:
        """Endless seeded, shuffled passes over every statement."""
        rng = random.Random(self.seed * 7919 + 1)
        numbers = sorted(self.queries)
        while True:
            order = list(numbers)
            rng.shuffle(order)
            for number in order[:-1]:
                yield self.read(number)
            yield self.read(order[-1], ends_pass=True)

    def load(self, db, analyze: bool = True) -> None:
        self.dataset.load(db, scale=self.scale, seed=self.dataset.data_seed,
                          analyze=analyze)

    def warm_up(self, db) -> None:
        """One read pass in statement order, filling the plan cache."""
        for number in sorted(self.queries):
            statement = self.read(number)
            db.run(statement.sql, optimizer=statement.optimizer,
                   use_plan_cache=statement.use_plan_cache)

    def setup(self, db_factory) -> Tuple[object, float]:
        """Empty Database to ready; returns ``(db, seconds)``."""
        start = time.perf_counter()
        db = db_factory()
        self.load(db)
        if not self.spec.cold:
            self.warm_up(db)
        return db, time.perf_counter() - start

    def write_stream(self, db) -> WriteStream:
        """Writes for this seed; reads the table's rows once, untimed."""
        target = self.dataset.write_target
        schema = db.catalog.table(target.table)
        columns = [c.name for c in schema.columns]
        rows = db.run(f"SELECT * FROM {target.table}",
                      optimizer="mysql", use_plan_cache=False).rows
        key = columns.index(target.key_column)
        rows.sort(key=lambda row: row[key])
        return WriteStream(target, columns, rows, self.seed)

    def statements(self, db) -> Iterator[Statement]:
        """The timed loop's statement stream (set up here, untimed)."""
        reads = self.read_stream()
        if not self.spec.churn:
            return reads
        writes = self.write_stream(db)

        def interleaved():
            while True:
                for __ in range(READS_PER_WRITE):
                    yield next(reads)
                yield writes.next()
        return interleaved()
