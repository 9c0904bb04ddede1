"""Output check: every read against a reference, every write's row count.

The reference for a read runs on a separate ``Database`` that replays the
measured instance's writes, so both see the same data state while the
measured instance's caches and counters stay untouched.  It bypasses the
plan cache and uses the *other* optimizer (the MySQL optimizer for a
statement that took the Orca detour, Orca otherwise), so a planner bug
shows as a mismatch rather than agreeing with itself.  It never sets an
executor mode or a worker count.

References are memoised by statement, optimizer and the data state of
the written tables the statement names.  References on the loaded data
(no write applied to any table the statement names) are also kept on
disk, keyed by data set, scale, data seed and a digest of the engine
source, because some are slow: Q19 under the MySQL optimizer takes
11-14 s.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import results_match
from workloads import Statement, tables_in


@dataclass
class Outcome:
    """What the measured instance did with one statement."""

    statement: Statement
    seconds: float
    rows: Optional[List[tuple]] = None
    optimizer_used: Optional[str] = None
    error: Optional[str] = None


def source_digest(src_dir: str) -> str:
    """Digest of every Python file under ``src_dir`` (the engine code)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _encode(value):
    if isinstance(value, datetime.date):
        return {"date": value.isoformat()}
    if value is None or isinstance(value, (int, float, str)):
        return value
    raise TypeError(f"cannot persist {type(value).__name__}")


def _decode(value):
    if isinstance(value, dict):
        return datetime.date.fromisoformat(value["date"])
    return value


class DiskMemo:
    """References on the loaded data, one JSON file per data set."""

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self.entries: Dict[str, list] = {}
        self.dirty = False
        if path and os.path.exists(path):
            with open(path) as handle:
                self.entries = json.load(handle)

    def get(self, key: str) -> Optional[List[tuple]]:
        rows = self.entries.get(key)
        if rows is None:
            return None
        return [tuple(_decode(v) for v in row) for row in rows]

    def put(self, key: str, rows: List[tuple]) -> None:
        if self.path is None:
            return
        try:
            self.entries[key] = [[_encode(v) for v in row] for row in rows]
        except TypeError:
            return
        self.dirty = True

    def save(self) -> None:
        if not self.dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        partial = self.path + ".part"
        with open(partial, "w") as handle:
            json.dump(self.entries, handle)
        os.replace(partial, self.path)
        self.dirty = False


class ReferenceChecker:
    """Replays a run's statements on a reference ``Database``."""

    def __init__(self, reference_db, written_tables,
                 memo: DiskMemo) -> None:
        self.db = reference_db
        self.written_tables = tuple(written_tables)
        self.memo = memo
        self.cache: Dict[Tuple, List[tuple]] = {}
        #: Writes the measured instance ran, not yet replayed here.
        self.pending: List[Statement] = []
        self.writes_seen = {t: 0 for t in self.written_tables}
        self.failures: List[str] = []

    def _state(self, sql: str) -> Tuple[int, ...]:
        return tuple(self.writes_seen[t]
                     for t in tables_in(sql, self.written_tables))

    def _reference(self, outcome: Outcome) -> List[tuple]:
        statement = outcome.statement
        optimizer = "mysql" if outcome.optimizer_used == "orca" else "orca"
        state = self._state(statement.sql)
        key = (statement.sql, optimizer, state)
        rows = self.cache.get(key)
        if rows is not None:
            return rows
        disk_key = f"{optimizer}|{statement.sql}"
        initial = not any(state)
        if initial:
            rows = self.memo.get(disk_key)
        if rows is None:
            for write in self.pending:
                self.db.run(write.sql)
            self.pending.clear()
            rows = self.db.run(statement.sql, optimizer=optimizer,
                               use_plan_cache=False).rows
            if initial:
                self.memo.put(disk_key, rows)
        self.cache[key] = rows
        return rows

    def check(self, outcome: Outcome) -> None:
        """Record a failure unless the statement ran and its output is
        right.  Must be called in the order the measured instance ran
        the statements."""
        why = self._failure(outcome)
        if why is not None:
            self.failures.append(f"{outcome.statement.label}: {why}")

    def _failure(self, outcome: Outcome) -> Optional[str]:
        statement = outcome.statement
        if statement.kind == "write":
            if outcome.error is None:
                self.pending.append(statement)
            for table in tables_in(statement.sql, self.written_tables):
                self.writes_seen[table] += 1
            if outcome.error is not None:
                return outcome.error
            if outcome.rows != [(1,)]:
                return f"affected rows {outcome.rows!r}, expected 1"
            return None
        if outcome.error is not None:
            return outcome.error
        try:
            expected = self._reference(outcome)
        except Exception as exc:  # the reference itself is engine output
            return f"reference raised {exc!r}"
        if not results_match(outcome.rows, expected):
            return "rows differ from the reference"
        return None
