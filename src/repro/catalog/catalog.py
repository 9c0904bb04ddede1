"""The data dictionary: every table schema plus its statistics.

This is the structure the MySQL parser/resolver consults for name
resolution, and from which the bridge's metadata provider answers Orca's
requests (Section 5).  It deliberately contains *no* row data — like the
"shell database" technique the related-work section describes, optimization
needs only metadata and statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.errors import CatalogError


class TableVersions(NamedTuple):
    """The change stamps of one table.

    Every stamp is drawn from the catalog-wide :attr:`Catalog.version`
    counter, so a stamp is never reused: a table dropped and re-created
    under the same name gets stamps no cache entry can have recorded.
    """

    #: Last CREATE of the table (DDL).
    schema: int
    #: Last ANALYZE / :meth:`Catalog.set_statistics` (or the CREATE).
    stats: int
    #: Last write to the table's rows (INSERT, UPDATE, DELETE, load).
    data: int


class Catalog:
    """A registry of table schemas and their statistics."""

    def __init__(self, schema: str = "test") -> None:
        self.default_schema = schema
        self._tables: Dict[str, TableSchema] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        self._versions: Dict[str, TableVersions] = {}
        self._version = 0

    # -- versioning ---------------------------------------------------------

    @property
    def version(self) -> int:
        """A counter bumped by every DDL, ANALYZE, and (via the storage
        engine) write.  It is the source of the per-table stamps
        (:meth:`table_versions`); the caches validate against those, so
        a change to one table never invalidates what another table's
        metadata or plans were built from."""
        return self._version

    def bump_version(self) -> int:
        self._version += 1
        return self._version

    def table_versions(self, name: str) -> Optional[TableVersions]:
        """The table's change stamps, or None when no such table exists."""
        return self._versions.get(name.lower())

    def record_write(self, name: str) -> None:
        """Stamp a write to the table's rows.

        Writes leave the schema and statistics stamps alone: statistics
        change only through ANALYZE, so Orca's metadata cache survives
        DML, while a cached plan that reads the table recompiles.
        """
        key = name.lower()
        self._versions[key] = self._versions[key]._replace(
            data=self.bump_version())

    # -- tables -------------------------------------------------------------

    def create_table(self, table: TableSchema) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self._statistics[key] = TableStatistics()
        stamp = self.bump_version()
        self._versions[key] = TableVersions(stamp, stamp, stamp)

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        del self._statistics[key]
        del self._versions[key]
        self.bump_version()

    def table(self, name: str) -> TableSchema:
        key = name.lower()
        try:
            return self._tables[key]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return [table.name for table in self._tables.values()]

    # -- statistics ----------------------------------------------------------

    def statistics(self, name: str) -> TableStatistics:
        self.table(name)  # validates existence
        return self._statistics[name.lower()]

    def set_statistics(self, name: str, statistics: TableStatistics) -> None:
        self.table(name)
        key = name.lower()
        self._statistics[key] = statistics
        self._versions[key] = self._versions[key]._replace(
            stats=self.bump_version())
