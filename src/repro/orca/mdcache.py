"""Orca's metadata cache (the MD accessor).

"Orca maintains an internal metadata cache ... and if the required
information pre-exists there, the metadata provider is not queried again"
(Section 5.7).  The accessor is the only way the Orca side ever sees MySQL
metadata: each answer arrives as a DXL document from the provider and is
parsed and memoised here.  It also serves as the statistics source for
Orca's selectivity estimation (it exposes the ``statistics(name)`` /
``table(name)`` protocol the estimator expects), so every cardinality
Orca computes has round-tripped through DXL.

Lifetime: one accessor serves a :class:`repro.database.Database` for
its whole life, not one detour, so the DXL round trip for a table is
paid once per DDL or ANALYZE of that table rather than once per query.
Entries are validated on read, like the statement plan cache: a
relation entry records the table's schema stamp and a statistics entry
its statistics stamp (:class:`repro.catalog.catalog.TableVersions`), and
an entry whose stamp no longer matches is re-fetched.  Stamps are read
straight from the catalog, not requested from the provider: like the
version GPDB embeds in its metadata ids, a stamp validates an entry
without a DXL round trip.  Writes (INSERT,
UPDATE, DELETE) stamp neither, since statistics change only through
ANALYZE, so DML never flushes this cache.  Table-name OIDs, synthetic
OIDs, types and operator OIDs never go stale: the provider assigns an
OID to a name once and for all, and types and operators are fixed.

Observability: every hit, miss and invalidation is counted per request
kind (:meth:`MDAccessor.stats`), mirrored into a
:class:`repro.observability.MetricsRegistry` (``mdcache.hits`` /
``mdcache.misses`` / ``mdcache.evictions`` / ``mdcache.invalidations``)
when one is attached, and each provider round-trip (a cache miss) is
traced as a ``metadata_lookup`` span.

The cache is *bounded*: each kind-specific map is an LRU capped at
``capacity`` entries, so metadata caching cannot grow without limit
across long benchmark runs against wide catalogs.  The default is far
above any workload in this repo (TPC-DS has 24 tables), so behaviour
only changes for deliberately tiny capacities; evictions are counted
per kind.  :meth:`MDAccessor.resize` re-bounds a live cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.bridge import dxl
from repro.bridge.metadata_provider import (
    MySQLMetadataProvider,
    expression_signature,
)
from repro.bridge.oid_layout import INVALID_OID
from repro.sql import ast
from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.observability import NOOP_TRACER

#: Default per-kind LRU capacity — generous enough that the seed
#: workloads (a few dozen tables, a handful of types) never evict.
DEFAULT_MDCACHE_CAPACITY = 1024


class _LRUCache:
    """A small LRU map; reports evictions through a callback."""

    def __init__(self, capacity: int,
                 on_evict: Callable[[], None]) -> None:
        self.capacity = capacity
        self._on_evict = on_evict
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = value
        self._trim()

    def resize(self, capacity: int) -> None:
        self.capacity = capacity
        self._trim()

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._on_evict()

    def __len__(self) -> int:
        return len(self._entries)


class MDAccessor:
    """Caching facade over the metadata provider."""

    def __init__(self, provider: MySQLMetadataProvider,
                 tracer=NOOP_TRACER, metrics=None,
                 capacity: Optional[int] = None) -> None:
        self.provider = provider
        self.tracer = tracer
        self.metrics = metrics
        self.capacity = capacity if capacity is not None \
            else DEFAULT_MDCACHE_CAPACITY
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.cache_invalidations = 0
        self._hits_by_kind: Dict[str, int] = {}
        self._misses_by_kind: Dict[str, int] = {}
        self._evictions_by_kind: Dict[str, int] = {}
        self._invalidations_by_kind: Dict[str, int] = {}
        #: oid -> (schema stamp, parsed relation).
        self._relation_cache = self._lru("relation")
        #: oid -> (statistics stamp, parsed statistics).
        self._statistics_cache = self._lru("statistics")
        self._type_cache = self._lru("type")
        self._oid_by_name = self._lru("table_oid")
        self._synthetic_oids = self._lru("synthetic_oid")
        #: expression signature -> (oid, commutator oid, inverse oid).
        self._operator_cache = self._lru("operator")
        self._caches = (self._relation_cache, self._statistics_cache,
                        self._type_cache, self._oid_by_name,
                        self._synthetic_oids, self._operator_cache)

    def _lru(self, kind: str) -> _LRUCache:
        return _LRUCache(self.capacity,
                         on_evict=lambda: self._evicted(kind))

    def resize(self, capacity: Optional[int]) -> None:
        """Re-bound every per-kind LRU (evicting, counted, if shrunk)."""
        if capacity is None:
            capacity = DEFAULT_MDCACHE_CAPACITY
        if capacity == self.capacity:
            return
        self.capacity = capacity
        for cache in self._caches:
            cache.resize(capacity)

    # -- hit/miss accounting --------------------------------------------------------

    def _hit(self, kind: str) -> None:
        self.cache_hits += 1
        self._hits_by_kind[kind] = self._hits_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("mdcache.hits")

    def _miss(self, kind: str) -> None:
        self.cache_misses += 1
        self._misses_by_kind[kind] = self._misses_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("mdcache.misses")

    def _evicted(self, kind: str) -> None:
        self.cache_evictions += 1
        self._evictions_by_kind[kind] = \
            self._evictions_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("mdcache.evictions")

    def _invalidated(self, kind: str) -> None:
        """A stale entry was found; the re-fetch also counts a miss."""
        self.cache_invalidations += 1
        self._invalidations_by_kind[kind] = \
            self._invalidations_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("mdcache.invalidations")

    def stats(self) -> dict:
        """Hit/miss/eviction/invalidation counts, hit ratio, per-kind
        breakdowns (cumulative over the accessor's life)."""
        requests = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "invalidations": self.cache_invalidations,
            "capacity": self.capacity,
            "hit_ratio": self.cache_hits / requests if requests else 0.0,
            "hits_by_kind": dict(sorted(self._hits_by_kind.items())),
            "misses_by_kind": dict(sorted(self._misses_by_kind.items())),
            "evictions_by_kind": dict(
                sorted(self._evictions_by_kind.items())),
            "invalidations_by_kind": dict(
                sorted(self._invalidations_by_kind.items())),
        }

    # -- OID resolution -----------------------------------------------------------

    def table_oid(self, name: str) -> int:
        key = name.lower()
        oid = self._oid_by_name.get(key)
        if oid is not None:
            self._hit("table_oid")
            return oid
        self._miss("table_oid")
        with self.tracer.span("metadata_lookup", kind="table_oid",
                              name=name):
            oid = self.provider.get_table_oid(name)
        self._oid_by_name.put(key, oid)
        return oid

    def synthetic_oid(self, alias: str) -> int:
        key = alias.lower()
        oid = self._synthetic_oids.get(key)
        if oid is not None:
            self._hit("synthetic_oid")
            return oid
        self._miss("synthetic_oid")
        oid = self.provider.get_synthetic_oid(alias)
        self._synthetic_oids.put(key, oid)
        return oid

    # -- versioned entries ------------------------------------------------------------

    def _versioned(self, kind: str, cache: _LRUCache, oid: int,
                   stamp: Optional[int]):
        """The cached value for ``oid`` if it was parsed under ``stamp``.

        A hit counts a hit; a stale entry counts an invalidation and a
        miss (the caller re-fetches); an absent one counts a miss.
        """
        cached = cache.get(oid)
        if cached is not None:
            if cached[0] == stamp:
                self._hit(kind)
                return cached[1]
            self._invalidated(kind)
        self._miss(kind)
        return None

    # -- relation metadata --------------------------------------------------------

    def relation(self, name: str) -> TableSchema:
        """Relation metadata, parsed from the provider's DXL answer."""
        oid = self.table_oid(name)
        versions = self.provider.catalog.table_versions(name)
        stamp = versions.schema if versions is not None else None
        parsed = self._versioned("relation", self._relation_cache, oid,
                                 stamp)
        if parsed is not None:
            return parsed
        with self.tracer.span("metadata_lookup", kind="relation",
                              name=name):
            parsed = dxl.relation_from_dxl(
                self.provider.get_relation_dxl(oid))
        self._relation_cache.put(oid, (stamp, parsed))
        return parsed

    # Alias used by the selectivity estimator protocol.
    def table(self, name: str) -> TableSchema:
        return self.relation(name)

    # -- statistics ----------------------------------------------------------------

    def statistics(self, name: str) -> TableStatistics:
        """Table statistics, parsed from the provider's DXL answer."""
        oid = self.table_oid(name)
        versions = self.provider.catalog.table_versions(name)
        stamp = versions.stats if versions is not None else None
        parsed = self._versioned("statistics", self._statistics_cache,
                                 oid, stamp)
        if parsed is not None:
            return parsed
        with self.tracer.span("metadata_lookup", kind="statistics",
                              name=name):
            parsed = dxl.statistics_from_dxl(
                self.provider.get_statistics_dxl(oid))
        self._statistics_cache.put(oid, (stamp, parsed))
        return parsed

    # -- operators ---------------------------------------------------------------------

    def expression_oids(self, expr: ast.Expr) -> Tuple[int, int, int]:
        """``(oid, commutator oid, inverse oid)`` of an expression node.

        Cached by :func:`expression_signature`, so every comparison of
        two integers shares one entry whatever its columns are.
        """
        signature = expression_signature(expr)
        if signature is None:
            return INVALID_OID, INVALID_OID, INVALID_OID
        cached = self._operator_cache.get(signature)
        if cached is not None:
            self._hit("operator")
            return cached
        self._miss("operator")
        with self.tracer.span("metadata_lookup", kind="operator"):
            oid = self.provider.get_expression_oid(expr)
            oids = (oid, INVALID_OID, INVALID_OID)
            if oid != INVALID_OID:
                oids = (oid, self.provider.get_commutator_oid(oid),
                        self.provider.get_inverse_oid(oid))
        self._operator_cache.put(signature, oids)
        return oids

    # -- types -----------------------------------------------------------------------

    def type_info(self, type_oid: int) -> dict:
        cached = self._type_cache.get(type_oid)
        if cached is not None:
            self._hit("type")
            return cached
        self._miss("type")
        with self.tracer.span("metadata_lookup", kind="type"):
            parsed = dxl.type_from_dxl(self.provider.get_type_dxl(type_oid))
        self._type_cache.put(type_oid, parsed)
        return parsed
