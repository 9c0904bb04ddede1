"""The MySQL metadata provider: Orca's plug-in view of the data dictionary.

Section 5: "Orca's integration with a target DBMS uses the plug-in
approach of a DBMS-specific metadata provider".  The provider answers
OID-based requests with DXL documents for relations, statistics (with
histograms — including the ones on UNIQUE columns that MySQL normally
refuses to build, Section 5.5), and types; it computes expression OIDs by
the cube scheme of Section 5.2 and their commutators/inverses per
Section 5.3.

One deliberate difference from the PostgreSQL provider is reproduced
faithfully (Section 5): queries execute inside MySQL, so this provider
never hands out function *pointers* — where Orca's API contract expects
executable metadata, stubs are returned (:meth:`get_function_pointer`).

Request counters expose how often each API is hit, which the tests use to
verify Orca's metadata cache actually prevents repeated requests.

One provider serves a :class:`repro.database.Database` for its whole
life (so does the cache in front of it, :mod:`repro.orca.mdcache`).
Relation OIDs are therefore assigned in the order tables are first
requested across statements; nothing in plan choice depends on their
numeric order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bridge import dxl, oid_layout
from repro.catalog.catalog import Catalog
from repro.errors import InvalidOidError, MetadataProviderError
from repro.mysql_types import MySQLType, TypeCategory, TypeInstance
from repro.sql import ast


def expression_signature(expr: ast.Expr) -> Optional[Tuple]:
    """What an expression's OID is a function of, or None if it has none.

    A comparison or arithmetic node's OID is fixed by its operator and
    the type categories of its operands, an aggregate's by its function
    and argument category — the coordinates of the cube scheme of
    Section 5.2.  Orca's metadata cache keys operator metadata by this
    signature.
    """
    from repro.sql.blocks import infer_type

    if isinstance(expr, ast.BinaryExpr):
        if expr.op in ast.COMPARISON_OPS or expr.op in ast.ARITHMETIC_OPS:
            return (expr.op, infer_type(expr.left).category,
                    infer_type(expr.right).category)
        return None
    if isinstance(expr, ast.AggCall):
        if expr.star:
            return (expr.func, TypeCategory.STAR)
        if expr.func is ast.AggFunc.COUNT:
            return (expr.func, TypeCategory.ANY)
        return (expr.func, infer_type(expr.arg).category)
    return None


class MySQLMetadataProvider:
    """Serves MySQL dictionary objects to Orca over DXL.

    ``config`` is the owning database's configuration; its
    ``fault_injector`` is read on every request, so an injector armed
    after the provider was built still reaches the ``metadata_provider``
    site.
    """

    def __init__(self, catalog: Catalog, config=None,
                 metrics=None) -> None:
        self.catalog = catalog
        self.config = config
        #: Optional :class:`repro.observability.MetricsRegistry`; every
        #: provider request is counted as ``metadata.requests`` so the
        #: per-statement report shows how often Orca's cache missed all
        #: the way through to the provider.
        self.metrics = metrics
        self._relation_index: Dict[str, int] = {}
        self._relation_names: List[str] = []
        #: Synthetic relation indexes for derived tables / CTEs (they have
        #: OIDs so table descriptors are uniform, but no dictionary entry).
        self._synthetic: Dict[str, int] = {}
        self.request_counts: Dict[str, int] = {}

    def _count(self, api: str) -> None:
        self.request_counts[api] = self.request_counts.get(api, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("metadata.requests")
            self.metrics.inc(f"metadata.requests.{api}")

    def _dictionary_request(self, api: str) -> None:
        """Count a request that reads the data dictionary and pass
        through the ``metadata_provider`` injection site."""
        self._count(api)
        injector = getattr(self.config, "fault_injector", None)
        if injector is not None:
            injector.fire("metadata_provider")

    # -- relation OIDs -------------------------------------------------------------

    def _relation_index_for(self, name: str) -> int:
        key = name.lower()
        index = self._relation_index.get(key)
        if index is None:
            if not self.catalog.has_table(name):
                raise MetadataProviderError(f"unknown relation {name!r}")
            index = len(self._relation_names)
            self._relation_index[key] = index
            self._relation_names.append(name)
        return index

    def get_table_oid(self, qualified_name: str) -> int:
        """OID for a (possibly schema-qualified) table name.

        This is the converter's "typical interaction" from Section 5.7:
        send 'tpch.lineitem', receive the table's unique OID.
        """
        self._dictionary_request("table_oid")
        name = qualified_name.rsplit(".", 1)[-1]
        return oid_layout.relation_oid(self._relation_index_for(name))

    def get_synthetic_oid(self, alias: str) -> int:
        """OID for a derived table or CTE reference (no dictionary entry)."""
        self._count("synthetic_oid")
        key = alias.lower()
        index = self._synthetic.get(key)
        if index is None:
            # Synthetic relations live after all dictionary relations.
            index = 100_000 + len(self._synthetic)
            self._synthetic[key] = index
        return oid_layout.relation_oid(index)

    def get_column_oid(self, table_name: str, column_name: str) -> int:
        self._count("column_oid")
        index = self._relation_index_for(table_name)
        schema = self.catalog.table(table_name)
        return oid_layout.column_oid(index,
                                     schema.column_position(column_name))

    # -- DXL object bodies ------------------------------------------------------------

    def _relation_name_for_oid(self, oid: int) -> str:
        relation_index, kind, __ = oid_layout.decode_relation_oid(oid)
        if kind != "relation":
            raise InvalidOidError(f"{oid} is not a relation OID")
        if relation_index >= 100_000:
            raise MetadataProviderError(
                "synthetic relations have no dictionary metadata")
        try:
            return self._relation_names[relation_index]
        except IndexError:
            raise InvalidOidError(
                f"relation OID {oid} was never handed out") from None

    def get_relation_dxl(self, oid: int) -> str:
        """Relation metadata (name, columns, types, indexes) as DXL."""
        self._dictionary_request("relation_dxl")
        name = self._relation_name_for_oid(oid)
        index = self._relation_index_for(name)
        schema = self.catalog.table(name)
        column_oids = [oid_layout.column_oid(index, position)
                       for position in range(len(schema.columns))]
        index_oids = [oid_layout.index_oid(index, position)
                      for position in range(len(schema.indexes))]
        return dxl.relation_to_dxl(schema, oid, column_oids, index_oids)

    def get_statistics_dxl(self, oid: int) -> str:
        """Statistics (cardinality, NDVs, nulls, histograms) as DXL.

        Histograms for UNIQUE columns are included — the restriction MySQL
        normally applies was lifted for the integration (Section 5.5).
        """
        self._dictionary_request("statistics_dxl")
        relation_index, kind, __ = oid_layout.decode_relation_oid(oid)
        if kind == "relation":
            stats_oid = oid_layout.statistics_oid(relation_index)
        elif kind == "statistics":
            stats_oid = oid
        else:
            raise InvalidOidError(f"{oid} is not a statistics OID")
        name = self._relation_names[relation_index]
        statistics = self.catalog.statistics(name)
        return dxl.statistics_to_dxl(statistics, stats_oid)

    def get_type_dxl(self, oid: int) -> str:
        self._count("type_dxl")
        mysql_type = oid_layout.decode_type(oid)
        return dxl.type_to_dxl(mysql_type, oid)

    # -- expression OIDs (Section 5.2) ---------------------------------------------------

    def get_arithmetic_oid(self, left: TypeCategory, right: TypeCategory,
                           op: ast.BinOp) -> int:
        self._count("arithmetic_oid")
        return oid_layout.arithmetic_oid(left, right, op)

    def get_comparison_oid(self, left: TypeCategory, right: TypeCategory,
                           op: ast.BinOp) -> int:
        self._count("comparison_oid")
        return oid_layout.comparison_oid(left, right, op)

    def get_aggregate_oid(self, category: TypeCategory,
                          func: ast.AggFunc) -> int:
        self._count("aggregate_oid")
        return oid_layout.aggregate_oid(category, func)

    def get_commutator_oid(self, oid: int) -> int:
        self._count("commutator_oid")
        return oid_layout.commutator_oid(oid)

    def get_inverse_oid(self, oid: int) -> int:
        self._count("inverse_oid")
        return oid_layout.inverse_oid(oid)

    def get_expression_oid(self, expr: ast.Expr) -> int:
        """OID of a binary expression node, classified by operand types."""
        self._count("expression_oid")
        signature = expression_signature(expr)
        if signature is None:
            return oid_layout.INVALID_OID
        if len(signature) == 2:
            func, category = signature
            return oid_layout.aggregate_oid(category, func)
        op, left, right = signature
        if op in ast.COMPARISON_OPS:
            return oid_layout.comparison_oid(left, right, op)
        return oid_layout.arithmetic_oid(left, right, op)

    # -- functions (Section 5.4) -------------------------------------------------------------

    def get_function_oid(self, name: str) -> int:
        self._count("function_oid")
        return oid_layout.function_oid(name)

    def get_function_pointer(self, oid: int) -> None:
        """Stub: the MySQL provider never returns executable callbacks.

        "the MySQL metadata provider avoids [function pointers] because a
        query executes inside MySQL ... but it still has to fulfil all of
        the Orca API contracts — even if sometimes by providing stubs"
        (Section 5).
        """
        self._count("function_pointer")
        return None
