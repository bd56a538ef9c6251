"""Embedded constellation-schema warehouse and yield-group analytics."""

from .catalog import (
    AttributeDef,
    Catalog,
    TableDef,
    Violation,
    builtin_catalog,
    catalog_digest,
    load_catalog,
    save_catalog,
    validate_catalog,
)
from .etl import (
    LoadReport,
    MappingSpec,
    RejectRecord,
    SourceDescriptor,
    convert_unit,
    load_mapping,
    normalize_synonym,
    read_source,
    run_pipeline,
)
from .store import (
    Aggregate,
    DimensionJoin,
    EqFilter,
    QuerySpec,
    RangeFilter,
    Snapshot,
    Store,
    open_store,
    star_query,
)
from .analytics import (
    FactorGroupStats,
    GroupAssignment,
    GroupYieldStats,
    OptimalFinding,
    SignificanceRule,
    YieldRecord,
    assign_groups,
    extract_yield_records,
    factor_group_means,
    is_discriminative,
    mine_optima,
    yield_group_stats,
)
from .synth import SynthConfig, expected_findings, generate
from .report import emit_factor_series, emit_findings, emit_group_table, load_findings

__version__ = "0.1.0"
