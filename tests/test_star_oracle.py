"""Randomized equivalence of the star-join engine against a naive oracle."""

from __future__ import annotations

import importlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from agridw.catalog import AttributeDef, builtin_catalog
from agridw.store import (
    AGGREGATE_OPS,
    Aggregate,
    DimensionJoin,
    EqFilter,
    QuerySpec,
    RangeFilter,
    Snapshot,
    star_query,
)

from helpers import (
    column_reads,
    csv_view,
    nested_loop_star_query,
    random_mini_catalog,
    random_query,
    random_snapshot,
    rows_equal,
    sort_rows,
    stored_snapshot,
)


def _check_one(rng: random.Random, max_facts: int) -> None:
    snapshot, tables = random_snapshot(rng, max_facts=max_facts)
    for _ in range(3):
        q = random_query(rng, snapshot)
        got = star_query(snapshot, q)
        oracle_columns, oracle_rows = nested_loop_star_query(snapshot.catalog, tables, q)
        assert got.columns == oracle_columns
        assert rows_equal(sort_rows(got.rows), sort_rows(oracle_rows)), (
            f"mismatch for {q}:\n{sort_rows(got.rows)[:5]}\nvs\n{sort_rows(oracle_rows)[:5]}"
        )


def test_engine_matches_nested_loop_oracle_small():
    rng = random.Random(20260810)
    for _ in range(40):
        _check_one(rng, max_facts=120)


def test_engine_matches_oracle_with_duplicates_and_absence():
    # force heavy duplication: tiny vocab already in helpers; tiny dims here
    rng = random.Random(99)
    for _ in range(20):
        _check_one(rng, max_facts=60)


# --- edge cases, compared with the oracle in exact row order -----------------

_EDGE_CATALOG = random_mini_catalog(random.Random(0), 2)
_EDGE_DIMS = {
    "D1": [
        {"sk": 1, "ID": "a", "Cat": "alpha", "Val": 1.5},
        {"sk": 2, "ID": "b", "Cat": "beta"},
        {"sk": 3, "ID": "c", "Cat": "alpha", "Val": -2.0},
    ],
    "D2": [{"sk": 1, "ID": "x", "Cat": "gamma"}, {"sk": 2, "ID": "y", "Cat": "delta", "Val": 0.0}],
}
_EDGE_FACTS = [
    {"D1Key": 3, "D2Key": 1, "M1": 4.0, "M2": 1.0},
    {"D1Key": 1, "M1": -1.25},  # no D2 key
    {"D1Key": 9, "D2Key": 2, "M1": 7.0},  # D1 key past the last row
    {"D1Key": 2, "D2Key": 2, "M2": 3.5},
    {"D2Key": 1, "M1": 0.5, "M2": 2.0},  # no D1 key
    {"D1Key": 1, "D2Key": 2},
]


def _edge_tables(*names: str) -> dict:
    tables = {**_EDGE_DIMS, "Fact": _EDGE_FACTS}
    return {name: tables[name] for name in names}


def _same_as_oracle(tables: dict, q: QuerySpec, catalog=_EDGE_CATALOG) -> list:
    """The engine's rows over a snapshot of ``tables``, checked against the oracle over ``tables`` itself."""
    got = star_query(stored_snapshot(catalog, tables), q)
    assert (got.columns, got.rows) == nested_loop_star_query(catalog, tables, q)
    return got.rows


_ALL_AGGREGATES = tuple(Aggregate(op, "M2") for op in AGGREGATE_OPS)


@pytest.mark.parametrize("joins", [("D1",), ("D2",), ("D1", "D2"), ("D2", "D1")])
def test_absent_and_out_of_range_keys_drop_the_fact_row(joins):
    q = QuerySpec(fact="Fact", joins=tuple(DimensionJoin(name) for name in joins),
                  project=("M1", *(f"{name}.ID" for name in joins)))
    rows = _same_as_oracle(_edge_tables("D1", "D2", "Fact"), q)
    kept = [fact for fact in _EDGE_FACTS
            if all(1 <= fact.get(f"{name}Key", 0) <= len(_EDGE_DIMS[name]) for name in joins)]
    assert [row[0] for row in rows] == [fact.get("M1") for fact in kept]


@pytest.mark.parametrize("joins", [(), (DimensionJoin("D1"),), (DimensionJoin("D2", (EqFilter("Cat", "delta"),)),)])
def test_empty_projection_without_aggregates_gives_one_empty_row_per_match(joins):
    rows = _same_as_oracle(_edge_tables("D1", "D2", "Fact"), QuerySpec(fact="Fact", joins=joins))
    assert rows and set(rows) == {()}


@pytest.mark.parametrize("tables", [("D1", "D2"), ("D1", "Fact"), ("D2", "Fact"), ()])
@pytest.mark.parametrize("q", [
    QuerySpec(fact="Fact"),
    QuerySpec(fact="Fact", project=("M1",)),
    QuerySpec(fact="Fact", aggregates=_ALL_AGGREGATES),
    QuerySpec(fact="Fact", joins=(DimensionJoin("D1"),), project=("D1.Cat", "M2")),
    QuerySpec(fact="Fact", joins=(DimensionJoin("D2", (RangeFilter("Val", lo=-1.0),)),), project=("D2.ID",)),
    QuerySpec(fact="Fact", joins=(DimensionJoin("D1"),), project=("D1.Cat",), group_by=("D1.Cat",),
              aggregates=_ALL_AGGREGATES),
])
def test_a_table_never_written_reads_as_no_rows(tables, q):
    _same_as_oracle(_edge_tables(*tables), q)


def test_a_column_projected_twice():
    q = QuerySpec(fact="Fact", joins=(DimensionJoin("D1"), DimensionJoin("D2")),
                  project=("M1", "D1.Cat", "M1", "D2.Val", "D1.Cat"))
    rows = _same_as_oracle(_edge_tables("D1", "D2", "Fact"), q)
    assert rows and all(row[0] == row[2] and row[1] == row[4] for row in rows)


def test_an_absent_group_key_is_a_group():
    q = QuerySpec(fact="Fact", joins=(DimensionJoin("D1"), DimensionJoin("D2")), project=("D1.Val", "D2.Val"),
                  group_by=("D2.Val", "D1.Val"), aggregates=(Aggregate("count", "M1"), Aggregate("sum", "M2")))
    rows = _same_as_oracle(_edge_tables("D1", "D2", "Fact"), q)
    assert any(None in row[:2] for row in rows)


def test_min_and_max_over_absent_values_are_absent():
    q = QuerySpec(fact="Fact", joins=(DimensionJoin("D1", (EqFilter("Cat", "alpha"),)),), project=("D1.ID",),
                  group_by=("D1.ID",), aggregates=_ALL_AGGREGATES)
    rows = _same_as_oracle(_edge_tables("D1", "D2", "Fact"), q)
    assert ("a", 0, None, None, None, None) in rows  # D1 row "a": two facts, neither with M2


def test_a_dimension_attribute_named_with_a_dot():
    catalog = builtin_catalog()
    crops = [{"sk": 1, "CropID": "c1", "CropName": "Wheat", "Equ.Weight": 2.5},
             {"sk": 2, "CropID": "c2", "CropName": "Oats"},
             {"sk": 3, "CropID": "c3", "CropName": "Rye", "Equ.Weight": 7.0}]
    facts = [{"CropKey": 3, "YieldValue": 9.0}, {"CropKey": 1, "YieldValue": 8.0},
             {"CropKey": 2, "YieldValue": 6.0}, {"CropKey": 1}, {"YieldValue": 1.0}]
    tables = {"Crop": crops, "FieldFact": facts}
    rows = _same_as_oracle(tables, QuerySpec(
        fact="FieldFact", joins=(DimensionJoin("Crop", (RangeFilter("Equ.Weight", lo=2.0),)),),
        project=("Crop.Equ.Weight", "YieldValue")), catalog)
    assert rows == [(7.0, 9.0), (2.5, 8.0), (2.5, None)]
    rows = _same_as_oracle(tables, QuerySpec(
        fact="FieldFact", joins=(DimensionJoin("Crop"),), project=("Crop.Equ.Weight",),
        group_by=("Crop.Equ.Weight",), aggregates=(Aggregate("count", "YieldValue"), Aggregate("sum", "YieldValue"))),
        catalog)
    assert rows == [(7.0, 1, 9.0), (2.5, 1, 8.0), (None, 1, 6.0)]


def test_a_fact_measure_named_with_a_dot_is_read_from_the_fact():
    catalog = random_mini_catalog(random.Random(0), 1)
    fact = catalog.tables["Fact"]
    fact = replace(fact, attributes=fact.attributes + (AttributeDef(name="D1.Val", kind="number"),),
                   measures=fact.measures + ("D1.Val",))
    catalog = replace(catalog, tables={**catalog.tables, "Fact": fact})
    dims = [{"sk": 1, "ID": "a", "Cat": "alpha", "Val": 100.0}, {"sk": 2, "ID": "b", "Cat": "beta", "Val": 200.0}]
    facts = [{"D1Key": 1, "D1.Val": 1.0}, {"D1Key": 2, "D1.Val": 2.0}, {"D1Key": 1, "D1.Val": 4.0}]
    tables = {"D1": dims, "Fact": facts}
    rows = _same_as_oracle(tables, QuerySpec(
        fact="Fact", joins=(DimensionJoin("D1"),), project=("D1.Cat",), group_by=("D1.Cat",),
        aggregates=(Aggregate("sum", "D1.Val"),)), catalog)
    assert rows == [("alpha", 5.0), ("beta", 2.0)]
    # the same name projected is the dimension's attribute, aggregated the fact's measure
    rows = _same_as_oracle(tables, QuerySpec(
        fact="Fact", joins=(DimensionJoin("D1"),), project=("D1.Val",), group_by=("D1.Val",),
        aggregates=(Aggregate("max", "D1.Val"),)), catalog)
    assert rows == [(100.0, 4.0), (200.0, 2.0)]


# --- the engine reads columns only --------------------------------------------

def _named_columns(snapshot: Snapshot, q: QuerySpec) -> dict[str, set[str]]:
    """Each table's columns ``q`` names: a joined dimension's key on the fact,
    its filter attributes, and the projected and aggregated columns."""
    fact = snapshot.catalog.table(q.fact)
    named = {q.fact: {fact.foreign_key_for(join.dimension).name for join in q.joins}}
    for join in q.joins:
        named.setdefault(join.dimension, set()).update(flt.attribute for flt in join.filters)
    for name in q.project:
        table, column = name.split(".", 1) if "." in name else (q.fact, name)
        named[table].add(column)
    named[q.fact].update(agg.attribute for agg in q.aggregates)
    return named


def _engine_reads_columns_only(monkeypatch, snapshot: Snapshot, tables: dict, q: QuerySpec) -> None:
    """The engine decodes only the columns ``q`` names, and its result equals the oracle's."""
    with column_reads(monkeypatch) as reads:
        got = star_query(snapshot, q)
    named = _named_columns(snapshot, q)
    assert all(set(names) <= named[table] for table, names in reads), f"{q}: {reads}"
    assert (got.columns, got.rows) == nested_loop_star_query(snapshot.catalog, tables, q), f"{q}"


def test_engine_reads_columns_only_on_the_c4_queries(monkeypatch):
    rng = random.Random(0xC4)  # the acceptance suite's C4 snapshots and queries
    for i in range(200):
        snapshot, tables = random_snapshot(rng, max_facts=1000 if i % 4 == 0 else 200)
        _engine_reads_columns_only(monkeypatch, snapshot, tables, random_query(rng, snapshot))


def test_engine_reads_columns_only_on_the_bench_query_shapes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    query = workloads.Query(tmp_path, 1, workloads.SIZES["smoke"])
    query.setup()
    query.prepare_checks()
    assert len(query.pool) == len(workloads.QUERY_SHAPES) == 12
    tables = csv_view(query.base, query.snapshot.catalog)
    for q in query.pool:
        _engine_reads_columns_only(monkeypatch, query.snapshot, tables, q)
