"""ETL against its reference model (``etl_model``): drawn mapping specs over
Crop, Soil and FieldFact and hostile raw rows, compared binding by binding
with ``CompiledMapping.apply`` and row by row with ``run_pipeline``."""

from __future__ import annotations

import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from agridw.catalog import builtin_catalog
from agridw.etl import CompiledMapping, RawRow, RejectRecord, SourceDescriptor, mapping_from_dict, run_pipeline
from agridw.store import open_store
from etl_model import json_field, model_apply, model_pipeline, model_stored

CATALOG = builtin_catalog()
LIMIT = csv.field_size_limit()
SOURCES = ("a", "b", "c", "d")
UNITS = ("g/ha", "kg/ha", "t/ha", "ton/ha", "mg/l", "pH", "l/ha", "oz/acre")

# Text a source cell may hold: non-finite and overflowing numbers, each range
# end and its neighbours, synonym hits and misses, dates, keys, quoting, and
# text of length 1 and of exactly the limit.
HOSTILE_TEXT = (
    "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1e306", "3.0", "3", "2.9999999", "10", "10.0", "10.0000001",
    "0", "-0", "0.0", "-0.000001", "200", "200.0", "200.0000001", "10000", "10000.000001", "1e-7", "33800",
    "abc", "8,5", " 8.5 ", "x", "Grass", "wheat w.", "  GRASS ", "Moon Wheat", "01/04/2019", "2019-04-01",
    "C1", "C2", "C9", "true", '"q"', "a,b", "two\nlines", "x" * LIMIT,
)
# A value a mapping file can hold as a constant, hostile ones included.
CONSTANTS = (
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), True, False, 0, 0.0, -0.0, 3.0, 10.0,
    200, 200.0, 1e-7, 10000, 10000.5, 5e-324, 2**63, "8.5", "", "x", "Grass", "x" * LIMIT, "y" * (LIMIT + 1),
    None, [1], {"a": 1},
)

_text = st.one_of(st.sampled_from(HOSTILE_TEXT), st.floats().map(repr), st.text(min_size=1, max_size=6))
_op = st.one_of(
    st.just({"op": "rename"}),
    st.just({"op": "parse-number"}),
    st.sampled_from(("%d/%m/%Y", "%Y-%m-%d")).map(lambda pattern: {"op": "parse-date", "pattern": pattern}),
    st.tuples(st.sampled_from(UNITS), st.sampled_from(UNITS)).map(
        lambda pair: {"op": "unit-convert", "from": pair[0], "to": pair[1]}),
    st.just({"op": "synonym", "table": "crop-names"}),
    st.tuples(st.sampled_from(("constant", "nullable-default")), st.sampled_from(CONSTANTS)).map(
        lambda op: {"op": op[0], "value": op[1]}),
)
_chain = st.lists(_op, max_size=3).filter(lambda ops: sum(op["op"] == "unit-convert" for op in ops) <= 1)


@st.composite
def mappings(draw, table_name=None):
    """A mapping that compiles: every non-nullable attribute bound, other
    attributes drawn (one may be bound twice), in a drawn binding order."""
    table = CATALOG.table(table_name or draw(st.sampled_from(("Crop", "Soil", "FieldFact"))))
    names = [a.name for a in table.attributes]
    targets = [a.name for a in table.attributes if not a.nullable]
    targets += draw(st.lists(st.sampled_from(names), min_size=not targets, max_size=5))
    targets = draw(st.permutations(targets))
    bindings = [
        {"source": draw(st.sampled_from(SOURCES + ("",))), "target": target, "transforms": draw(_chain)}
        for target in targets
    ]
    return {"target_table": table.name, "bindings": bindings}


def _fields(text):
    return st.dictionaries(st.sampled_from(SOURCES), text, max_size=len(SOURCES))


def _items(typed: dict) -> list:
    """A typed row's items with each value's type, so 1 and 1.0 differ."""
    return [(name, type(value), value) for name, value in typed.items()]


@settings(max_examples=400, deadline=None)
@given(mapping=mappings(), fields=_fields(_text | st.just("y" * (LIMIT + 1))))
@example(  # each range end is inside its range; an exclusive low end is not
    mapping={"target_table": "Soil", "bindings": [
        {"source": "a", "target": "SoilID"},
        {"source": "b", "target": "PH", "transforms": [{"op": "parse-number"}]},
        {"source": "c", "target": "Phosphorus", "transforms": [{"op": "parse-number"}]},
        {"source": "d", "target": "Potassium", "transforms": [{"op": "parse-number"}]},
    ]},
    fields={"a": "x", "b": "10", "c": "0", "d": "10000"},
)
@example(
    mapping={"target_table": "Soil", "bindings": [
        {"source": "a", "target": "SoilID"}, {"source": "b", "target": "PH", "transforms": [{"op": "parse-number"}]},
    ]},
    fields={"a": "x" * LIMIT, "b": "3.0"},
)
@example(
    mapping={"target_table": "FieldFact", "bindings": [
        {"source": "a", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
    ]},
    fields={"a": "200"},
)
def test_apply_agrees_with_the_model(mapping, fields):
    got = CompiledMapping(mapping_from_dict(mapping), CATALOG).apply(RawRow("mem", 1, fields, ""))
    expected = model_apply(mapping, CATALOG, fields)
    if isinstance(expected, dict):
        assert not isinstance(got, RejectRecord), (got.binding, got.reason)
        assert _items(got) == _items(expected)
    else:
        assert isinstance(got, RejectRecord), got
        assert (got.binding, got.reason) == expected


_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(), _text, st.just(""), st.just([1, "a"]),
)

# The Crop rows a FieldFact source resolves its CropKey against: C1 is sk 1, C2 sk 2.
_CROPS = "crop_id,crop_name\nC1,Grass\nC2,Winter Rye\n"
_CROP_MAPPING = {"target_table": "Crop", "bindings": [
    {"source": "crop_id", "target": "CropID"}, {"source": "crop_name", "target": "CropName"},
]}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    mapping=mappings(),
    record_json=st.booleans(),
    data=st.data(),
)
def test_run_pipeline_agrees_with_the_model(mapping, record_json, data):
    """Delimited or record-JSON rows through ``run_pipeline`` into an empty
    store: the same rejects, in row order, and the same stored rows."""
    value = _JSON_VALUE if record_json else _text | st.just("")
    rows = data.draw(st.lists(st.dictionaries(st.sampled_from(SOURCES), value, max_size=len(SOURCES)),
                              min_size=1, max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if record_json:
            (tmp / "s.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            source = SourceDescriptor(path=str(tmp / "s.jsonl"), format="record-json")
            fields = [{k: text for k, v in row.items() if (text := json_field(v)) is not None} for row in rows]
        else:
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\r\n")  # so a cell holding "\r" or "\n" is quoted
            writer.writerow(SOURCES)
            writer.writerows([row.get(name, "") for name in SOURCES] for row in rows)
            (tmp / "s.csv").write_text(out.getvalue(), encoding="utf-8", newline="")
            source = SourceDescriptor(path=str(tmp / "s.csv"))
            fields = [{k: v for k, v in row.items() if v != ""} for row in rows]
        pairs, keys = [(source, mapping_from_dict(mapping))], {}
        if mapping["target_table"] == "FieldFact":
            (tmp / "crops.csv").write_text(_CROPS, encoding="utf-8")
            pairs.insert(0, (SourceDescriptor(path=str(tmp / "crops.csv")), mapping_from_dict(_CROP_MAPPING)))
            keys["Crop"] = {"C1": 1, "C2": 2}
        store = open_store(tmp / "store", CATALOG)
        report = run_pipeline(pairs, CATALOG, store)

        accepted, rejects = model_pipeline(mapping, CATALOG, fields, keys)
        assert [(r.row, r.binding, r.reason) for r in report.rejects] == rejects
        table = mapping["target_table"]
        stored = [{k: v for k, v in row.items() if k != "sk"} for row in store.snapshot().rows(table)]
        assert stored == model_stored(CATALOG, table, accepted)
