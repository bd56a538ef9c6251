from __future__ import annotations

import csv
import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agridw.catalog import AttributeDef, Catalog, TableDef, builtin_catalog, validate_catalog
from agridw.errors import ConfigError, MappingError, UnitConversionError
from agridw.etl import (
    Binding,
    CompiledMapping,
    MappingSpec,
    RawRow,
    RejectRecord,
    SourceDescriptor,
    STRUCTURAL_BINDING,
    Transform,
    builtin_crop_synonyms,
    convert_unit,
    load_synonym_table,
    mapping_from_dict,
    normalize_synonym,
    read_source,
    run_pipeline,
    write_reject_ledger,
)
from agridw.store import open_store
from agridw.util import csv_line
from helpers import apply_mapping

CATALOG = builtin_catalog()


def _raw(fields, number=1, source="mem", raw=""):
    return RawRow(source=source, number=number, fields=fields, raw=raw)


class TestRawRow:
    def test_keyword_construction_names_every_field(self):
        row = RawRow(source="s.csv", number=3, fields={"a": "1"}, raw="1")
        assert (row.source, row.number, row.fields, row.raw) == ("s.csv", 3, {"a": "1"}, "1")
        assert row == RawRow("s.csv", 3, {"a": "1"}, "1")

    @pytest.mark.parametrize("name", ["source", "number", "fields", "raw"])
    def test_assigning_to_a_field_raises(self, name):
        row = _raw({"a": "1"})
        with pytest.raises(AttributeError):
            setattr(row, name, None)
        assert row == _raw({"a": "1"})


# --- read_source ------------------------------------------------------------

class TestReadSource:
    def test_header_excluded(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        rows = list(read_source(SourceDescriptor(path=str(path))))
        assert len(rows) == 2
        assert rows[0].fields == {"a": "1", "b": "2"}
        assert rows[0].number == 1

    def test_quoted_delimiter_stays_in_field(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text('a,b\n"x,y",2\n')
        rows = list(read_source(SourceDescriptor(path=str(path))))
        assert rows[0].fields["a"] == "x,y"

    def test_wrong_field_count_is_structural_reject(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,2\n1,2,3\n5,6\n")
        rows = list(read_source(SourceDescriptor(path=str(path))))
        assert isinstance(rows[1], RejectRecord)
        assert rows[1].reason == "type-error"
        assert rows[1].binding == STRUCTURAL_BINDING
        assert rows[1].raw == "1,2,3"
        assert rows[2].fields == {"a": "5", "b": "6"}  # stream continues

    def test_empty_fields_become_absent(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,c\n1,,3\n")
        rows = list(read_source(SourceDescriptor(path=str(path))))
        assert rows[0].fields == {"a": "1", "c": "3"}

    def test_a_repeated_header_name_takes_its_last_non_empty_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,a\n1,2,3\n1,2,\n,,\n")
        rows = list(read_source(SourceDescriptor(path=str(path))))
        assert [row.fields for row in rows] == [{"a": "3", "b": "2"}, {"a": "1", "b": "2"}, {}]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n")
        rows = list(read_source(SourceDescriptor(path=str(path))))
        assert rows[0].fields == {"a": "1", "b": "2"}

    def test_record_json_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1, "b": "x", "c": null}\nnot json\n{"a": 2}\n')
        rows = list(read_source(SourceDescriptor(path=str(path), format="record-json")))
        assert rows[0].fields == {"a": "1", "b": "x"}
        assert isinstance(rows[1], RejectRecord) and rows[1].reason == "type-error"
        assert rows[2].fields == {"a": "2"}


# --- convert_unit -------------------------------------------------------------

class TestConvertUnit:
    def test_kg_to_g(self):
        assert convert_unit(1, "kg/ha", "g/ha") == 1000

    def test_ph_identity(self):
        assert convert_unit(6.5, "pH", "pH") == 6.5

    def test_incompatible_pair(self):
        with pytest.raises(UnitConversionError):
            convert_unit(2, "mg/l", "kg/ha")

    def test_unknown_token(self):
        with pytest.raises(UnitConversionError):
            convert_unit(2, "oz/acre", "kg/ha")

    def test_ton_alias(self):
        assert convert_unit(3.5, "ton/ha", "t/ha") == 3.5
        assert convert_unit(3.5, "ton/ha", "kg/ha") == 3500

    @given(
        value=st.decimals(
            min_value=Decimal("-999999"), max_value=Decimal("999999"), places=6, allow_nan=False
        ),
        pair=st.sampled_from(
            [("kg/ha", "g/ha"), ("t/ha", "kg/ha"), ("ton/ha", "t/ha"), ("ton/ha", "g/ha"),
             ("mg/l", "mg/l"), ("pH", "pH"), ("l/ha", "l/ha")]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_exact(self, value, pair):
        x = float(value)
        a, b = pair
        assert convert_unit(convert_unit(x, a, b), b, a) == x


# --- synonyms -------------------------------------------------------------------

class TestSynonyms:
    def test_abbreviation_normalizes(self):
        assert normalize_synonym("barley s.", builtin_crop_synonyms()) == "Spring Barley"

    def test_canonical_fixed_point(self):
        assert normalize_synonym("Spring Barley", builtin_crop_synonyms()) == "Spring Barley"

    def test_miss_returns_none(self):
        assert normalize_synonym("Moon Wheat", builtin_crop_synonyms()) is None

    def test_trim_and_case(self):
        assert normalize_synonym("  WHEAT W. ", builtin_crop_synonyms()) == "Winter Wheat"

    def test_all_twelve_crops_covered(self):
        table = builtin_crop_synonyms()
        canonical = {
            "Spring Barley", "Winter Barley", "Spring Dried Beans", "Winter Dried Beans",
            "Grass", "Spring Linseed", "Forage Maize", "Winter Oats", "Winter Rape",
            "Winter Rye", "Spring Wheat", "Winter Wheat",
        }
        assert canonical <= set(table.values())

    def test_a_table_with_no_header_row_keeps_its_first_row(self, tmp_path):
        path = tmp_path / "synonyms.csv"
        path.write_text("Wheat W.,Winter Wheat\nOats W.,Winter Oats\n")
        assert load_synonym_table(path) == {
            "wheat w.": "Winter Wheat", "winter wheat": "Winter Wheat",
            "oats w.": "Winter Oats", "winter oats": "Winter Oats",
        }

    def test_quoted_crlf_in_a_variant_stays_in_the_cell(self, tmp_path):
        path = tmp_path / "synonyms.csv"
        path.write_bytes(b'variant,canonical\r\n"Wheat\r\nW.",Winter Wheat')
        table = load_synonym_table(path)
        assert table == {"wheat\r\nw.": "Winter Wheat", "winter wheat": "Winter Wheat"}
        assert normalize_synonym("Wheat\r\nW.", table) == "Winter Wheat"


# --- apply_mapping ---------------------------------------------------------------

def _yield_mapping():
    return mapping_from_dict(
        {
            "target_table": "FieldFact",
            "bindings": [
                {"source": "yield_t", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
            ],
        }
    )


class TestApplyMapping:
    def test_parse_number(self):
        typed = apply_mapping(_raw({"yield_t": "8.93"}), _yield_mapping(), CATALOG)
        assert typed == {"YieldValue": 8.93}

    def test_unit_convert_to_target(self):
        spec = mapping_from_dict(
            {
                "target_table": "FieldFact",
                "bindings": [
                    {
                        "source": "herb_g",
                        "target": "HerbicideQty",
                        "transforms": [
                            {"op": "parse-number"},
                            {"op": "unit-convert", "from": "g/ha", "to": "kg/ha"},
                        ],
                    }
                ],
            }
        )
        typed = apply_mapping(_raw({"herb_g": "33800"}), spec, CATALOG)
        assert typed == {"HerbicideQty": 33.8}

    def test_unparseable_number_rejects(self):
        reject = apply_mapping(_raw({"yield_t": "abc"}), _yield_mapping(), CATALOG)
        assert isinstance(reject, RejectRecord)
        assert reject.reason == "type-error"
        assert reject.binding == "YieldValue"

    def test_comma_decimal_rejects(self):
        reject = apply_mapping(_raw({"yield_t": "8,93"}), _yield_mapping(), CATALOG)
        assert isinstance(reject, RejectRecord) and reject.reason == "type-error"

    def test_non_finite_rejects(self):
        reject = apply_mapping(_raw({"yield_t": "inf"}), _yield_mapping(), CATALOG)
        assert isinstance(reject, RejectRecord) and reject.reason == "type-error"

    def test_yield_range(self):
        assert isinstance(apply_mapping(_raw({"yield_t": "0"}), _yield_mapping(), CATALOG), RejectRecord)
        assert isinstance(apply_mapping(_raw({"yield_t": "201"}), _yield_mapping(), CATALOG), RejectRecord)
        reject = apply_mapping(_raw({"yield_t": "250"}), _yield_mapping(), CATALOG)
        assert reject.reason == "range-error"

    def test_ph_range(self):
        spec = mapping_from_dict(
            {
                "target_table": "Soil",
                "bindings": [
                    {"source": "sid", "target": "SoilID", "transforms": [{"op": "rename"}]},
                    {"source": "ph", "target": "PH", "transforms": [{"op": "parse-number"}]},
                ],
            }
        )
        ok = apply_mapping(_raw({"sid": "S1", "ph": "6.5"}), spec, CATALOG)
        assert ok == {"SoilID": "S1", "PH": 6.5}
        reject = apply_mapping(_raw({"sid": "S1", "ph": "12"}), spec, CATALOG)
        assert isinstance(reject, RejectRecord) and reject.reason == "range-error"

    @pytest.mark.parametrize("table, target, text, reason", [
        ("Soil", "PH", "3.0", None), ("Soil", "PH", "10.0", None),
        ("Soil", "Phosphorus", "0", None), ("Soil", "Phosphorus", "10000", None),
        ("FieldFact", "YieldValue", "200", None), ("FieldFact", "YieldValue", "0", "range-error"),
    ])
    def test_range_ends(self, table, target, text, reason):
        keys = [{"source": "id", "target": "SoilID"}] if table == "Soil" else []
        spec = mapping_from_dict({
            "target_table": table,
            "bindings": keys + [{"source": "v", "target": target, "transforms": [{"op": "parse-number"}]}],
        })
        got = apply_mapping(_raw({"id": "S1", "v": text}), spec, CATALOG)
        if reason is None:
            assert got[target] == float(text)
        else:
            assert isinstance(got, RejectRecord) and (got.binding, got.reason) == (target, reason)

    @pytest.mark.parametrize("length", [1, csv.field_size_limit(), csv.field_size_limit() + 1])
    def test_text_length_ends(self, length):
        spec = mapping_from_dict({
            "target_table": "Crop",
            "bindings": [{"source": "id", "target": "CropID"}, {"source": "name", "target": "CropName"}],
        })
        name = "x" * length
        got = apply_mapping(_raw({"id": "C1", "name": name}), spec, CATALOG)
        if length <= csv.field_size_limit():
            assert got == {"CropID": "C1", "CropName": name}
        else:
            assert isinstance(got, RejectRecord) and (got.binding, got.reason) == ("CropName", "type-error")

    def test_missing_required(self):
        spec = mapping_from_dict(
            {
                "target_table": "Crop",
                "bindings": [
                    {"source": "id", "target": "CropID", "transforms": [{"op": "rename"}]},
                    {"source": "name", "target": "CropName", "transforms": [{"op": "rename"}]},
                ],
            }
        )
        reject = apply_mapping(_raw({"id": "C1"}), spec, CATALOG)
        assert isinstance(reject, RejectRecord)
        assert reject.reason == "missing-required"
        assert reject.binding == "CropName"

    def test_synonym_miss(self):
        spec = mapping_from_dict(
            {
                "target_table": "Crop",
                "bindings": [
                    {"source": "id", "target": "CropID", "transforms": [{"op": "rename"}]},
                    {"source": "name", "target": "CropName", "transforms": [{"op": "synonym", "table": "crop-names"}]},
                ],
            }
        )
        typed = apply_mapping(_raw({"id": "C1", "name": "maize f."}), spec, CATALOG)
        assert typed == {"CropID": "C1", "CropName": "Forage Maize"}
        reject = apply_mapping(_raw({"id": "C1", "name": "Moon Wheat"}), spec, CATALOG)
        assert isinstance(reject, RejectRecord) and reject.reason == "synonym-miss"

    def test_constant_and_default(self):
        spec = mapping_from_dict(
            {
                "target_table": "OperationTime",
                "bindings": [
                    {"source": "id", "target": "OperationTimeID", "transforms": [{"op": "rename"}]},
                    {"source": "season", "target": "Season", "transforms": [{"op": "nullable-default", "value": "Spring"}]},
                    {"source": "", "target": "EndDate", "transforms": [{"op": "constant", "value": "2019-09-30"}]},
                ],
            }
        )
        typed = apply_mapping(_raw({"id": "T1"}), spec, CATALOG)
        assert typed == {"OperationTimeID": "T1", "Season": "Spring", "EndDate": "2019-09-30"}

    def test_parse_date_pattern(self):
        spec = mapping_from_dict(
            {
                "target_table": "OperationTime",
                "bindings": [
                    {"source": "id", "target": "OperationTimeID", "transforms": [{"op": "rename"}]},
                    {"source": "start", "target": "StartDate", "transforms": [{"op": "parse-date", "pattern": "%d/%m/%Y"}]},
                ],
            }
        )
        typed = apply_mapping(_raw({"id": "T1", "start": "01/04/2019"}), spec, CATALOG)
        assert typed["StartDate"] == "2019-04-01"
        reject = apply_mapping(_raw({"id": "T1", "start": "2019-04-01"}), spec, CATALOG)
        assert isinstance(reject, RejectRecord) and reject.reason == "type-error"

    def test_bad_unit_pair_is_unit_error(self):
        spec = mapping_from_dict(
            {
                "target_table": "FieldFact",
                "bindings": [
                    {
                        "source": "v",
                        "target": "WaterVolume",
                        "transforms": [{"op": "parse-number"}, {"op": "unit-convert", "from": "mg/l", "to": "l/ha"}],
                    }
                ],
            }
        )
        reject = apply_mapping(_raw({"v": "10"}), spec, CATALOG)
        assert isinstance(reject, RejectRecord) and reject.reason == "unit-error"

    def test_first_failing_binding_reported(self):
        spec = mapping_from_dict(
            {
                "target_table": "FieldFact",
                "bindings": [
                    {"source": "y", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
                    {"source": "h", "target": "HerbicideQty", "transforms": [{"op": "parse-number"}]},
                ],
            }
        )
        reject = apply_mapping(_raw({"y": "bad", "h": "also bad"}), spec, CATALOG)
        assert reject.binding == "YieldValue"

    @pytest.mark.parametrize(
        "table, target, value, reason, chain",
        [
            ("FieldFact", "YieldValue", float("inf"), "range-error", ("constant",)),  # ton/ha: the range check comes first
            ("FieldFact", "YieldValue", float("nan"), "type-error", ("constant",)),  # NaN passes the range check, fails finiteness
            ("FieldFact", "HerbicideQty", float("inf"), "type-error", ("constant",)),  # kg/ha has no range
            ("FieldFact", "YieldValue", True, "type-error", ("constant",)),
            ("FieldFact", "YieldValue", "8.5", "type-error", ("constant",)),  # a number attribute needs a number
            ("Crop", "VarietyName", 3, "type-error", ("constant",)),  # a text attribute needs text
            # an int beyond float range, as a mapping JSON can hold it
            pytest.param("FieldFact", "YieldValue", 10**400, "type-error", ("constant",),
                         id="FieldFact-YieldValue-huge-int-type-error-constant"),
            pytest.param("FieldFact", "YieldValue", 10**400, "type-error", ("nullable-default",),
                         id="FieldFact-YieldValue-huge-int-type-error-nullable-default"),
            pytest.param("FieldFact", "HerbicideQty", 10**400, "type-error", ("constant", "parse-number"),
                         id="FieldFact-HerbicideQty-huge-int-type-error-constant+parse-number"),
        ],
        ids=lambda v: "+".join(v) if isinstance(v, tuple) else None,
    )
    def test_constant_checked_like_parsed_values(self, table, target, value, reason, chain):
        keys = [{"source": "id", "target": "CropID"}, {"source": "name", "target": "CropName"}]
        transforms = [{"op": op, "value": value} if op in ("constant", "nullable-default") else {"op": op}
                      for op in chain]
        spec = mapping_from_dict({
            "target_table": table,
            "bindings": (keys if table == "Crop" else [])
            + [{"source": "", "target": target, "transforms": transforms}],
        })
        reject = apply_mapping(_raw({"id": "C1", "name": "Grass"}), spec, CATALOG)
        assert isinstance(reject, RejectRecord)
        assert (reject.binding, reject.reason) == (target, reason)


class TestMappingTotality:
    @given(
        st.dictionaries(
            keys=st.sampled_from(["id", "name", "extra", "junk"]),
            values=st.text(min_size=0, max_size=8),
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_accepted_rows_cover_non_nullable(self, fields):
        # a validated mapping can reject a row, but never accept one that
        # leaves a non-nullable attribute unset
        spec = mapping_from_dict(
            {
                "target_table": "Crop",
                "bindings": [
                    {"source": "id", "target": "CropID", "transforms": [{"op": "rename"}]},
                    {"source": "name", "target": "CropName", "transforms": [{"op": "rename"}]},
                ],
            }
        )
        CompiledMapping(spec, CATALOG)  # compiles
        result = apply_mapping(_raw({k: v for k, v in fields.items() if v}), spec, CATALOG)
        if not isinstance(result, RejectRecord):
            assert "CropID" in result and "CropName" in result


def _compile_error(spec: MappingSpec) -> str:
    """The text of the MappingError ``CompiledMapping`` raises for ``spec``."""
    with pytest.raises(MappingError) as info:
        CompiledMapping(spec, CATALOG)
    return str(info.value)


class TestValidateMapping:
    def test_unknown_target_attribute(self):
        spec = mapping_from_dict(
            {"target_table": "Crop", "bindings": [{"source": "x", "target": "NoSuch", "transforms": []}]}
        )
        assert _compile_error(spec) == (
            "mapping for 'Crop': target attribute 'NoSuch' not in table 'Crop'; "
            "non-nullable attribute 'CropID' is neither bound nor constant; "
            "non-nullable attribute 'CropName' is neither bound nor constant"
        )

    def test_unknown_target_table(self):
        spec = mapping_from_dict(
            {"target_table": "Nope", "bindings": [{"source": "x", "target": "NoSuch", "transforms": []}]}
        )
        assert _compile_error(spec) == "mapping for 'Nope': target_table 'Nope' not in catalog"

    def test_unbound_non_nullable(self):
        spec = mapping_from_dict(
            {"target_table": "Crop", "bindings": [{"source": "id", "target": "CropID", "transforms": []}]}
        )
        assert _compile_error(spec) == "mapping for 'Crop': non-nullable attribute 'CropName' is neither bound nor constant"

    def test_two_unit_converts_rejected(self):
        spec = mapping_from_dict(
            {
                "target_table": "FieldFact",
                "bindings": [
                    {
                        "source": "h",
                        "target": "HerbicideQty",
                        "transforms": [
                            {"op": "parse-number"},
                            {"op": "unit-convert", "from": "g/ha", "to": "kg/ha"},
                            {"op": "unit-convert", "from": "kg/ha", "to": "g/ha"},
                        ],
                    }
                ],
            }
        )
        assert _compile_error(spec) == "mapping for 'FieldFact': binding 'HerbicideQty': at most one unit-convert allowed"

    @pytest.mark.parametrize(
        "transform, problem",
        [
            ({"op": "parse-date"}, "parse-date needs a pattern"),
            ({"op": "parse-date", "pattern": 7}, "parse-date needs a pattern"),
            ({"op": "unit-convert", "from": "g/ha"}, "unit-convert needs 'from' and 'to'"),
            ({"op": "unit-convert", "from": 1, "to": "kg/ha"}, "unit-convert needs 'from' and 'to'"),
            ({"op": "synonym", "table": "nope"}, "unknown synonym table 'nope'"),
            ({"op": "synonym"}, "unknown synonym table None"),
            ({"op": "synonym", "table": ["crop-names"]}, "unknown synonym table ['crop-names']"),
            ({"op": "constant"}, "constant needs a value"),
            ({"op": "nullable-default"}, "nullable-default needs a value"),
        ],
    )
    def test_transform_parameter_problems(self, transform, problem):
        spec = mapping_from_dict(
            {"target_table": "Crop", "bindings": [
                {"source": "id", "target": "CropID", "transforms": [{"op": "rename"}, transform]},
                {"source": "name", "target": "CropName"},
            ]}
        )
        assert _compile_error(spec) == f"mapping for 'Crop': binding 'CropID': {problem}"

    def test_unknown_op_built_in_code_is_a_problem(self):
        spec = MappingSpec("Crop", (
            Binding("id", "CropID", (Transform("frobnicate"),)),
            Binding("name", "CropName"),
        ))
        assert _compile_error(spec) == "mapping for 'Crop': binding 'CropID': unknown transform op 'frobnicate'"

    def test_compiled_mapping_raises_on_problems(self):
        spec = mapping_from_dict(
            {"target_table": "Crop", "bindings": [{"source": "id", "target": "CropID", "transforms": []}]}
        )
        with pytest.raises(MappingError):
            CompiledMapping(spec, CATALOG)


# --- pipeline -----------------------------------------------------------------

CROP_MAPPING = {
    "target_table": "Crop",
    "bindings": [
        {"source": "crop_id", "target": "CropID", "transforms": [{"op": "rename"}]},
        {"source": "crop_name", "target": "CropName", "transforms": [{"op": "synonym", "table": "crop-names"}]},
    ],
}

FACT_MAPPING = {
    "target_table": "FieldFact",
    "bindings": [
        {"source": "crop_id", "target": "CropKey", "transforms": [{"op": "rename"}]},
        {"source": "yield_t", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
    ],
}


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _cut(raw: str, limit: int = 131_072) -> str:
    """A ledger ``raw`` as the README states it: whole up to ``limit``
    characters, else a prefix and a marker giving the full length, ``limit``
    characters in all."""
    marker = f"...[cut: {len(raw)} characters]"
    return raw if len(raw) <= limit else raw[:limit - len(marker)] + marker


def _pipeline_sources(tmp_path, crop_rows, fact_rows):
    crops = _write(tmp_path, "crops.csv", "crop_id,crop_name\n" + "".join(crop_rows))
    facts = _write(tmp_path, "facts.csv", "crop_id,yield_t\n" + "".join(fact_rows))
    return [
        (SourceDescriptor(path=crops), mapping_from_dict(CROP_MAPPING)),
        (SourceDescriptor(path=facts), mapping_from_dict(FACT_MAPPING)),
    ]


class TestRunPipeline:
    def test_conservation_all_accepted(self, tmp_path, catalog, store_dir):
        sources = _pipeline_sources(
            tmp_path,
            ["C1,Grass\n", "C2,Wheat W.\n"],
            ["C1,8.5\n", "C2,9.1\n", "C1,7.7\n"],
        )
        store = open_store(store_dir, catalog)
        report = run_pipeline(sources, catalog, store)
        assert report.total_read == 5
        assert report.total_accepted == 5
        assert report.total_rejected == 0
        for stats in report.tables.values():
            assert stats.rows_read == stats.rows_accepted + stats.rows_rejected

    def test_unknown_dimension_key_rejected(self, tmp_path, catalog, store_dir):
        sources = _pipeline_sources(
            tmp_path,
            ["C1,Grass\n"],
            ["C1,8.5\n", "C9,9.1\n"],
        )
        store = open_store(store_dir, catalog)
        report = run_pipeline(sources, catalog, store)
        assert report.tables["FieldFact"].rows_rejected == 1
        assert report.tables["FieldFact"].rows_accepted == 1
        assert report.rejects[0].reason == "missing-required"
        assert report.rejects[0].binding == "CropKey"

    @pytest.mark.parametrize(
        "cell",
        [
            "x" * 140_000,
            '"' + "\n".join(["y" * 20_000] * 7) + '"',  # quoted over 7 lines, past the limit on the last
        ],
        ids=["unquoted", "quoted-over-lines"],
    )
    def test_cell_over_the_csv_field_limit_is_one_structural_reject(self, tmp_path, catalog, store_dir, cell):
        sources = _pipeline_sources(tmp_path, ["C1,Grass\n", f"C2,{cell}\n", "C3,Wheat W.\n"], ["C3,8.5\n"])
        store = open_store(store_dir, catalog)
        report = run_pipeline(sources, catalog, store)
        crops = sources[0][0].path
        assert [(r.source, r.row, r.binding, r.reason, r.raw) for r in report.rejects] == [
            (crops, 2, STRUCTURAL_BINDING, "type-error", f"C2,{cell}"),
        ]
        assert [r["CropID"] for r in store.snapshot().rows("Crop")] == ["C1", "C3"]
        assert report.tables["FieldFact"].rows_accepted == 1
        ledger = write_reject_ledger(report.rejects, tmp_path / "rejects.csv")
        assert csv.field_size_limit() == 131_072  # read back at the default limit
        with open(ledger, newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == [
                ["source", "row", "binding", "reason", "raw"],
                [crops, "2", STRUCTURAL_BINDING, "type-error", _cut(f"C2,{cell}")],
            ]

    @pytest.mark.parametrize(
        "cell, after",
        [
            ('"' + "y" * 140_000 + '\nz9,Bogus\nw"', ["C3,Wheat W.\n"]),  # the quote closes two lines on
            ('"' + "y" * 140_000 + '\nz9,Bogus\n', []),  # the quote never closes: the record ends with the file
        ],
        ids=["closed", "unclosed"],
    )
    def test_refused_record_ends_where_its_quoted_cell_ends(self, tmp_path, catalog, store_dir, cell, after):
        sources = _pipeline_sources(tmp_path, ["C1,Grass\n", f"c2,{cell}\n", *after], ["C1,8.5\n"])
        store = open_store(store_dir, catalog)
        report = run_pipeline(sources, catalog, store)
        crops = sources[0][0].path
        assert [(r.source, r.row, r.binding, r.reason, r.raw) for r in report.rejects] == [
            (crops, 2, STRUCTURAL_BINDING, "type-error", f"c2,{cell}".rstrip("\n")),
        ]
        assert [r["CropID"] for r in store.snapshot().rows("Crop")] == ["C1"] + ["C3"] * bool(after)
        assert report.tables["Crop"].rows_read == 2 + len(after)

    def test_header_cell_over_the_csv_field_limit_is_a_config_error_naming_the_source(
        self, tmp_path, catalog, store_dir
    ):
        crops = _write(tmp_path, "crops.csv", "crop_id,crop_name" + "x" * 140_000 + "\nC1,Grass\n")
        store = open_store(store_dir, catalog)
        with pytest.raises(ConfigError, match=f"source {crops}: unreadable header"):
            run_pipeline([(SourceDescriptor(path=crops), mapping_from_dict(CROP_MAPPING))], catalog, store)
        assert store.row_count("Crop") == 0

    def test_rerun_keeps_keys_and_doubles_facts(self, tmp_path, catalog, store_dir):
        sources = _pipeline_sources(tmp_path, ["C1,Grass\n", "C2,Wheat W.\n"], ["C1,8.5\n"])
        store = open_store(store_dir, catalog)
        run_pipeline(sources, catalog, store)
        snap1 = store.snapshot()
        keys1 = [(r["sk"], r["CropID"]) for r in snap1.rows("Crop")]
        report2 = run_pipeline(sources, catalog, store)
        snap2 = store.snapshot()
        assert [(r["sk"], r["CropID"]) for r in snap2.rows("Crop")] == keys1
        assert len(snap2.rows("FieldFact")) == 2 * len(snap1.rows("FieldFact"))
        assert report2.tables["Crop"].upserts_deduped == 2
        assert report2.tables["Crop"].upserts_new == 0

    def test_two_sources_of_one_dimension_count_new_and_deduplicated_rows(self, tmp_path, catalog, store_dir):
        first = _write(tmp_path, "crops_a.csv", "crop_id,crop_name\nC1,Grass\nC2,Wheat W.\nC1,Grass\n")
        second = _write(tmp_path, "crops_b.csv", "crop_id,crop_name\nC2,Wheat W.\nC3,Grass\n,Grass\nC1,Grass\n")
        facts = _write(tmp_path, "facts.csv", "crop_id,yield_t\nC1,8.5\nC3,7.0\n")
        sources = [
            (SourceDescriptor(path=first), mapping_from_dict(CROP_MAPPING)),
            (SourceDescriptor(path=second), mapping_from_dict(CROP_MAPPING)),
            (SourceDescriptor(path=facts), mapping_from_dict(FACT_MAPPING)),
        ]
        store = open_store(store_dir, catalog)
        report = run_pipeline(sources, catalog, store)
        counts = {
            name: (s.rows_read, s.rows_accepted, s.rows_rejected, s.upserts_new, s.upserts_deduped)
            for name, s in report.tables.items()
        }
        # Crop: 7 read, the keyless row rejected; C1, C2 and C3 new; C1 twice and C2 once again deduplicated
        assert counts == {"Crop": (7, 6, 1, 3, 3), "FieldFact": (2, 2, 0, 0, 0)}
        assert [r["CropID"] for r in store.snapshot().rows("Crop")] == ["C1", "C2", "C3"]

    def test_a_dimension_that_references_itself_resolves_the_earlier_rows_of_its_source(self, tmp_path, store_dir):
        emp = TableDef(
            name="Emp",
            role="dimension",
            attributes=(
                AttributeDef(name="EmpID", kind="natural-key-part", nullable=False),
                AttributeDef(name="BossID", kind="foreign-key", references="Emp"),
            ),
            natural_key=("EmpID",),
        )
        catalog = Catalog(version="test", tables={"Emp": emp})
        assert validate_catalog(catalog) == []
        source = _write(tmp_path, "emps.csv", "emp,boss\nE1,\nE2,E1\nE3,E2\n")
        mapping = mapping_from_dict({
            "target_table": "Emp",
            "bindings": [{"source": "emp", "target": "EmpID"}, {"source": "boss", "target": "BossID"}],
        })
        store = open_store(store_dir, catalog)
        report = run_pipeline([(SourceDescriptor(path=source), mapping)], catalog, store)
        assert report.rejects == []
        assert (report.tables["Emp"].rows_accepted, report.tables["Emp"].upserts_new) == (3, 3)
        store = open_store(store_dir, catalog)
        assert store.snapshot().columns("Emp", ["sk", "EmpID", "BossID"]) == [
            (1, 2, 3), ("E1", "E2", "E3"), (None, 1, 2),
        ]

    def test_determinism_byte_identical(self, tmp_path, catalog):
        def run(store_name):
            sources = _pipeline_sources(
                tmp_path,
                ["C1,Grass\n", "C2,barley s.\n"],
                ["C1,8.5\n", "C2,bad\n", "C1,7.7\n"],
            )
            store = open_store(tmp_path / store_name, catalog)
            report = run_pipeline(sources, catalog, store)
            ledger = tmp_path / f"{store_name}.rejects.csv"
            write_reject_ledger(report.rejects, ledger)
            digests = {t: store.table_digest(t) for t in ("Crop", "FieldFact")}
            return digests, ledger.read_bytes()

        d1, l1 = run("s1")
        d2, l2 = run("s2")
        assert d1 == d2
        assert l1 == l2

    def test_number_overflowing_its_unit_conversion_is_a_reject(self, tmp_path, catalog, store_dir):
        crops = _write(tmp_path, "crops.csv", "crop_id,crop_name\nC1,Grass\n")
        facts = _write(tmp_path, "facts.csv", "crop_id,herb\nC1,1e306\nC1,2.5\n")
        herb_mapping = {
            "target_table": "FieldFact",
            "bindings": [
                {"source": "crop_id", "target": "CropKey", "transforms": [{"op": "rename"}]},
                {"source": "herb", "target": "HerbicideQty", "transforms": [
                    {"op": "parse-number"}, {"op": "unit-convert", "from": "t/ha", "to": "kg/ha"},
                ]},
            ],
        }
        sources = [
            (SourceDescriptor(path=crops), mapping_from_dict(CROP_MAPPING)),
            (SourceDescriptor(path=facts), mapping_from_dict(herb_mapping)),
        ]
        store = open_store(store_dir, catalog)
        report = run_pipeline(sources, catalog, store)
        assert [(r.row, r.binding, r.reason) for r in report.rejects] == [(1, "HerbicideQty", "type-error")]
        assert report.tables["FieldFact"].rows_accepted == 1
        assert [r["HerbicideQty"] for r in open_store(store_dir, catalog).snapshot().rows("FieldFact")] == [2500.0]

    def test_record_json_text_over_the_csv_field_limit_is_one_type_error(self, tmp_path, catalog, store_dir):
        long_id = "C" * 140_000
        crops = _write(tmp_path, "crops.jsonl", "".join(
            json.dumps({"crop_id": crop_id, "crop_name": "Grass"}) + "\n" for crop_id in (long_id, "C2")
        ))
        store = open_store(store_dir, catalog)
        report = run_pipeline([(SourceDescriptor(path=crops, format="record-json"), mapping_from_dict(CROP_MAPPING))],
                              catalog, store)
        assert [(r.row, r.binding, r.reason) for r in report.rejects] == [(1, "CropID", "type-error")]
        assert [r["CropID"] for r in open_store(store_dir, catalog).snapshot().rows("Crop")] == ["C2"]
        ledger = write_reject_ledger(report.rejects, tmp_path / "rejects.csv")
        with open(ledger, newline="", encoding="utf-8") as handle:
            assert len(list(csv.reader(handle))) == 2  # header + one reject

    def _site_then_field(self, tmp_path, catalog, store_dir, field_rows):
        sites = _write(tmp_path, "sites.csv", "site_id,site_name\nS1,North\nS2,South\n")
        fields = _write(tmp_path, "fields.csv", "field_id,field_name,site_id\n" + "".join(field_rows))
        site_mapping = {"target_table": "Site", "bindings": [
            {"source": "site_id", "target": "SiteID"}, {"source": "site_name", "target": "SiteName"},
        ]}
        field_mapping = {"target_table": "Field", "bindings": [
            {"source": "field_id", "target": "FieldID"}, {"source": "field_name", "target": "FieldName"},
            {"source": "site_id", "target": "SiteID"},
        ]}
        store = open_store(store_dir, catalog)
        return store, run_pipeline([
            (SourceDescriptor(path=sites), mapping_from_dict(site_mapping)),
            (SourceDescriptor(path=fields), mapping_from_dict(field_mapping)),
        ], catalog, store)

    def test_dimension_foreign_key_stores_the_referenced_sk(self, tmp_path, catalog, store_dir):
        store, report = self._site_then_field(tmp_path, catalog, store_dir, ["F1,Top,S2\n", "F2,Low,S1\n"])
        assert report.rejects == []
        assert [(r["FieldID"], r["SiteID"]) for r in store.snapshot().rows("Field")] == [("F1", 2), ("F2", 1)]

    def test_unknown_dimension_foreign_key_is_missing_required(self, tmp_path, catalog, store_dir):
        store, report = self._site_then_field(tmp_path, catalog, store_dir, ["F1,Top,S9\n", "F2,Low,S1\n"])
        assert [(r.row, r.binding, r.reason) for r in report.rejects] == [(1, "SiteID", "missing-required")]
        assert [(r["FieldID"], r["SiteID"]) for r in store.snapshot().rows("Field")] == [("F2", 1)]

    def test_reject_ledger_columns(self, tmp_path):
        rejects = [RejectRecord(source="s.csv", row=3, binding="PH", reason="range-error", raw="S1,12")]
        path = tmp_path / "ledger.csv"
        write_reject_ledger(rejects, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "source,row,binding,reason,raw"
        assert lines[1] == 's.csv,3,PH,range-error,"S1,12"'


LEDGER_CROPS = (
    "crop_id,crop_name,est\n"
    "C1,Grass,8\n"
    "C2,wheat w.,9\n"
    "C3,Turnip,5\n"
    "C4,,5\n"
    "C5,Grass,extra,x\n"
    "C6,Oats W.,250\n"
    '"C7,x",Rye W.,abc\n'
    "C1,Grass,8\n"
)

LEDGER_FACTS = (
    "crop_id,yield_t,herb_g,water\n"
    "C1,8.5,2500,\n"
    "C2,bad,,\n"
    "C1,7.0,,3\n"
    "C9,6.0,,\n"
    "C1,0,,\n"
    "C2,bad,,3\n"
    "C3,7.5,,\n"
    "C1,inf,,\n"
    ",5.0,,\n"
    "C1,8.5\n"
)

LEDGER_FACTS_JSON = (
    '{"crop_id": "C2", "yield_t": 5.5}\n'
    "[1, 2]\n"
    '{"crop_id": "C1", "yield_t": true}\n'
    "{not json\n"
)

LEDGER_EXPECTED = (
    "source,row,binding,reason,raw\n"
    "crops.csv,3,CropName,synonym-miss,\"C3,Turnip,5\"\n"
    "crops.csv,4,CropName,missing-required,\"C4,,5\"\n"
    "crops.csv,5,<row>,type-error,\"C5,Grass,extra,x\"\n"
    "crops.csv,6,EstYield,range-error,\"C6,Oats W.,250\"\n"
    "crops.csv,7,EstYield,type-error,\"\"\"C7,x\"\",Rye W.,abc\"\n"
    "facts.csv,2,YieldValue,type-error,\"C2,bad,,\"\n"
    "facts.csv,3,WaterVolume,unit-error,\"C1,7.0,,3\"\n"
    "facts.csv,4,CropKey,missing-required,\"C9,6.0,,\"\n"
    "facts.csv,5,YieldValue,range-error,\"C1,0,,\"\n"
    "facts.csv,6,YieldValue,type-error,\"C2,bad,,3\"\n"
    "facts.csv,7,CropKey,missing-required,\"C3,7.5,,\"\n"
    "facts.csv,8,YieldValue,type-error,\"C1,inf,,\"\n"
    "facts.csv,10,<row>,type-error,\"C1,8.5\"\n"
    "facts.jsonl,2,<row>,type-error,\"[1, 2]\"\n"
    "facts.jsonl,3,YieldValue,type-error,\"{\"\"crop_id\"\": \"\"C1\"\", \"\"yield_t\"\": true}\"\n"
    "facts.jsonl,4,<row>,type-error,{not json\n"
)


class TestRejectLedger:
    """Every reject reason, in source order, one ledger line per rejected row."""

    def test_every_reason_in_one_run(self, tmp_path, catalog, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "crops.csv", LEDGER_CROPS)
        _write(tmp_path, "facts.csv", LEDGER_FACTS)
        _write(tmp_path, "facts.jsonl", LEDGER_FACTS_JSON)
        crop_mapping = {
            "target_table": "Crop",
            "bindings": CROP_MAPPING["bindings"] + [
                {"source": "est", "target": "EstYield", "transforms": [{"op": "parse-number"}]},
            ],
        }
        fact_mapping = {
            "target_table": "FieldFact",
            "bindings": FACT_MAPPING["bindings"] + [
                {"source": "herb_g", "target": "HerbicideQty", "transforms": [
                    {"op": "parse-number"}, {"op": "unit-convert", "from": "g/ha", "to": "kg/ha"},
                ]},
                {"source": "water", "target": "WaterVolume", "transforms": [
                    {"op": "parse-number"}, {"op": "unit-convert", "from": "pH", "to": "l/ha"},
                ]},
            ],
        }
        sources = [
            (SourceDescriptor(path="facts.csv"), mapping_from_dict(fact_mapping)),
            (SourceDescriptor(path="crops.csv"), mapping_from_dict(crop_mapping)),
            (SourceDescriptor(path="facts.jsonl", format="record-json"), mapping_from_dict(FACT_MAPPING)),
        ]
        store = open_store(tmp_path / "store", catalog)
        report = run_pipeline(sources, catalog, store)
        write_reject_ledger(report.rejects, tmp_path / "rejects.csv")
        assert (tmp_path / "rejects.csv").read_bytes() == LEDGER_EXPECTED.encode()
        counts = {
            name: (s.rows_read, s.rows_accepted, s.rows_rejected, s.upserts_new, s.upserts_deduped)
            for name, s in report.tables.items()
        }
        assert counts == {"Crop": (8, 3, 5, 2, 1), "FieldFact": (14, 3, 11, 0, 0)}
        rows = store.snapshot().rows("FieldFact")
        assert [(r.get("CropKey"), r["YieldValue"], r.get("HerbicideQty")) for r in rows] == [
            (1, 8.5, 2.5), (None, 5.0, None), (2, 5.5, None),
        ]

    @pytest.mark.parametrize("extra", [0, 1, 10_000])
    def test_raw_over_the_csv_field_limit_is_cut_with_its_length(self, tmp_path, extra):
        raw = ('a,"b ""q""\r\n' * 20_000)[:131_072 + extra]
        ledger = write_reject_ledger([RejectRecord("s.csv", 3, "<row>", "type-error", raw)], tmp_path / "r.csv")
        with open(ledger, newline="", encoding="utf-8") as handle:
            (_, entry) = csv.reader(handle)  # at the default limit
        assert entry == ["s.csv", "3", "<row>", "type-error", _cut(raw)]
        assert len(entry[4]) == 131_072
        assert entry[4].endswith(f"...[cut: {len(raw)} characters]") == (extra > 0)
