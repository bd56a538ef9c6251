from __future__ import annotations

import json
import random
from importlib import resources
from types import SimpleNamespace

import pytest

import agridw.catalog as catalog_module
from agridw.catalog import (
    AttributeDef,
    Catalog,
    TableDef,
    builtin_catalog,
    catalog_digest,
    load_catalog,
    loads_catalog,
    save_catalog,
    serialize_catalog,
    validate_catalog,
)
from agridw.errors import CatalogParseError
from agridw.store import open_store

# Expected attribute list per builtin dimension table.
DIMENSION_ATTRIBUTES = {
    "Business": ["BusinessID", "Name", "Address", "Phone", "Email"],
    "Crop": [
        "CropID", "CropName", "VarietyID", "VarietyName", "EstYield", "SeasonStart",
        "SeasonEnd", "BbchScale", "ScienName", "HarvestEquipment", "Equ.Weight",
    ],
    "CropState": [
        "CropStateID", "CropID", "StageScale", "Height", "MajorStage", "MinStage",
        "MaxStage", "Diameter", "AveHeight", "CoveragePercent",
    ],
    "Farmer": ["FarmerID", "Name", "Address", "Phone", "Mobile", "Email"],
    "Fertiliser": ["FertiliserID", "Name", "Unit", "Status", "Description", "GroupName"],
    "Field": [
        "FieldID", "FieldName", "SiteID", "Reference", "Block", "Area", "AreaUnit",
        "WorkingArea", "WorkingAreaUnit", "Latitude", "Longitude", "GeometricPoints",
        "FieldImage", "Notes",
    ],
    "Inspection": [
        "InspectionID", "CropID", "Description", "ProblemType", "Severity", "AreaValue",
        "AreaUnit", "Order", "Date", "Notes", "GrowthStage",
    ],
    "Nutrient": ["NutrientID", "NutrientName", "Date", "Quantity"],
    "OperationTime": ["OperationTimeID", "StartDate", "EndDate", "Season"],
    "Pest": [
        "PestID", "CommonName", "ScientificName", "PestType", "Description", "Density",
        "MinStage", "MaxStage", "Coverage", "CoverageUnit",
    ],
    "Plan": ["PlanID", "PlanName", "RegisNo", "ProductName", "ProductRate", "Date", "WaterVolume"],
    "Product": ["ProductID", "ProductName", "GroupName"],
    "Spray": [
        "SprayID", "SprayProductName", "ProductRate", "Area", "WaterVolume", "ConfDuration",
        "ConfWindSpeed", "ConfDirection", "ConfHumidity", "ConfTemp", "ActivityType",
    ],
    "Site": ["SiteID", "FarmerID", "SiteName", "Reference", "Address", "GPS", "CreatedBy"],
    "Soil": [
        "SoilID", "NutrientID", "PH", "Nitrogen", "Phosphorus", "Potassium", "Magnesium",
        "Calcium", "CEC", "Silt", "Clay", "Sand", "SoilTexture", "SoilType",
        "OrganicMatter", "TopSoil", "SupSoil", "TestDate", "Unit",
    ],
    "Supplier": ["SupplierID", "SupplierName", "Address", "Phone", "Email"],
    "Task": ["TaskID", "Desc", "Status", "TaskDate", "TaskInterval", "CompDate", "AppCode"],
    "TransTime": ["TransTimeID", "OrderDate", "DeliverDate", "ReceivedDate"],
    "Treatment": [
        "TreatmentID", "TreatmentName", "FormType", "LotCode", "Rate", "ApplCode", "LevNo",
        "Type", "Description", "ApplDesc", "TreatmentComment",
    ],
    "WeatherReading": [
        "WeatherReadingID", "WeatherStationID", "ReadingDate", "ReadingTime", "AirTemper",
        "Rainfall", "SPLite", "RelativeHumidity", "WindSpeed", "WindDirection",
        "SoilTemper", "LeafWetness",
    ],
    "WeatherStation": ["WeatherStationID", "Station Name", "Latitude", "Longitude", "Region"],
    "Zone": [
        "ZoneID", "ZoneName", "FieldID", "SoilID", "ZoneType", "Area", "AreaUnit",
        "Latitude", "Longitude", "GeometricPoints", "YieldMap", "SatellitePicture", "Notes",
    ],
}


class TestBuiltinShape:
    def test_table_counts(self, catalog):
        assert len(catalog.tables) == 27
        assert sum(1 for _ in catalog.facts()) == 5
        assert sum(1 for _ in catalog.dimensions()) == 22

    def test_fact_names(self, catalog):
        assert {t.name for t in catalog.facts()} == {
            "FieldFact", "Sale", "Order", "Testing", "ManagementAction",
        }

    def test_fieldfact_shape(self, catalog):
        ff = catalog.table("FieldFact")
        assert len(ff.dimension_refs) == 12
        assert len(ff.measures) == 6

    def test_soil_nutrient_attributes(self, catalog):
        soil = catalog.table("Soil")
        names = [a.name for a in soil.attributes]
        for expected in ("PH", "Phosphorus", "Potassium", "Magnesium"):
            assert expected in names

    def test_every_dimension_attribute_present(self, catalog):
        assert set(DIMENSION_ATTRIBUTES) == {t.name for t in catalog.dimensions()}
        for dim_name, expected in DIMENSION_ATTRIBUTES.items():
            actual = [a.name for a in catalog.table(dim_name).attributes]
            assert actual == expected, f"{dim_name}: {actual} != {expected}"

    def test_degenerate_fact_identifiers(self, catalog):
        testing = catalog.table("Testing")
        assert testing.attribute("TestingID") is not None
        assert testing.attribute("TestingType") is not None
        action = catalog.table("ManagementAction")
        assert action.attribute("ActionID") is not None
        assert action.attribute("ActionType") is not None

    def test_builtin_self_validates(self, catalog):
        assert validate_catalog(catalog) == []

    def test_measure_units(self, catalog):
        ff = catalog.table("FieldFact")
        assert ff.attribute("YieldValue").unit == "ton/ha"
        assert ff.attribute("HerbicideQty").unit == "kg/ha"
        assert ff.attribute("InsecticideQty").unit == "g/ha"


class TestSerialization:
    def test_roundtrip_preserves_tables(self, catalog, tmp_path):
        path = save_catalog(catalog, tmp_path / "catalog.json")
        loaded = load_catalog(path)
        assert len(loaded.tables) == len(catalog.tables)
        assert serialize_catalog(loaded) == serialize_catalog(catalog)
        assert catalog_digest(loaded) == catalog_digest(catalog)

    def test_shipped_data_file_is_canonical(self, catalog):
        data = resources.files("agridw").joinpath("data/builtin_catalog.json").read_bytes()
        assert data == serialize_catalog(catalog).encode("utf-8")

    def test_duplicate_table_is_parse_error(self, catalog):
        text = serialize_catalog(catalog)
        doc = text.replace('"name": "Crop"', '"name": "Soil"', 1)
        with pytest.raises(CatalogParseError, match="duplicate table"):
            loads_catalog(doc)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(CatalogParseError, match="no tables"):
            load_catalog(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(CatalogParseError, match="cannot read"):
            load_catalog(tmp_path / "nope.json")

    def test_unknown_kind_is_parse_error(self):
        doc = """{"version": "1", "tables": [{"name": "T", "role": "dimension",
                   "attributes": [{"name": "A", "kind": "whatever", "nullable": true}],
                   "natural_key": ["A"]}]}"""
        with pytest.raises(CatalogParseError, match="kind"):
            loads_catalog(doc)


def _table(**kwargs) -> TableDef:
    return TableDef(**kwargs)


class TestValidation:
    def test_fact_without_measures(self):
        cat = Catalog(
            version="t",
            tables={
                "D": _table(
                    name="D", role="dimension",
                    attributes=(AttributeDef(name="ID", kind="natural-key-part", nullable=False),),
                    natural_key=("ID",),
                ),
                "F": _table(
                    name="F", role="fact",
                    attributes=(AttributeDef(name="DKey", kind="foreign-key", references="D"),),
                    dimension_refs=("D",),
                ),
            },
        )
        rules = {v.rule for v in validate_catalog(cat)}
        assert "fact-needs-measure" in rules

    def test_dangling_dimension_ref(self):
        cat = Catalog(
            version="t",
            tables={
                "F": _table(
                    name="F", role="fact",
                    attributes=(
                        AttributeDef(name="XKey", kind="foreign-key", references="X"),
                        AttributeDef(name="M", kind="number"),
                    ),
                    measures=("M",),
                    dimension_refs=("X",),
                ),
            },
        )
        rules = {v.rule for v in validate_catalog(cat)}
        assert "dangling-ref" in rules

    def test_duplicate_attribute_case_insensitive(self):
        cat = Catalog(
            version="t",
            tables={
                "D": _table(
                    name="D", role="dimension",
                    attributes=(
                        AttributeDef(name="ID", kind="natural-key-part", nullable=False),
                        AttributeDef(name="id", kind="text"),
                    ),
                    natural_key=("ID",),
                ),
            },
        )
        rules = {v.rule for v in validate_catalog(cat)}
        assert "dup-attribute" in rules

    def test_unit_only_on_numbers(self):
        cat = Catalog(
            version="t",
            tables={
                "D": _table(
                    name="D", role="dimension",
                    attributes=(
                        AttributeDef(name="ID", kind="natural-key-part", nullable=False),
                        AttributeDef(name="Label", kind="text", unit="mg/l"),
                    ),
                    natural_key=("ID",),
                ),
            },
        )
        rules = {v.rule for v in validate_catalog(cat)}
        assert "unit-on-non-number" in rules

    @pytest.mark.parametrize("kind, flagged", [
        ("number", True), ("foreign-key", True), ("surrogate-key", True),
        ("natural-key-part", False), ("text", False), ("date", False), ("enum", False),
    ])
    def test_a_natural_key_part_is_text(self, kind, flagged):
        cat = Catalog(
            version="t",
            tables={
                "D": _table(
                    name="D", role="dimension",
                    attributes=(
                        AttributeDef(name="ID", kind="natural-key-part", nullable=False),
                        AttributeDef(name="No", kind=kind, references="D" if kind == "foreign-key" else None),
                    ),
                    natural_key=("ID", "No"),
                ),
            },
        )
        found = [(v.table, v.attribute) for v in validate_catalog(cat) if v.rule == "natural-key-not-text"]
        assert found == ([("D", "No")] if flagged else [])

    def test_order_independent(self, catalog):
        names = list(catalog.tables)
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(names)
            permuted = Catalog(version=catalog.version, tables={n: catalog.tables[n] for n in names})
            assert validate_catalog(permuted) == validate_catalog(catalog)
            assert catalog_digest(permuted) == catalog_digest(catalog)


class TestBuiltinLoading:
    def _load_from(self, monkeypatch, root, doc):
        (root / "data").mkdir()
        (root / "data" / "builtin_catalog.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setattr(catalog_module, "resources", SimpleNamespace(files=lambda package: root))
        return builtin_catalog.__wrapped__()  # bypass the per-process cache

    def test_loaded_once_per_process(self):
        assert builtin_catalog() is builtin_catalog()

    def test_broken_shipped_file_names_first_violation(self, monkeypatch, tmp_path, catalog):
        doc = json.loads(serialize_catalog(catalog))
        crop = next(t for t in doc["tables"] if t["name"] == "Crop")
        crop["natural_key"] = ["CropID", "Missing"]
        with pytest.raises(CatalogParseError, match=r"unknown-natural-key.*Crop\.Missing"):
            self._load_from(monkeypatch, tmp_path, doc)


class TestDigest:
    def test_computed_once_per_catalog(self, monkeypatch, tmp_path, catalog):
        expected = catalog_digest(catalog)
        fresh = Catalog(version=catalog.version, tables=catalog.tables)
        calls = []
        real = catalog_module.serialize_catalog

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(catalog_module, "serialize_catalog", counting)
        first = open_store(tmp_path / "store", fresh)
        second = open_store(tmp_path / "store", fresh)
        assert first.catalog_digest == second.catalog_digest == expected
        assert calls == [fresh]
