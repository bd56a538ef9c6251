from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

import agridw.store as store_module
from agridw import synth
from agridw.catalog import AttributeDef, builtin_catalog, Catalog, catalog_digest, TableDef, validate_catalog
from agridw.errors import (
    CatalogMismatchError,
    DanglingKeyError,
    QueryError,
    StoreError,
    StoreLockError,
    StoreTypeError,
    UnknownAttributeError,
)
from agridw.store import (
    Aggregate,
    DimensionJoin,
    EqFilter,
    QuerySpec,
    RangeFilter,
    Snapshot,
    open_store,
    star_query,
)
from agridw.etl import run_pipeline
from agridw.util import csv_records, format_decimal

from helpers import column_reads, csv_view, every_column, nested_loop_star_query, stored_snapshot

CATALOG = builtin_catalog()


def _crop(crop_id, name):
    return {"CropID": crop_id, "CropName": name}


class TestOpenStore:
    def test_fresh_store_is_empty(self, store_dir):
        store = open_store(store_dir, CATALOG)
        assert store.row_count("Crop") == 0
        assert store.row_count("FieldFact") == 0
        assert store.snapshot().tables == {}

    def test_reopen_preserves_digests(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.upsert_dimension("Crop", _crop("C2", "Winter Wheat"))
        store.flush()
        digest = store.table_digest("Crop")
        reopened = open_store(store_dir, CATALOG)
        assert reopened.table_digest("Crop") == digest
        assert reopened.row_count("Crop") == 2
        assert reopened.dimension_keys("Crop").get("C2") == 2

    def test_catalog_mismatch(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.flush()
        edited = Catalog(version="edited", tables=CATALOG.tables)
        with pytest.raises(CatalogMismatchError):
            open_store(store_dir, edited)

    @pytest.mark.parametrize("kind", ["number", "foreign-key", "surrogate-key"])
    def test_a_catalog_with_a_natural_key_part_that_is_not_text_is_refused_first(self, store_dir, kind):
        crop = CATALOG.table("Crop")
        attributes = tuple(
            dataclasses.replace(a, kind=kind, references="Crop" if kind == "foreign-key" else None)
            if a.name == "CropID" else a for a in crop.attributes
        )
        tables = {**CATALOG.tables, "Crop": dataclasses.replace(crop, attributes=attributes)}
        edited = Catalog(version=CATALOG.version, tables=tables)
        with pytest.raises(StoreError, match=f"Crop.CropID: .*{kind!r}"):
            open_store(store_dir, edited)
        assert not store_dir.exists()
        store_dir.mkdir()
        (store_dir / "manifest.json").write_text("not json")  # refused before the manifest is read
        with pytest.raises(StoreError, match="Crop.CropID"):
            open_store(store_dir, edited)


def _blake2b64_hex(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _manifest(store_dir) -> dict:
    return json.loads((Path(store_dir) / "manifest.json").read_text())


def _data_files(store_dir) -> dict[str, bytes]:
    return {p.parent.name: p.read_bytes() for p in sorted(Path(store_dir).glob("*/data.csv"))}


def _rewritten(snapshot, path) -> Snapshot:
    """The snapshot of a twin store at ``path`` holding ``snapshot``'s decoded
    rows written again: each dimension's rows less ``sk``, then the facts."""
    twin = open_store(path, CATALOG)
    for name, rows in sorted(snapshot.tables.items(), key=lambda item: CATALOG.table(item[0]).is_fact):
        if CATALOG.table(name).is_fact:
            twin.insert_facts(name, rows)
        else:
            twin.upsert_dimensions(name, [{k: v for k, v in row.items() if k != "sk"} for row in rows])
    return twin.snapshot()


def _small_store(store_dir):
    store = open_store(store_dir, CATALOG)
    store.upsert_dimension("Crop", {**_crop("C1", "Grass"), "EstYield": 20.5, "ScienName": 'Poa "annua", L.'})
    store.upsert_dimension("Crop", _crop("C2", "Winter Rye"))
    store.insert_facts("FieldFact", [{"CropKey": 1, "YieldValue": 8.25}, {"CropKey": 2, "HerbicideQty": 0.5}])
    store.flush()
    return store


class TestFormat:
    def test_digests_are_blake2b64_of_the_file_bytes(self, store_dir):
        store = _small_store(store_dir)
        manifest = _manifest(store_dir)
        assert manifest["version"] == 2
        files = _data_files(store_dir)
        assert set(files) == set(manifest["tables"]) == {"Crop", "FieldFact"}
        for name, data in files.items():
            assert manifest["tables"][name]["digest"] == _blake2b64_hex(data)
            assert store.table_digest(name) == _blake2b64_hex(data)

    def test_flipped_byte_fails_reopen(self, store_dir):
        _small_store(store_dir)
        for name, data in _data_files(store_dir).items():
            path = Path(store_dir) / name / "data.csv"
            for offset in (0, len(data) // 2, len(data) - 2):
                flipped = bytearray(data)
                flipped[offset] ^= 0x01
                path.write_bytes(bytes(flipped))
                with pytest.raises(StoreError, match=name):
                    open_store(store_dir, CATALOG)
            path.write_bytes(data)
        open_store(store_dir, CATALOG)

    def test_text_needing_quotes_survives_flush_and_reopen(self, store_dir):
        texts = ['say "hi"', "a,b", "two\nlines", "carriage\rreturn", 'all "of",\r\n them']
        rows = [{**_crop(f"C{i}", text), "ScienName": text} for i, text in enumerate(texts, 1)]
        store = open_store(store_dir, CATALOG)
        for row in rows:
            store.upsert_dimension("Crop", row)
        store.flush()
        reopened = open_store(store_dir, CATALOG).snapshot().rows("Crop")
        assert [{k: v for k, v in r.items() if k != "sk"} for r in reopened] == rows
        # independent oracle: the stdlib reader sees the same cells in the file
        with open(Path(store_dir) / "Crop" / "data.csv", newline="", encoding="utf-8") as handle:
            records = list(csv.DictReader(handle))
        assert [(r["CropName"], r["ScienName"]) for r in records] == [(t, t) for t in texts]

    def test_undecodable_cell_under_a_matching_digest_is_a_store_error(self, store_dir):
        _small_store(store_dir)
        path = Path(store_dir) / "FieldFact" / "data.csv"
        forged = path.read_bytes().replace(b"\n1,", b"\nx,", 1)
        path.write_bytes(forged)
        manifest = _manifest(store_dir)
        manifest["tables"]["FieldFact"]["digest"] = _blake2b64_hex(forged)
        (Path(store_dir) / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="FieldFact"):
            open_store(store_dir, CATALOG)

    @pytest.mark.parametrize("version", [1, 3])
    def test_unknown_manifest_version_is_refused(self, store_dir, version):
        _small_store(store_dir)
        manifest = _manifest(store_dir)
        manifest["version"] = version
        (Path(store_dir) / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"unsupported manifest version {version}"):
            open_store(store_dir, CATALOG)

    @pytest.mark.parametrize("malformed", [
        lambda manifest: [],
        lambda manifest: {**manifest, "tables": []},
        lambda manifest: {**manifest, "tables": {**manifest["tables"], "Crop": 5}},
    ], ids=["a list", "tables a list", "an entry a number"])
    def test_a_manifest_of_the_wrong_shape_is_unreadable(self, store_dir, malformed):
        _small_store(store_dir)
        (Path(store_dir) / "manifest.json").write_text(json.dumps(malformed(_manifest(store_dir))))
        with pytest.raises(StoreError, match="unreadable manifest"):
            open_store(store_dir, CATALOG)

    def test_decoded_rows_written_again_match_the_store_digests(self, store_dir, tmp_path):
        snapshot = _small_store(store_dir).snapshot()
        rebuilt = _rewritten(snapshot, tmp_path / "twin")
        assert rebuilt.table_digests == snapshot.table_digests
        assert rebuilt.digest == snapshot.digest
        for name, data in _data_files(store_dir).items():
            assert rebuilt.table_digests[name] == _blake2b64_hex(data)


_TEXT = st.text(alphabet='ab ,"\n', min_size=1, max_size=6)
_CROP = st.fixed_dictionaries(
    {"CropID": st.sampled_from(["C1", "C2", "C3", "C,4", 'C"5']), "CropName": _TEXT},
    optional={"EstYield": st.floats(-1e6, 1e6), "ScienName": _TEXT},
)
_FACT = st.fixed_dictionaries(
    {"CropKey": st.integers(1, 3)},
    optional={"YieldValue": st.floats(0, 1e4), "HerbicideQty": st.integers(0, 500)},
)
_STEP = st.one_of(
    st.tuples(st.just("upsert"), _CROP),
    st.tuples(st.just("facts"), st.lists(_FACT, max_size=4)),
    st.tuples(st.just("flush"), st.none()),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_STEP, max_size=12))
def test_streaming_digest_equals_one_shot_blake2b_of_the_file(steps):
    with tempfile.TemporaryDirectory() as tmp:
        store = open_store(Path(tmp) / "store", CATALOG)
        for kind, payload in steps:
            if kind == "upsert":
                store.upsert_dimension("Crop", payload)
            elif kind == "facts":
                rows = [row for row in payload if row["CropKey"] <= store.row_count("Crop")]
                store.insert_facts("FieldFact", rows)
            else:
                store.flush()
        store.flush()
        files = _data_files(Path(tmp) / "store")
        digests = {name: store.table_digest(name) for name in files}
        assert digests == {name: _blake2b64_hex(data) for name, data in files.items()}
        reopened = open_store(Path(tmp) / "store", CATALOG)
        assert {name: reopened.table_digest(name) for name in files} == digests
        assert {name: reopened.row_count(name) for name in files} == {
            name: store.row_count(name) for name in files
        }


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-7, 8.1234567, 5e-324, -5e-324, 2.5e-7, 1e300, -0.0]),
    st.integers(-(2**63), 2**63),
)
_QUOTED_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\nü'), min_size=1, max_size=8)
_TYPED_CROP = st.fixed_dictionaries(
    {"CropName": _QUOTED_TEXT},
    optional={"EstYield": _NUMBER, "ScienName": st.one_of(_QUOTED_TEXT, st.text(min_size=1, max_size=8))},
)
_TYPED_FACT = st.fixed_dictionaries(
    {"CropKey": st.integers(1, 3)},
    optional={"YieldValue": _NUMBER, "HerbicideQty": _NUMBER},
)


@settings(max_examples=60, deadline=None)
@given(crops=st.lists(_TYPED_CROP, min_size=1, max_size=3), facts=st.lists(_TYPED_FACT, max_size=6))
def test_live_reopened_and_rebuilt_snapshots_are_equal(crops, facts):
    with tempfile.TemporaryDirectory() as tmp:
        store = open_store(Path(tmp) / "store", CATALOG)
        for i, crop in enumerate(crops, 1):
            store.upsert_dimension("Crop", {"CropID": f"C{i}", **crop})
        store.insert_facts("FieldFact", [f for f in facts if f["CropKey"] <= len(crops)])
        store.flush()
        live = store.snapshot()
        reopened = open_store(Path(tmp) / "store", CATALOG).snapshot()
        rebuilt = _rewritten(live, Path(tmp) / "twin")
        assert reopened.tables == live.tables
        assert rebuilt.tables == live.tables
        assert reopened.table_digests == live.table_digests == rebuilt.table_digests
        assert reopened.digest == live.digest == rebuilt.digest


class TestKeptRows:
    def test_numbers_are_kept_as_the_file_holds_them(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.insert_facts("FieldFact", [{"CropKey": 1, "YieldValue": 8.1234567}, {"CropKey": 1, "YieldValue": 1e-7}])
        store.flush()
        live = store.snapshot()
        assert [r["YieldValue"] for r in live.rows("FieldFact")] == [8.123457, 0.0]
        assert open_store(store_dir, CATALOG).snapshot().tables == live.tables

    def test_mistyped_row_rejects_the_whole_fact_batch(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        rows = [{"CropKey": 1, "YieldValue": 8.0}, {"CropKey": 1, "YieldValue": "9"}]
        with pytest.raises(StoreTypeError, match="FieldFact.YieldValue"):
            store.insert_facts("FieldFact", rows)
        assert store.row_count("FieldFact") == 0
        assert "FieldFact" not in store.snapshot().tables


class TestStoreAssignsSk:
    @pytest.mark.parametrize(
        "sks",
        [[2, 1], [1, 3], [0], [1, 1], [None, 2], ["1"], [True], [1, 2]],
        ids=["reordered", "gapped", "zero", "repeated", "mixed", "text", "bool", "positional"],
    )
    def test_a_batch_with_a_row_holding_sk_is_refused(self, store_dir, sks):
        rows = [{**_crop(f"C{i}", f"Crop {i}"), "sk": sk} for i, sk in enumerate(sks, 1)]
        for row in rows:
            if row["sk"] is None:
                del row["sk"]
        store = open_store(store_dir, CATALOG)
        with pytest.raises(StoreTypeError, match="Crop"):
            store.upsert_dimensions("Crop", rows)
        assert store.row_count("Crop") == 0

    def test_dense_sk_is_written_and_read_back(self, store_dir):
        rows = [_crop("C1", "Grass"), _crop("C2", "Winter Rye"), _crop("C1", "Grass")]
        store = open_store(store_dir, CATALOG)
        assert store.upsert_dimensions("Crop", rows) == [1, 2, 1]
        store.flush()
        expected = ({"sk": 1, **rows[0]}, {"sk": 2, **rows[1]})
        assert store.snapshot().rows("Crop") == expected
        assert open_store(store_dir, CATALOG).snapshot().rows("Crop") == expected
        assert csv_view(store_dir, CATALOG)["Crop"] == expected


class TestUpsert:
    def test_caller_supplied_sk_is_refused(self, store_dir):
        store = open_store(store_dir, CATALOG)
        for sk in (1, 7):
            with pytest.raises(StoreTypeError, match="Crop"):
                store.upsert_dimension("Crop", {"sk": sk, **_crop("C1", "Grass")})
        assert store.row_count("Crop") == 0

    def test_mistyped_duplicate_is_refused(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        with pytest.raises(StoreTypeError, match="Crop.EstYield"):
            store.upsert_dimension("Crop", {**_crop("C1", "Grass"), "EstYield": "lots"})
        assert store.row_count("Crop") == 1

    def test_idempotent_same_key(self, store_dir):
        store = open_store(store_dir, CATALOG)
        first = store.upsert_dimension("Crop", _crop("C1", "Grass"))
        second = store.upsert_dimension("Crop", _crop("C1", "Grass"))
        assert first == second == 1
        assert store.row_count("Crop") == 1

    def test_dense_key_assignment(self, store_dir):
        store = open_store(store_dir, CATALOG)
        assert store.upsert_dimension("Crop", _crop("C1", "Grass")) == 1
        assert store.upsert_dimension("Crop", _crop("C2", "Winter Rye")) == 2
        assert store.upsert_dimension("Crop", _crop("C3", "Winter Oats")) == 3

    def test_first_write_wins(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass", "ScienName": "Poaceae"})
        store.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass", "ScienName": "Changed"})
        assert store.snapshot().rows("Crop")[0]["ScienName"] == "Poaceae"

    def test_missing_natural_key_part(self, store_dir):
        store = open_store(store_dir, CATALOG)
        with pytest.raises(StoreTypeError):
            store.upsert_dimension("Crop", {"CropID": "C1"})

    def test_type_check(self, store_dir):
        store = open_store(store_dir, CATALOG)
        with pytest.raises(StoreTypeError):
            store.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass", "EstYield": "lots"})

    def test_an_empty_batch_registers_no_table(self, store_dir):
        store = open_store(store_dir, CATALOG)
        assert store.upsert_dimensions("Crop", []) == []
        store.flush()
        assert json.loads((Path(store_dir) / "manifest.json").read_text())["tables"] == {}

    def test_a_batch_deduplicates_within_itself_and_against_the_table(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        rows = [_crop("C2", "Rye"), _crop("C1", "Grass"), {**_crop("C2", "Rye"), "ScienName": "Changed"}, _crop("C3", "Oats")]
        assert store.upsert_dimensions("Crop", rows) == [2, 1, 2, 3]
        assert store.snapshot().columns("Crop", ["CropID", "ScienName"]) == [("C1", "C2", "C3"), (None, None, None)]


# Field rows over few natural keys, so keys repeat within and across batches
# with other attributes; SiteID must lie in 1..2, the two Site rows.
_FIELD_ROW = st.fixed_dictionaries(
    {"FieldID": st.sampled_from(["F1", "F2", 'F"3']), "FieldName": st.sampled_from(["a", "b,c"])},
    optional={"SiteID": st.integers(1, 2), "Area": _NUMBER, "Notes": _QUOTED_TEXT},
)
_FAULT = st.sampled_from([
    {"SiteID": 3}, {"SiteID": 0}, {"Area": "lots"}, {"Notes": ""}, {"FieldName": None}, {"Colour": None}, {"sk": 1},
])
# FieldFact rows; CropKey must lie in 1..2, the two Crop rows.
_FACT_ROW = st.fixed_dictionaries(
    {}, optional={"CropKey": st.integers(1, 2), "YieldValue": _NUMBER, "InsecticideQty": st.none() | _NUMBER},
)
_FACT_FAULT = st.sampled_from([
    {"CropKey": 3}, {"CropKey": 0}, {"CropKey": True}, {"CropKey": 1.0}, {"YieldValue": "9"},
    {"YieldValue": float("nan")}, {"HerbicideQty": 10**400}, {"Colour": None}, {"sk": 1},
])


def _with_faults(rows, faults, blank):
    """``rows`` with a faulty row put in at each ``(position, change)``: the
    row drawn at that position, or ``blank``, changed; and the first faulty
    row, None when there is none."""
    batch = [(row, False) for row in rows]
    for at, change in faults:
        base = rows[at] if at < len(rows) else blank
        batch.insert(min(at, len(batch)), ({**base, **change}, True))
    return [row for row, _ in batch], next((row for row, faulty in batch if faulty), None)


def _refusal(write, rows) -> tuple[type, str]:
    """The class and text of the error ``write(rows)`` raises."""
    with pytest.raises((StoreTypeError, DanglingKeyError)) as info:
        write(rows)
    return type(info.value), str(info.value)


def _batch_equals_one_write_per_row(table, batches, seed, blank, write_batch, write_one, state):
    """Twin stores, seeded with ``seed``: each batch written whole to one and
    a row at a time to the other, which agree on ``state`` after each batch.
    A batch with faulty rows raises what its first faulty row alone raises
    and leaves the table as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        stores = [open_store(Path(tmp) / name, CATALOG) for name in ("batched", "single")]
        for store in stores:
            seed(store)
        batched, single = stores
        for rows, faults in batches:
            if faults:
                bad_batch, first_bad = _with_faults(rows, faults, blank)
                before = batched.row_count(table), batched.table_digest(table), batched.snapshot().tables
                raised = _refusal(lambda rows: write_batch(batched, rows), bad_batch)
                assert raised == _refusal(lambda rows: write_batch(batched, rows), [first_bad])
                assert (batched.row_count(table), batched.table_digest(table), batched.snapshot().tables) == before
            assert write_batch(batched, rows) == [write_one(single, row) for row in rows]
            assert state(batched) == state(single)
        for store in stores:
            store.flush()
        assert _data_files(Path(tmp) / "batched") == _data_files(Path(tmp) / "single")
        assert batched.table_digest(table) == single.table_digest(table)
        return stores + [open_store(Path(tmp) / name, CATALOG) for name in ("batched", "single")]


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.lists(_FIELD_ROW, max_size=6), st.lists(st.tuples(st.integers(0, 6), _FAULT), max_size=3)),
        min_size=1,
        max_size=5,
    )
)
def test_a_batch_upsert_equals_one_upsert_per_row(batches):
    """``upsert_dimensions`` against ``upsert_dimension`` row by row."""
    stores = _batch_equals_one_write_per_row(
        "Field", batches,
        seed=lambda store: store.upsert_dimensions("Site", [{"SiteID": "S1", "SiteName": "n"},
                                                            {"SiteID": "S2", "SiteName": "n"}]),
        blank={"FieldID": "F9", "FieldName": "z"},
        write_batch=lambda store, rows: store.upsert_dimensions("Field", rows),
        write_one=lambda store, row: store.upsert_dimension("Field", row),
        state=lambda store: dict(store.dimension_keys("Field")),
    )
    for leading in ("F1", "F2", 'F"3', "F9"):
        assert len({store.dimension_keys("Field").get(leading) for store in stores}) == 1


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.lists(_FACT_ROW, max_size=6), st.lists(st.tuples(st.integers(0, 6), _FACT_FAULT), max_size=3)),
        min_size=1,
        max_size=5,
    )
)
def test_a_batch_insert_equals_one_insert_per_row(batches):
    """``insert_facts`` of a batch against ``insert_facts`` of each row alone."""
    stores = _batch_equals_one_write_per_row(
        "FieldFact", batches,
        seed=lambda store: store.upsert_dimensions("Crop", [_crop("C1", "Grass"), _crop("C2", "Winter Rye")]),
        blank={},
        write_batch=lambda store, rows: [1] * store.insert_facts("FieldFact", rows),
        write_one=lambda store, row: store.insert_facts("FieldFact", [row]),
        state=lambda store: store.row_count("FieldFact"),
    )
    assert len({store.snapshot().digest for store in stores}) == 1


class TestInsertFacts:
    def _with_crop(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        return store

    def test_batch_count(self, store_dir):
        store = self._with_crop(store_dir)
        rows = [{"CropKey": 1, "YieldValue": y} for y in (8.0, 9.0, 10.0)]
        assert store.insert_facts("FieldFact", rows) == 3

    def test_dangling_key_rejects_whole_batch(self, store_dir):
        store = self._with_crop(store_dir)
        rows = [{"CropKey": 1, "YieldValue": 8.0}, {"CropKey": 7, "YieldValue": 9.0}]
        with pytest.raises(DanglingKeyError):
            store.insert_facts("FieldFact", rows)
        assert store.row_count("FieldFact") == 0

    def test_empty_batch(self, store_dir):
        store = self._with_crop(store_dir)
        assert store.insert_facts("FieldFact", []) == 0
        store.flush()
        assert not (Path(store_dir) / "FieldFact").exists()
        assert "FieldFact" not in _manifest(store_dir)["tables"]

    def test_sk_on_a_fact_row_is_refused(self, store_dir):
        store = self._with_crop(store_dir)
        with pytest.raises(StoreTypeError, match="FieldFact"):
            store.insert_facts("FieldFact", [{"sk": 1, "CropKey": 1, "YieldValue": 8.0}])
        assert store.row_count("FieldFact") == 0


class TestFirstFaultInKeyOrder:
    """A faulty row reports its first fault in its own key order, the foreign-key range too."""

    def test_a_row_reports_its_first_fault_in_key_order(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        with pytest.raises(DanglingKeyError, match=r"FieldFact\.CropKey=7 does not resolve in 'Crop'"):
            store.insert_facts("FieldFact", [{"CropKey": 7, "YieldValue": "9"}])
        with pytest.raises(StoreTypeError, match=r"FieldFact\.YieldValue"):
            store.insert_facts("FieldFact", [{"YieldValue": "9", "CropKey": 7}])
        assert store.row_count("FieldFact") == 0

    def test_a_fact_batch_reports_its_first_faulty_row(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        rows = [{"CropKey": 1, "YieldValue": 8.0}, {"CropKey": 0}, {"CropKey": 1, "YieldValue": "9"}]
        with pytest.raises(DanglingKeyError, match=r"FieldFact\.CropKey=0 "):
            store.insert_facts("FieldFact", rows)
        assert store.row_count("FieldFact") == 0

    @pytest.mark.parametrize("table, row", [("Crop", _crop("C1", "Grass")), ("FieldFact", {"YieldValue": 8.0})])
    def test_an_unknown_attribute_is_refused_even_when_absent(self, store_dir, table, row):
        store = open_store(store_dir, CATALOG)
        write = store.upsert_dimension if table == "Crop" else lambda name, row: store.insert_facts(name, [row])
        with pytest.raises(StoreTypeError, match=f"{table}: unknown attribute 'Colour'"):
            write(table, {**row, "Colour": None})
        assert store.row_count(table) == 0


class _Text(str):
    pass


class _Key(enum.IntEnum):
    FIRST = 1


class TestValueSubclasses:
    """A column takes a value of a subclass of its kind's type, alone or down
    a column, and refuses a bool, which is an int but no number."""

    def test_subclass_values_are_stored(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimensions("Crop", [_crop(_Text("C1"), _Text("Grass"))])
        store.upsert_dimensions("Crop", [_crop(_Text("C2"), "Rye"), _crop("C3", _Text("Oats"))])
        store.insert_facts("FieldFact", [{"CropKey": _Key.FIRST, "YieldValue": numpy.float64(8.5)}])
        store.insert_facts("FieldFact", [
            {"CropKey": _Key.FIRST, "YieldValue": 9.0}, {"CropKey": 2, "YieldValue": numpy.float64(7.5)}])
        snapshot = store.snapshot()
        assert [row["CropID"] for row in snapshot.rows("Crop")] == ["C1", "C2", "C3"]
        assert [(row["CropKey"], row["YieldValue"]) for row in snapshot.rows("FieldFact")] == [
            (1, 8.5), (1, 9.0), (2, 7.5)]

    @pytest.mark.parametrize("column, message", [
        ("YieldValue", r"FieldFact\.YieldValue: expected a finite number"),
        ("CropKey", r"FieldFact\.CropKey: keys are integers"),
    ])
    @pytest.mark.parametrize("at", [0, 1])
    def test_a_bool_is_refused(self, store_dir, column, message, at):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        rows = [{"CropKey": 1, "YieldValue": 8.0} for _ in range(at + 1)]
        rows[at][column] = True
        with pytest.raises(StoreTypeError, match=f"^{message}$"):
            store.insert_facts("FieldFact", rows)
        assert store.row_count("FieldFact") == 0


_KIND_VALUES = {"number": _NUMBER, "foreign-key": st.integers(1, 9)}


@st.composite
def _rows_in_two_key_orders(draw):
    """A Crop, Soil or FieldFact row in catalog column order, a dimension's
    natural key always set, and the same row with its keys shuffled."""
    table = CATALOG.table(draw(st.sampled_from(["Crop", "Soil", "FieldFact"])))
    row = {}
    for attribute in table.attributes:
        if attribute.name in table.natural_key:
            row[attribute.name] = draw(_QUOTED_TEXT)
        elif draw(st.booleans()):
            row[attribute.name] = draw(st.none() | _KIND_VALUES.get(attribute.kind, _QUOTED_TEXT))
    return table, row, {key: row[key] for key in draw(st.permutations(list(row)))}


@pytest.fixture(scope="module")
def nine_rows_per_referenced_dimension(tmp_path_factory):
    """A store holding 9 rows in each dimension a Soil or FieldFact row references."""
    path = tmp_path_factory.mktemp("referenced") / "store"
    store = open_store(path, CATALOG)
    for name in sorted({a.references for t in ("Soil", "FieldFact") for a in CATALOG.table(t).attributes
                        if a.kind == "foreign-key"}):
        parts = CATALOG.table(name).natural_key
        store.upsert_dimensions(name, [{part: f"{part}{i}" for part in parts} for i in range(1, 10)])
    store.flush()
    return path


@settings(max_examples=200, deadline=None)
@given(case=_rows_in_two_key_orders())
@example(case=(CATALOG.table("FieldFact"), {"CropKey": 2, "YieldValue": 2**63 - 1, "InsecticideQty": None},
               {"InsecticideQty": None, "YieldValue": 2**63 - 1, "CropKey": 2}))
@example(case=(CATALOG.table("Crop"), {"CropID": 'a,"b', "CropName": "c", "EstYield": 1e-7},
               {"EstYield": 1e-7, "CropName": "c", "CropID": 'a,"b'}))
def test_a_one_row_batch_writes_the_same_bytes_in_any_key_order(nine_rows_per_referenced_dimension, case):
    """Twin stores, one given the row and one the row with its keys shuffled,
    append the same line: the row's cells in column order, each number as
    ``format_decimal`` writes it."""
    table, row, shuffled = case
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for name, batch in (("given", [row]), ("shuffled", [shuffled])):
            path = Path(tmp) / name
            shutil.copytree(nine_rows_per_referenced_dimension, path)
            store = open_store(path, CATALOG)
            if table.role == "dimension":
                store.upsert_dimensions(table.name, batch)
            else:
                store.insert_facts(table.name, batch)
            store.flush()
            written.append((path / table.name / "data.csv").read_bytes())
    assert written[0] == written[1]
    *_, last = csv.reader(io.StringIO(written[0].decode("utf-8"), newline=""))
    kinds = {attribute.name: attribute.kind for attribute in table.attributes}
    assert last == [  # Crop and Soil, which FieldFact references, already hold 9 rows
        "10" if name == "sk" else "" if (value := row.get(name)) is None
        else format_decimal(value) if kinds[name] == "number" else str(value)
        for name in every_column(CATALOG, table.name)
    ]


class TestLocking:
    def test_exclusive_lock_blocks_second_writer(self, store_dir):
        store = open_store(store_dir, CATALOG)
        with store.exclusive_lock():
            other = open_store(store_dir, CATALOG)
            with pytest.raises(StoreLockError):
                with other.exclusive_lock():
                    pass
        # released on exit
        with store.exclusive_lock():
            pass


class TestStarQuery:
    def _snapshot(self, store_dir) -> Snapshot:
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", {**_crop("C1", "Grass"), "EstYield": 20.0})
        store.upsert_dimension("Crop", {**_crop("C2", "Winter Rye"), "EstYield": 35.0})
        store.insert_facts(
            "FieldFact",
            [
                {"CropKey": 1, "YieldValue": 8.0},
                {"CropKey": 1, "YieldValue": 10.0},
                {"CropKey": 2, "YieldValue": 30.0},
                {"YieldValue": 99.0},  # no crop key -> excluded from crop joins
            ],
        )
        return store.snapshot()

    def test_dimension_filter(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop", filters=(EqFilter(attribute="CropName", value="Grass"),)),),
            project=("YieldValue",),
        )
        result = star_query(snap, q)
        assert sorted(r[0] for r in result.rows) == [8.0, 10.0]

    def test_group_by_crop_sum(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop"),),
            project=("Crop.CropName",),
            group_by=("Crop.CropName",),
            aggregates=(Aggregate(op="sum", attribute="YieldValue"), Aggregate(op="count", attribute="YieldValue")),
        )
        result = star_query(snap, q)
        as_dict = {row[0]: (row[1], row[2]) for row in result.rows}
        assert as_dict == {"Grass": (18.0, 2), "Winter Rye": (30.0, 1)}

    def test_empty_match_is_empty_table(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop", filters=(EqFilter(attribute="CropName", value="Nope"),)),),
            project=("YieldValue",),
        )
        assert star_query(snap, q).rows == []

    def test_unfiltered_join_excludes_keyless(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop"),),
            project=("Crop.CropName", "YieldValue"),
        )
        all_rows = star_query(snap, q).rows
        assert len(all_rows) == 3  # keyless fact excluded

    def test_range_filter(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(
            fact="FieldFact",
            joins=(
                DimensionJoin(
                    dimension="Crop",
                    filters=(RangeFilter(attribute="EstYield", lo=30.0, hi=None),),
                ),
            ),
            project=("Crop.CropName", "YieldValue"),
        )
        rows = star_query(snap, q).rows
        assert rows == [("Winter Rye", 30.0)]

    def test_mean_of_empty_is_absent_count_zero(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.insert_facts("FieldFact", [{"CropKey": 1}])  # no measures at all
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop"),),
            project=("Crop.CropName",),
            group_by=("Crop.CropName",),
            aggregates=(Aggregate(op="mean", attribute="YieldValue"), Aggregate(op="count", attribute="YieldValue")),
        )
        result = star_query(store.snapshot(), q)
        assert result.rows == [("Grass", None, 0)]

    def test_unknown_attribute(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(fact="FieldFact", project=("NoSuch",))
        with pytest.raises(UnknownAttributeError):
            star_query(snap, q)

    def test_group_by_must_be_projected(self, store_dir):
        snap = self._snapshot(store_dir)
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop"),),
            group_by=("Crop.CropName",),
            aggregates=(Aggregate(op="sum", attribute="YieldValue"),),
        )
        with pytest.raises(QueryError):
            star_query(snap, q)


class TestBoundaries:
    """The edges each store check draws, value by value."""

    TABLES = {
        "Crop": [
            {"sk": 1, **_crop("C1", "Grass"), "EstYield": 20.0},
            {"sk": 2, **_crop("C2", "Winter Rye"), "EstYield": 35.0},
        ],
        "FieldFact": [{"CropKey": 1, "YieldValue": 8.0}, {"CropKey": 2, "YieldValue": 30.0}],
    }

    @pytest.mark.parametrize("lo, hi, crops", [
        (20.0, None, ["Grass", "Winter Rye"]), (None, 20.0, ["Grass"]), (20.0, 20.0, ["Grass"]),
        (35.0, None, ["Winter Rye"]), (None, 35.0, ["Grass", "Winter Rye"]),
    ])
    def test_a_range_bound_equal_to_a_stored_value_keeps_its_row(self, lo, hi, crops):
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin("Crop", (RangeFilter("EstYield", lo=lo, hi=hi),)),),
            project=("Crop.CropName", "YieldValue"),
        )
        got = star_query(stored_snapshot(CATALOG, self.TABLES), q)
        _, want = nested_loop_star_query(CATALOG, self.TABLES, q)
        assert got.rows == want
        assert [crop for crop, _ in want] == crops

    @pytest.mark.parametrize("write, table, row", [
        ("upsert_dimensions", "FieldFact", {"YieldValue": 1.0}),
        ("insert_facts", "Crop", _crop("C1", "Grass")),
        ("upsert_dimensions", "Nope", _crop("C1", "Grass")),
        ("insert_facts", "Nope", {"YieldValue": 1.0}),
    ])
    def test_a_write_to_a_table_of_the_other_role_or_none_is_a_store_error(self, store_dir, write, table, row):
        store = open_store(store_dir, CATALOG)
        with pytest.raises(StoreError, match=repr(table)):
            getattr(store, write)(table, [row])
        assert store.row_count(table) == 0

    @pytest.mark.parametrize("key", [True, 1.0])
    def test_a_bool_or_float_foreign_key_is_a_type_error(self, store_dir, key):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        with pytest.raises(StoreTypeError, match="FieldFact.CropKey"):
            store.insert_facts("FieldFact", [{"CropKey": key, "YieldValue": 8.0}])

    def test_the_largest_finite_floats_are_stored_and_read_back(self, store_dir):
        store = open_store(store_dir, CATALOG)
        values = [sys.float_info.max, -sys.float_info.max]
        store.insert_facts("FieldFact", [{"YieldValue": v} for v in values])
        store.flush()
        for opened in (store, open_store(store_dir, CATALOG)):
            assert list(opened.snapshot().columns("FieldFact", ["YieldValue"])[0]) == values


class TestAggregateConsistency:
    def test_mean_equals_sum_over_count(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        values = [1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7]
        store.insert_facts("FieldFact", [{"CropKey": 1, "YieldValue": v} for v in values])
        q = QuerySpec(
            fact="FieldFact",
            joins=(DimensionJoin(dimension="Crop"),),
            project=("Crop.CropName",),
            group_by=("Crop.CropName",),
            aggregates=(
                Aggregate(op="sum", attribute="YieldValue"),
                Aggregate(op="count", attribute="YieldValue"),
                Aggregate(op="mean", attribute="YieldValue"),
            ),
        )
        (_, total, count, mean), = star_query(store.snapshot(), q).rows
        assert abs(mean - total / count) <= 1e-9


# --- lazy reopen ------------------------------------------------------------

_ONE_COLUMN_FACT = Catalog(
    version="one-column-fact",
    tables={
        "D": TableDef(name="D", role="dimension", attributes=(AttributeDef(name="DID", kind="natural-key-part"),),
                      natural_key=("DID",)),
        "F": TableDef(name="F", role="fact", attributes=(AttributeDef(name="M", kind="number"),),
                      measures=("M",), dimension_refs=("D",)),
    },
)


def _forge(store_dir, table: str, old: bytes, new: bytes) -> None:
    """Replace ``old`` by ``new`` in a table's file and record the matching digest."""
    path = Path(store_dir) / table / "data.csv"
    forged = path.read_bytes().replace(old, new, 1)
    assert forged != path.read_bytes()
    path.write_bytes(forged)
    manifest = _manifest(store_dir)
    manifest["tables"][table]["digest"] = _blake2b64_hex(forged)
    (Path(store_dir) / "manifest.json").write_text(json.dumps(manifest))


_TEXT_FACT = Catalog(
    version="text-fact",
    tables={
        **_ONE_COLUMN_FACT.tables,
        "F": TableDef(name="F", role="fact", measures=("M",), dimension_refs=("D",), attributes=(
            AttributeDef(name="Note", kind="text"), AttributeDef(name="M", kind="number"))),
    },
)


class TestLazyReopen:
    def test_row_with_every_value_absent_survives_reopen(self, store_dir):
        assert validate_catalog(_ONE_COLUMN_FACT) == []
        store = open_store(store_dir, _ONE_COLUMN_FACT)
        store.insert_facts("F", [{"M": 1.5}, {}])
        store.flush()
        assert (Path(store_dir) / "F" / "data.csv").read_bytes() == b"M\n1.5\n\n"
        reopened = open_store(store_dir, _ONE_COLUMN_FACT)
        assert reopened.row_count("F") == 2
        assert reopened.snapshot().tables == store.snapshot().tables == {"F": ({"M": 1.5}, {})}
        assert reopened.snapshot().table_digests == store.snapshot().table_digests

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_int_beyond_float_range_is_a_type_error(self, store_dir, value):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        digest = store.table_digest("Crop")
        with pytest.raises(StoreTypeError, match="FieldFact.YieldValue"):
            store.insert_facts("FieldFact", [{"CropKey": 1, "YieldValue": 8.0}, {"CropKey": 1, "YieldValue": value}])
        with pytest.raises(StoreTypeError, match="Crop.EstYield"):
            store.upsert_dimension("Crop", {**_crop("C2", "Winter Rye"), "EstYield": value})
        assert store.row_count("FieldFact") == 0
        assert store.row_count("Crop") == 1
        assert store.table_digest("Crop") == digest
        assert set(store.snapshot().tables) == {"Crop"}

    def test_undecodable_soil_cell_surfaces_at_first_read(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Soil", {"SoilID": "S1", "PH": 6.5})
        store.upsert_dimension("Soil", {"SoilID": "S2", "PH": 7.25})
        store.flush()
        _forge(store_dir, "Soil", b",6.5,", b",x6.5,")
        reopened = open_store(store_dir, CATALOG)  # the natural-key pass decodes no PH cell
        assert reopened.dimension_keys("Soil").get("S2") == 2
        snapshot = reopened.snapshot()  # holds the bytes; decodes nothing
        assert snapshot.columns("Soil", ["SoilID"]) == [("S1", "S2")]
        with pytest.raises(StoreError, match="Soil"):
            snapshot.columns("Soil", ["PH"])
        with pytest.raises(StoreError, match="Soil"):
            snapshot.rows("Soil")

    @pytest.mark.parametrize("table, old, new, naming", [
        ("Soil", b",6.5,", b",x6.5,", (
            QuerySpec("FieldFact", joins=(DimensionJoin("Soil", (RangeFilter("PH", lo=7.0),)),)),
            QuerySpec("FieldFact", joins=(DimensionJoin("Soil"),), project=("Soil.PH",)),
        )),
        ("FieldFact", b",2.375,", b",2.3.75,", (
            QuerySpec("FieldFact", project=("HerbicideQty",)),
            QuerySpec("FieldFact", joins=(DimensionJoin("Soil"),), aggregates=(Aggregate("min", "HerbicideQty"),)),
        )),
    ])
    def test_star_query_meets_a_bad_cell_only_in_a_column_it_names(self, store_dir, table, old, new, naming):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Soil", {"SoilID": "S1", "PH": 6.5})
        store.upsert_dimension("Soil", {"SoilID": "S2", "PH": 7.25})
        store.insert_facts("FieldFact", [
            {"SoilKey": 1, "YieldValue": 8.0, "HerbicideQty": 2.375},
            {"SoilKey": 2, "YieldValue": 9.0},
        ])
        store.flush()
        _forge(store_dir, table, old, new)
        snapshot = open_store(store_dir, CATALOG).snapshot()
        spared = QuerySpec("FieldFact", joins=(DimensionJoin("Soil", (EqFilter("SoilID", "S2"),)),),
                           project=("YieldValue", "Soil.SoilID"))
        assert star_query(snapshot, spared).rows == [(9.0, "S2")]
        for q in naming:
            with pytest.raises(StoreError, match=table):
                star_query(snapshot, q)

    def test_bare_carriage_return_in_a_field_key_is_a_store_error(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Field", {"FieldID": "F1", "FieldName": "North", "Area": 2.5})
        store.upsert_dimension("Field", {"FieldID": "F2", "FieldName": "South"})
        store.flush()
        _forge(store_dir, "Field", b"\n1,F1,", b"\n1,F\r1,")  # unquoted, as no writer leaves it
        with pytest.raises(StoreError, match="Field"):
            open_store(store_dir, CATALOG).dimension_keys("Field").get("F2")

    def test_soil_record_cut_before_its_key_is_a_store_error(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Soil", {"SoilID": "S1", "PH": 6.5})
        store.upsert_dimension("Soil", {"SoilID": "S2", "PH": 7.25})
        store.flush()
        last = (Path(store_dir) / "Soil" / "data.csv").read_bytes().split(b"\n")[-2]
        assert last.startswith(b"2,S2,")
        _forge(store_dir, "Soil", b"\n" + last + b"\n", b"\n2\n")  # the row count still matches
        with pytest.raises(StoreError, match="Soil"):
            open_store(store_dir, CATALOG).dimension_keys("Soil").get("S1")

    def test_undecodable_natural_key_pass_names_the_table(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.flush()
        _forge(store_dir, "Crop", b"\n1,C1", b"\n1,\xffC1")  # not UTF-8
        with pytest.raises(StoreError, match="Crop"):
            open_store(store_dir, CATALOG).dimension_keys("Crop").get("C1")

    @pytest.mark.parametrize("table", ["Crop", "FieldFact"])
    def test_row_count_disagreeing_with_the_file_is_a_store_error(self, store_dir, table):
        _small_store(store_dir)
        manifest = _manifest(store_dir)
        manifest["tables"][table]["rows"] += 1
        (Path(store_dir) / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"{table}.*row count"):
            open_store(store_dir, CATALOG).row_count(table)
        with pytest.raises(StoreError, match=f"{table}.*row count"):
            open_store(store_dir, CATALOG).snapshot().rows(table)
        with pytest.raises(StoreError, match=f"{table}.*row count"):
            open_store(store_dir, CATALOG).snapshot().columns(table, [CATALOG.table(table).attributes[0].name])

    @pytest.mark.parametrize("table", ["Crop", "Field"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_open_refuses_a_text_table_whose_row_count_disagrees_with_the_file(self, store_dir, table, delta):
        store = _small_store(store_dir)  # a Crop row holds a quoted ScienName
        store.upsert_dimension("Field", {"FieldID": "F1", "FieldName": "North", "Area": 2.5})
        store.upsert_dimension("Field", {"FieldID": "F2", "FieldName": "South"})
        store.flush()
        assert (b'"' in _data_files(store_dir)[table]) == (table == "Crop")
        manifest = _manifest(store_dir)
        manifest["tables"][table]["rows"] += delta
        (Path(store_dir) / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"{table}.*row count"):
            open_store(store_dir, CATALOG)

    @pytest.mark.parametrize("table, q", [
        ("Crop", QuerySpec("FieldFact", joins=(DimensionJoin("Crop"),))),
        ("F", QuerySpec("F")),
    ])
    def test_star_query_checks_the_row_count_of_a_table_it_reads_no_column_of(self, store_dir, table, q):
        catalog = _TEXT_FACT if table == "F" else CATALOG
        assert validate_catalog(catalog) == []
        if table == "F":
            store = open_store(store_dir, catalog)
            store.insert_facts("F", [{"Note": "a", "M": 1.0}, {"M": 2.0}])
            store.flush()
        else:
            _small_store(store_dir)
        manifest = _manifest(store_dir)
        manifest["tables"][table]["rows"] += 1  # a table with text: open checks its count too
        (Path(store_dir) / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"{table}.*row count"):
            star_query(open_store(store_dir, catalog).snapshot(), q)

    def test_append_after_reopen_decodes_no_fact_row(self, tmp_path, store_dir, monkeypatch):
        crops = tuple(
            synth.CropSpec(name, 10.0, {"soil_ph": synth.FactorEffect(optimum=5.5, weight=0.5, scale=2.0)})
            for name in ("Grass", "Winter Rye")
        )
        result = synth.generate(synth.SynthConfig(crops=crops, records_per_crop=20, seed=5), tmp_path / "gen")
        pairs = synth.source_mapping_pairs(result)
        run_pipeline(pairs, CATALOG, open_store(store_dir, CATALOG))

        indexed = []
        index = store_module._TableState.index
        monkeypatch.setattr(store_module._TableState, "index", lambda s: indexed.append(s.table.name) or index(s))
        with column_reads(monkeypatch) as reads:
            store = open_store(store_dir, CATALOG)
            report = run_pipeline(pairs, CATALOG, store)
        assert reads and all(set(names) <= set(CATALOG.table(table).natural_key) for table, names in reads), reads
        assert "FieldFact" not in indexed
        assert {name: report.tables[name].upserts_new for name in ("Crop", "Field", "Soil")} == {
            "Crop": 0, "Field": 0, "Soil": 0,
        }
        assert report.tables["FieldFact"].rows_accepted == 40
        assert open_store(store_dir, CATALOG).row_count("FieldFact") == 80


def _apply(store, steps) -> None:
    for kind, payload in steps:
        if kind == "upsert":
            store.upsert_dimension("Crop", payload)
        elif kind == "facts":
            store.insert_facts("FieldFact", [row for row in payload if row["CropKey"] <= store.row_count("Crop")])
        else:
            store.flush()


@settings(max_examples=40, deadline=None)
@given(before=st.lists(_STEP, max_size=10), after=st.lists(_STEP.filter(lambda s: s[0] != "flush"), max_size=8))
def test_reopened_store_appends_as_the_live_store(before, after):
    with tempfile.TemporaryDirectory() as tmp:
        live = open_store(Path(tmp) / "live", CATALOG)
        _apply(live, before + after)
        reopened_dir = Path(tmp) / "reopened"
        first = open_store(reopened_dir, CATALOG)
        _apply(first, before)
        first.flush()
        reopened = open_store(reopened_dir, CATALOG)
        _apply(reopened, after)
        want, got = live.snapshot(), reopened.snapshot()
        assert got.tables == want.tables
        assert got.table_digests == want.table_digests
        reopened.flush()
        assert csv_view(reopened_dir, CATALOG) == got.tables
        assert {name: _blake2b64_hex(data) for name, data in _data_files(reopened_dir).items()} == got.table_digests


# Cells with every separator str.splitlines knows besides "\n", so a reader
# that splits lines on them would disagree with csv.reader.
_UNQUOTED_BODY = st.text(alphabet=st.sampled_from(",\n\x00\x0c\x1c\x85\u2028ab"), max_size=40)


@settings(max_examples=200, deadline=None)
@given(body=_UNQUOTED_BODY, maxsplit=st.integers(0, 4))
@example(body="a,b\n\n,\n\nb", maxsplit=1)  # blank lines, no final newline
@example(body="\n", maxsplit=0)
@example(body="", maxsplit=2)
def test_unquoted_records_equal_the_stdlib_reader(body, maxsplit):
    want = list(csv.reader(io.StringIO(body)))  # "\n" ends a line
    assert [cells for cells, _ in csv_records(body)] == want
    cut = [cells for cells, _ in csv_records(body, ",", maxsplit)]
    assert len(cut) == len(want)
    for got, record in zip(cut, want):
        assert got[:maxsplit] == record[:maxsplit]
        assert ",".join(got) == ",".join(record)


# Key texts that need quoting ('"', ",", "\n", "\r") or that splitlines would
# break ("\u2028"); the few leading parts make multi-part keys share them.
_LEADING = st.sampled_from(["K", "K,1", 'K"1', "K\n1", "K\r1", "K\u20281"])
_SECOND = st.text(alphabet=st.sampled_from('ab,"\n\r\u2028'), min_size=1, max_size=3)
_DIMENSION_KEYS = {"Crop": ("CropID", "CropName"), "Field": ("FieldID", "FieldName")}


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(sorted(_DIMENSION_KEYS)), _LEADING, _SECOND), min_size=1, max_size=10),
    later=st.lists(st.tuples(st.sampled_from(sorted(_DIMENSION_KEYS)), _LEADING, _SECOND), max_size=6),
)
def test_reopened_dimension_keys_resolve_as_live(rows, later):
    with tempfile.TemporaryDirectory() as tmp:
        live = open_store(Path(tmp) / "store", CATALOG)
        for table, leading, second in rows:
            live.upsert_dimension(table, dict(zip(_DIMENSION_KEYS[table], (leading, second))))
        live.flush()
        reopened = open_store(Path(tmp) / "store", CATALOG)
        for table, leading, _ in rows + later:
            assert reopened.dimension_keys(table).get(leading) == live.dimension_keys(table).get(leading)
        for table, leading, second in rows + later:
            row = dict(zip(_DIMENSION_KEYS[table], (leading, second)))
            assert reopened.upsert_dimension(table, row) == live.upsert_dimension(table, row)


class TestFlush:
    @pytest.fixture
    def manifest_writes(self, monkeypatch):
        calls = []
        write = store_module.atomic_write_text
        monkeypatch.setattr(store_module, "atomic_write_text", lambda path, text: calls.append(path) or write(path, text))
        return calls

    @pytest.mark.parametrize("reopen", [False, True])
    def test_flush_with_nothing_pending_leaves_the_manifest_untouched(self, store_dir, manifest_writes, reopen):
        store = _small_store(store_dir)
        if reopen:
            store = open_store(store_dir, CATALOG)
            assert store.dimension_keys("Crop").get("C2") == 2
            store.insert_facts("FieldFact", [])
        path = Path(store_dir) / "manifest.json"
        before = path.read_bytes(), path.stat()
        del manifest_writes[:]
        store.flush()
        assert manifest_writes == []
        after = path.read_bytes(), path.stat()
        assert after[0] == before[0]
        assert (after[1].st_mtime_ns, after[1].st_ino) == (before[1].st_mtime_ns, before[1].st_ino)

    def test_append_of_a_deduplicating_delta_writes_the_manifest_once(self, tmp_path, store_dir, manifest_writes):
        crops = tuple(
            synth.CropSpec(name, 10.0, {"soil_ph": synth.FactorEffect(optimum=5.5, weight=0.5, scale=2.0)})
            for name in ("Grass", "Winter Rye")
        )
        result = synth.generate(synth.SynthConfig(crops=crops, records_per_crop=20, seed=5), tmp_path / "gen")
        pairs = synth.source_mapping_pairs(result)
        run_pipeline(pairs, CATALOG, open_store(store_dir, CATALOG))
        before = _data_files(store_dir)

        del manifest_writes[:]
        run_pipeline(pairs, CATALOG, open_store(store_dir, CATALOG))
        assert len(manifest_writes) == 1  # the four sources flush; only the fact source appended
        after = _data_files(store_dir)
        assert {name: after[name] for name in ("Crop", "Field", "Soil")} == {
            name: before[name] for name in ("Crop", "Field", "Soil")
        }
        added = after["FieldFact"][len(before["FieldFact"]):]
        assert after["FieldFact"] == before["FieldFact"] + added and added.count(b"\n") == 40
        rows = {name: data.count(b"\n") - 1 for name, data in after.items()}  # no cell here holds a newline
        want = {
            "catalog_digest": catalog_digest(CATALOG),
            "tables": {name: {"digest": _blake2b64_hex(data), "rows": rows[name]} for name, data in after.items()},
            "version": 2,
        }
        assert (Path(store_dir) / "manifest.json").read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_a_first_flush_replaces_a_data_file_no_manifest_lists(self, tmp_path, store_dir):
        dead = open_store(tmp_path / "dead", CATALOG)
        dead.upsert_dimension("Crop", _crop("C9", "Grass"))
        dead.flush()
        open_store(store_dir, CATALOG)  # a manifest that lists no table
        # what a writer that died before its manifest rewrite leaves behind
        (Path(store_dir) / "Crop").mkdir()
        (Path(store_dir) / "Crop" / "data.csv").write_bytes(_data_files(tmp_path / "dead")["Crop"])
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.flush()
        reopened = open_store(store_dir, CATALOG)
        assert reopened.snapshot().columns("Crop", ["sk", "CropID"]) == [(1,), ("C1",)]
        assert reopened.table_digest("Crop") == store.table_digest("Crop")


def _same_snapshot(got: Snapshot, want: Snapshot) -> None:
    assert got.tables == want.tables
    assert got.table_digests == want.table_digests


class TestOneRepresentation:
    """A live table is its data.csv bytes, so every read equals a reopen's."""

    def test_quoted_row_appended_to_an_unquoted_reopened_table(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.upsert_dimension("Crop", _crop("C2", "Winter Rye"))
        store.flush()
        assert b'"' not in _data_files(store_dir)["Crop"]  # read by line and comma
        store = open_store(store_dir, CATALOG)
        assert store.dimension_keys("Crop").get("C2") == 2
        row = {**_crop("C3", 'Oats "naked"'), "ScienName": 'Avena "nuda",\nL.'}
        assert store.upsert_dimension("Crop", row) == 3  # the table now needs csv.reader
        live = store.snapshot()
        assert live.rows("Crop")[2] == {"sk": 3, **row}
        assert store.row_count("Crop") == 3
        store.flush()
        _same_snapshot(open_store(store_dir, CATALOG).snapshot(), live)

    def test_two_flushes_write_each_line_once(self, tmp_path, store_dir):
        first = [("upsert", _crop("C1", "Grass")), ("facts", [{"CropKey": 1, "YieldValue": 8.25}])]
        second = [
            ("upsert", {**_crop("C2", "Rye"), "ScienName": "Secale,\ncereale"}),
            ("facts", [{"CropKey": 2, "YieldValue": 5.5}, {"CropKey": 1, "HerbicideQty": 0.5}]),
        ]
        store = open_store(store_dir, CATALOG)
        _apply(store, first)
        store.flush()
        between = store.snapshot()
        _same_snapshot(open_store(store_dir, CATALOG).snapshot(), between)
        _apply(store, second)
        store.flush()
        once = open_store(tmp_path / "once", CATALOG)
        _apply(once, first + second)
        once.flush()
        files = _data_files(store_dir)
        assert files == _data_files(tmp_path / "once")
        for name, data in files.items():
            assert data.count(store_module._TableState(CATALOG.table(name)).header) == 1
        assert csv_view(store_dir, CATALOG) == store.snapshot().tables
        _same_snapshot(open_store(store_dir, CATALOG).snapshot(), store.snapshot())


class TestFieldSizeLimit:
    """Text csv.reader could not read back is refused before anything is appended."""

    LIMIT = csv.field_size_limit()

    def _text(self, length: int) -> str:
        return ('x"' * length)[:length]  # quoted in data.csv, so csv.reader reads the table

    def test_text_at_the_limit_is_stored(self, store_dir):
        store = open_store(store_dir, CATALOG)
        row = {**_crop("C1", "Grass"), "ScienName": self._text(self.LIMIT)}
        store.upsert_dimension("Crop", row)
        live = store.snapshot()
        assert live.rows("Crop") == ({"sk": 1, **row},)
        store.flush()
        _same_snapshot(open_store(store_dir, CATALOG).snapshot(), live)

    def test_text_past_the_limit_is_refused(self, store_dir):
        store = _small_store(store_dir)
        files, live = _data_files(store_dir), store.snapshot()
        for column, row in (
            ("ScienName", {**_crop("C3", "Oats"), "ScienName": self._text(self.LIMIT + 1)}),
            ("CropID", _crop(self._text(self.LIMIT + 1), "Oats")),
        ):
            with pytest.raises(StoreTypeError, match=rf"Crop\.{column}"):
                store.upsert_dimension("Crop", row)
        assert store.row_count("Crop") == 2
        store.flush()
        assert _data_files(store_dir) == files
        _same_snapshot(store.snapshot(), live)

    @pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
    def test_forged_cell_past_the_limit_fails_every_read_of_its_table(self, store_dir, quoted):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", {**_crop("C1", "Grass"), **({"ScienName": 'Poa "annua"'} if quoted else {})})
        store.upsert_dimension("Crop", _crop("C2", "Rye"))
        store.flush()
        assert (b'"' in _data_files(store_dir)["Crop"]) == quoted
        _forge(store_dir, "Crop", b",Rye,", b"," + b"x" * (self.LIMIT + 1) + b",")
        store = open_store(store_dir, CATALOG)  # counts the refused record as one
        snapshot = store.snapshot()
        for read in (
            lambda: snapshot.rows("Crop"),
            lambda: snapshot.columns("Crop", ["CropID"]),
            lambda: store.upsert_dimension("Crop", _crop("C3", "Oats")),
        ):
            with pytest.raises(StoreError, match=r"'Crop'.*a cell longer than csv\.field_size_limit\(\)"):
                read()

    def test_long_cell_after_unquoted_rows_is_refused(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Crop", _crop("C1", "Grass"))
        store.flush()
        store = open_store(store_dir, CATALOG)
        with pytest.raises(StoreTypeError, match=r"Crop\.ScienName"):
            store.upsert_dimension("Crop", {**_crop("C2", "Rye"), "ScienName": "x" * (self.LIMIT + 1)})
        store.flush()
        assert store.snapshot().rows("Crop") == ({"sk": 1, **_crop("C1", "Grass")},)
        _same_snapshot(open_store(store_dir, CATALOG).snapshot(), store.snapshot())


class TestDimensionForeignKeys:
    """A dimension's foreign key must resolve, as a fact's must."""

    def _field(self, field_id, site_sk):
        return {"FieldID": field_id, "FieldName": "x", "SiteID": site_sk}

    def test_dangling_key_is_refused_and_nothing_is_stored(self, store_dir):
        store = open_store(store_dir, CATALOG)
        with pytest.raises(DanglingKeyError, match=r"Field\.SiteID=99 does not resolve in 'Site'"):
            store.upsert_dimension("Field", self._field("F1", 99))
        assert store.row_count("Field") == 0
        store.flush()
        assert open_store(store_dir, CATALOG).snapshot().tables == {}

    def test_key_resolves_after_the_referenced_upsert(self, store_dir):
        store = open_store(store_dir, CATALOG)
        assert store.upsert_dimension("Site", {"SiteID": "S1", "SiteName": "North"}) == 1
        assert store.upsert_dimension("Field", self._field("F1", 1)) == 1
        with pytest.raises(DanglingKeyError, match=r"Field\.SiteID=2 "):
            store.upsert_dimension("Field", self._field("F2", 2))
        assert store.upsert_dimension("Field", self._field("F2", 1)) == 2  # the refused row left no key behind
        store.flush()
        assert open_store(store_dir, CATALOG).snapshot().columns("Field", ["FieldID", "SiteID"]) == [("F1", "F2"), (1, 1)]


# --- projecting snapshots ---------------------------------------------------

def _projection(snapshot: Snapshot, table: str, names) -> list[tuple]:
    return [tuple(row.get(name) for row in snapshot.rows(table)) for name in names]


# Cells csv_field leaves bare (so the table is read by line and comma) or quotes.
_BARE_TEXT = st.text(alphabet=st.sampled_from("ab \x0c\x85\u2028"), min_size=1, max_size=6)
_QUOTING_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n'), min_size=1, max_size=6)


@st.composite
def _crop_rows(draw):
    text = _QUOTING_TEXT if draw(st.booleans()) else _BARE_TEXT
    optional = {"VarietyName": text, "EstYield": _NUMBER, "BbchScale": text, "ScienName": text, "Equ.Weight": _NUMBER}
    return draw(st.lists(st.fixed_dictionaries({"CropName": text}, optional=optional), min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(crops=_crop_rows(), facts=st.lists(_TYPED_FACT, max_size=6), data=st.data())
@example(crops=[{"CropName": "a"}, {"CropName": "b", "ScienName": "x"}], facts=[{"CropKey": 2}], data=None)
@example(crops=[{"CropName": 'a"\n,', "ScienName": "b\r\n"}, {"CropName": "c"}], facts=[], data=None)
def test_columns_are_the_projection_of_rows(crops, facts, data):
    with tempfile.TemporaryDirectory() as tmp:
        store = open_store(Path(tmp) / "store", CATALOG)
        for i, crop in enumerate(crops, 1):
            store.upsert_dimension("Crop", {"CropID": f"C{i}", **crop})
        store.insert_facts("FieldFact", [f for f in facts if f["CropKey"] <= len(crops)])
        live = store.snapshot()
        store.flush()
        for snapshot in (live, open_store(Path(tmp) / "store", CATALOG).snapshot()):
            for table in snapshot.table_digests:
                every = every_column(CATALOG, table)
                names = data.draw(st.lists(st.sampled_from(every), max_size=6)) if data else every
                got = snapshot.columns(table, names)  # decoded before any row is parsed
                assert got == _projection(snapshot, table, names)
                assert snapshot.columns(table, every) == _projection(snapshot, table, every)


class TestProjectingSnapshot:
    def test_blank_lines_of_a_one_column_table_read_as_absent_cells(self, store_dir):
        store = open_store(store_dir, _ONE_COLUMN_FACT)
        store.insert_facts("F", [{}, {"M": 1.5}, {}])
        live = store.snapshot()
        store.flush()
        for snapshot in (live, open_store(store_dir, _ONE_COLUMN_FACT).snapshot()):
            assert snapshot.columns("F", ["M"]) == [(None, 1.5, None)]
            assert snapshot.rows("F") == ({}, {"M": 1.5}, {})

    def test_a_table_never_written_has_empty_columns(self, store_dir):
        snapshot = _small_store(store_dir).snapshot()
        assert snapshot.columns("Soil", ["SoilID", "PH"]) == [(), ()]
        assert snapshot.rows("Soil") == ()

    def test_unknown_column_is_an_unknown_attribute_error(self, store_dir):
        snapshot = _small_store(store_dir).snapshot()
        with pytest.raises(UnknownAttributeError, match="Crop.Colour"):
            snapshot.columns("Crop", ["CropID", "Colour"])

    def test_each_column_is_decoded_once(self, store_dir, monkeypatch):
        snapshot = open_store(_small_store(store_dir).path, CATALOG).snapshot()
        decoded = []
        columns = store_module._TableState.columns
        monkeypatch.setattr(store_module._TableState, "columns", lambda s, names: decoded.append(list(names)) or columns(s, names))
        assert snapshot.columns("Crop", ["CropName", "EstYield"]) == [("Grass", "Winter Rye"), (20.5, None)]
        assert snapshot.columns("Crop", ["EstYield", "ScienName", "CropName"]) == [
            (20.5, None), ('Poa "annua", L.', None), ("Grass", "Winter Rye"),
        ]
        assert decoded == [["CropName", "EstYield"], ["ScienName"]]

    def test_snapshot_keeps_the_bytes_of_its_load_boundary(self, store_dir):
        store = _small_store(store_dir)
        before = store.snapshot()
        store.upsert_dimension("Crop", _crop("C3", "Oats"))
        store.insert_facts("FieldFact", [{"CropKey": 3, "YieldValue": 1.0}])
        assert before.columns("Crop", ["CropID"]) == [("C1", "C2")]
        assert len(before.rows("FieldFact")) == 2
        assert before.table_digests != store.snapshot().table_digests

    @pytest.mark.parametrize("change", ["extra", "short"])
    def test_record_of_the_wrong_width_is_a_store_error_naming_the_table(self, store_dir, change):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("Soil", {"SoilID": "S1", "PH": 6.5, "Calcium": 3.0})
        store.flush()
        line = (Path(store_dir) / "Soil" / "data.csv").read_bytes().split(b"\n")[1]
        forged = line + b",extra,cells" if change == "extra" else line.rsplit(b",", 1)[0]
        _forge(store_dir, "Soil", b"\n" + line + b"\n", b"\n" + forged + b"\n")
        snapshot = open_store(store_dir, CATALOG).snapshot()
        assert snapshot.columns("Soil", ["SoilID", "PH"]) == [("S1",), (6.5,)]  # projection reads no further
        with pytest.raises(StoreError, match=r"'Soil'.*cells, expected 20"):
            snapshot.rows("Soil")

    def test_a_read_of_the_last_column_alone_checks_every_record_width(self, store_dir):
        store = open_store(store_dir, CATALOG)
        store.upsert_dimension("OperationTime", {"OperationTimeID": "T1", "StartDate": "2019-04-01", "Season": "Spring"})
        store.upsert_dimension("OperationTime", {"OperationTimeID": "T2", "Season": "Autumn"})
        store.insert_facts("FieldFact", [{"OperationTimeKey": 2, "YieldValue": 8.0}])
        store.flush()
        _forge(store_dir, "OperationTime", b",Spring\n", b",Spring,Late\n")
        snapshot = open_store(store_dir, CATALOG).snapshot()
        assert snapshot.columns("OperationTime", ["StartDate"]) == [("2019-04-01", None)]
        with pytest.raises(StoreError, match=r"'OperationTime'.*a record of 6 cells, expected 5"):
            snapshot.columns("OperationTime", ["Season"])
