"""Golden bytes: the BLAKE2b digest of each table's ``data.csv`` and of the
reject ledger for two fixed ingests. A change that alters any stored or
ledger byte fails here; a deliberate format change updates the digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

from agridw.catalog import builtin_catalog
from agridw.etl import SourceDescriptor, mapping_from_dict, run_pipeline, write_reject_ledger
from agridw.store import open_store
from agridw.synth import generate, source_mapping_pairs
from test_acceptance import _recovery_config

CATALOG = builtin_catalog()


def _digests(store_dir: Path, ledger: Path) -> dict[str, str]:
    files = {path.parent.name: path for path in store_dir.glob("*/data.csv")}
    files["reject_ledger"] = ledger
    return {name: hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() for name, path in sorted(files.items())}


def _ingest(pairs, tmp_path: Path) -> dict[str, str]:
    store = open_store(tmp_path / "store", CATALOG)
    report = run_pipeline(pairs, CATALOG, store)
    ledger = write_reject_ledger(report.rejects, tmp_path / "store" / "reject_ledger.csv")
    return _digests(tmp_path / "store", ledger)


def test_recovery_synth_ingest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = generate(dataclasses.replace(_recovery_config(0), records_per_crop=50), "gen")
    assert _ingest(source_mapping_pairs(result), tmp_path) == {
        "Crop": "a8f9a0ae69f541801bb2c44fe1e827da",
        "Field": "7fd64d7497d7dace521e983d54dafde6",
        "FieldFact": "4037a251df47cef3075f30ddf3e6b830",
        "Soil": "e8ba752ad9e91a81fd220abdbc538e9c",
        "reject_ledger": "7d83b74580ba96e13bcaa79ef23a00ce",
    }


# Quoted cells (a delimiter, a doubled quote, a line end), CRLF, a ";"
# delimiter, blank lines, a bare "\r" line end, a record of the wrong width,
# a record with a cell over csv.field_size_limit() and one whose quoted
# cell passes the limit over several lines.
CROPS = (
    "crop_id;crop_name;variety;est\r\n"
    'C1;Grass;"Early; tall";8\r\n'
    "\r\n"
    'C2;"Rye W.";"He said ""go""";9\r\n'
    'C3;Oats W.;"two\r\nlines";7\r\n'
    "C4;Grass\r\n"
    "C5;Wheat W.;" + "x" * 140_000 + ";5\r\n"
    'C6;"Barley S.";plain;6'
)
FACTS = (
    "crop_id,yield_t\n"
    "C1,8.5\n"
    "\n"
    "\n"
    "C2,9.25\r"
    '"' + "\n".join(["y" * 20_000] * 7) + '",1\n'
    "C3,7\n"
    "C9,1,2\n"
    "C6,6.125"
)
CROP_MAPPING = {
    "target_table": "Crop",
    "bindings": [
        {"source": "crop_id", "target": "CropID"},
        {"source": "crop_name", "target": "CropName", "transforms": [{"op": "synonym", "table": "crop-names"}]},
        {"source": "variety", "target": "VarietyName"},
        {"source": "est", "target": "EstYield", "transforms": [{"op": "parse-number"}]},
    ],
}
FACT_MAPPING = {
    "target_table": "FieldFact",
    "bindings": [
        {"source": "crop_id", "target": "CropKey"},
        {"source": "yield_t", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
    ],
}


def test_hand_written_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("crops.csv").write_bytes(CROPS.encode("utf-8"))
    Path("facts.csv").write_bytes(FACTS.encode("utf-8"))
    pairs = [
        (SourceDescriptor(path="crops.csv", delimiter=";"), mapping_from_dict(CROP_MAPPING)),
        (SourceDescriptor(path="facts.csv"), mapping_from_dict(FACT_MAPPING)),
    ]
    assert _ingest(pairs, tmp_path) == {
        "Crop": "4ca866c5969b0522b1d8425ef0c12a05",
        "FieldFact": "93c04aceea05298fa2e295b3ec13ba18",
        "reject_ledger": "b50188f93ac7ce04a47d2bb6e2b91bef",
    }
