from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import agridw

from agridw.analytics import SignificanceRule
from agridw.catalog import builtin_catalog, save_catalog, serialize_catalog
from agridw.cli import _parse_rule, main
from agridw.errors import ConfigError
from agridw.report import load_findings
from agridw.store import open_store
from agridw.util import fnv1a64

from helpers import write_store


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _fixture_sources(tmp_path, fact_rows):
    crops = _write(tmp_path / "crops.csv", "crop_id,crop_name\nC1,Grass\nC2,Wheat W.\n")
    facts = _write(tmp_path / "facts.csv", "crop_id,yield_t\n" + "".join(fact_rows))
    crop_map = _write(
        tmp_path / "crop.mapping.json",
        json.dumps(
            {
                "target_table": "Crop",
                "bindings": [
                    {"source": "crop_id", "target": "CropID", "transforms": [{"op": "rename"}]},
                    {"source": "crop_name", "target": "CropName",
                     "transforms": [{"op": "synonym", "table": "crop-names"}]},
                ],
            }
        ),
    )
    fact_map = _write(
        tmp_path / "fact.mapping.json",
        json.dumps(
            {
                "target_table": "FieldFact",
                "bindings": [
                    {"source": "crop_id", "target": "CropKey", "transforms": [{"op": "rename"}]},
                    {"source": "yield_t", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
                ],
            }
        ),
    )
    return crops, facts, crop_map, fact_map


def _synth_config(tmp_path, records=60, seed=3):
    doc = {
        "seed": seed,
        "records_per_crop": records,
        "noise_sd": 0.2,
        "crops": [
            {"name": "Grass", "base_yield": 10.0,
             "effects": {"soil_ph": {"optimum": 5.5, "weight": 0.5, "scale": 2.0}}},
            {"name": "Winter Rye", "base_yield": 10.0,
             "effects": {"insecticide": {"optimum": 150.0, "weight": 0.5, "scale": 500.0}}},
        ],
    }
    return _write(tmp_path / "synth.json", json.dumps(doc))


def _number_key_catalog(tmp_path) -> str:
    """The builtin catalog with Crop's natural-key part CropID a number."""
    catalog = builtin_catalog()
    crop = catalog.table("Crop")
    attributes = tuple(dataclasses.replace(a, kind="number") if a.name == "CropID" else a for a in crop.attributes)
    tables = {**catalog.tables, "Crop": dataclasses.replace(crop, attributes=attributes)}
    return str(save_catalog(type(catalog)(version=catalog.version, tables=tables), tmp_path / "number-key.json"))


class TestParseRule:
    def test_omitted_parts_take_the_rule_defaults(self):
        assert _parse_rule("gap") == SignificanceRule()
        assert _parse_rule("welch") == SignificanceRule(kind="welch-t")
        assert _parse_rule("gap:0.2:7") == SignificanceRule(threshold=0.2, min_count=7)

    def test_metadata_rule_for_the_documented_specs(self):
        assert _parse_rule("gap:0.20").as_dict() == {"kind": "relative-gap", "threshold": 0.2, "min_count": 5}
        assert _parse_rule("welch:0.05").as_dict() == {"kind": "welch-t", "alpha": 0.05, "min_count": 5}

    @pytest.mark.parametrize("spec", ["gap:0.1:5:9", "welch:0.05:5:", "gap:", "welch:0.05:five"])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ConfigError, match="rule"):
            _parse_rule(spec)


class TestCatalogValidate:
    def test_builtin_ok(self, capsys):
        assert main(["catalog", "validate"]) == 0
        assert "catalog ok" in capsys.readouterr().out

    def test_broken_catalog_exit_one(self, tmp_path, capsys):
        # rename only the Crop table itself; every reference to it now dangles
        text = serialize_catalog(builtin_catalog()).replace('"name": "Crop"', '"name": "Krop"')
        path = tmp_path / "broken.json"
        path.write_text(text)
        assert main(["catalog", "validate", "--catalog", str(path)]) == 1
        assert "dangling-ref" in capsys.readouterr().out

    def test_natural_key_part_that_is_not_text_exit_one(self, tmp_path, capsys):
        assert main(["catalog", "validate", "--catalog", _number_key_catalog(tmp_path)]) == 1
        assert "Crop.CropID: [natural-key-not-text]" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["catalog", "validate", "--catalog", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestIngest:
    def test_clean_load_exit_zero(self, tmp_path, capsys):
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n", "C2,9.1\n"])
        store = str(tmp_path / "store")
        code = main([
            "ingest", "--store", store,
            "--source", crops, "--mapping", crop_map,
            "--source", facts, "--mapping", fact_map,
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "total: 4 read, 4 accepted, 0 rejected" in err

    def test_manifest_has_the_mode_of_a_data_file(self, tmp_path):
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n"])
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--source", crops, "--mapping", crop_map,
                     "--source", facts, "--mapping", fact_map]) == 0
        mode = stat.S_IMODE((store / "Crop" / "data.csv").stat().st_mode)
        assert stat.S_IMODE((store / "manifest.json").stat().st_mode) == mode
        assert stat.S_IMODE((store / "reject_ledger.csv").stat().st_mode) == mode

    def test_bad_row_exit_one_with_ledger(self, tmp_path):
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n", "C1,oops\n"])
        store = str(tmp_path / "store")
        code = main([
            "ingest", "--store", store,
            "--source", crops, "--mapping", crop_map,
            "--source", facts, "--mapping", fact_map,
        ])
        assert code == 1
        ledger = (Path(store) / "reject_ledger.csv").read_text().splitlines()
        assert len(ledger) == 2  # header + one reject
        assert "type-error" in ledger[1]

    @pytest.mark.parametrize("name", ["", "x" * 140_000], ids=["empty", "over-the-csv-field-limit"])
    def test_text_constant_the_store_refuses_exit_one_with_ledger(self, tmp_path, name):
        crops = _write(tmp_path / "crops.csv", "crop_id\nC1\n")
        crop_map = _write(tmp_path / "crop.mapping.json", json.dumps({
            "target_table": "Crop",
            "bindings": [
                {"source": "crop_id", "target": "CropID"},
                {"source": "", "target": "CropName", "transforms": [{"op": "constant", "value": name}]},
            ],
        }))
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--source", crops, "--mapping", crop_map]) == 1
        ledger = (store / "reject_ledger.csv").read_text().splitlines()
        assert ledger[1:] == [f"{crops},1,CropName,type-error,C1"]

    def test_jsonl_source_is_read_as_record_json(self, tmp_path, capsys):
        _, _, crop_map, _ = _fixture_sources(tmp_path, [])
        crops = _write(tmp_path / "crops.jsonl", '{"crop_id": "C1", "crop_name": "Grass"}\n{"crop_id": "C2", "crop_name": "Wheat W."}\n')
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--source", crops, "--mapping", crop_map]) == 0
        assert "total: 2 read, 2 accepted, 0 rejected" in capsys.readouterr().err
        assert open_store(store, builtin_catalog()).snapshot().columns("Crop", ["CropID", "CropName"]) == [
            ("C1", "C2"), ("Grass", "Winter Wheat"),
        ]

    def test_header_cell_over_the_csv_field_limit_exit_two_names_the_source(self, tmp_path, capsys):
        crops, _, crop_map, _ = _fixture_sources(tmp_path, [])
        _write(Path(crops), "crop_id,crop_name" + "x" * 140_000 + "\nC1,Grass\n")
        assert main(["ingest", "--store", str(tmp_path / "store"), "--source", crops, "--mapping", crop_map]) == 2
        assert f"source {crops}: unreadable header" in capsys.readouterr().err

    def test_locked_store_exit_two(self, tmp_path, capsys):
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n"])
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        from agridw.store import open_store

        open_store(store_dir, builtin_catalog())  # create manifest
        (store_dir / ".lock").write_text("held")
        code = main([
            "ingest", "--store", str(store_dir),
            "--source", crops, "--mapping", crop_map,
            "--source", facts, "--mapping", fact_map,
        ])
        assert code == 2
        assert "locked" in capsys.readouterr().err

    def test_unpaired_flags_exit_two(self, tmp_path, capsys):
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n"])
        assert main(["ingest", "--store", str(tmp_path / "s"), "--source", crops]) == 2

    @pytest.mark.parametrize("text, error", [(None, "cannot read mapping file"), ("{", "invalid JSON")],
                             ids=["missing", "invalid JSON"])
    def test_unreadable_mapping_exit_two_creates_no_store(self, tmp_path, capsys, text, error):
        crops, facts, crop_map, _ = _fixture_sources(tmp_path, ["C1,8.5\n"])
        fact_map = tmp_path / "broken.mapping.json"
        if text is not None:
            fact_map.write_text(text)
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--source", crops, "--mapping", crop_map,
                     "--source", facts, "--mapping", str(fact_map)]) == 2
        assert error in capsys.readouterr().err
        assert not store.exists()

    def test_mapping_that_does_not_fit_the_catalog_exit_two_creates_no_store(self, tmp_path, capsys):
        crops, facts, crop_map, _ = _fixture_sources(tmp_path, ["C1,8.5\n"])
        misfit = _write(tmp_path / "misfit.mapping.json", json.dumps(
            {"target_table": "Nope", "bindings": [{"source": "crop_id", "target": "CropKey"}]}
        ))
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--source", crops, "--mapping", crop_map,
                     "--source", facts, "--mapping", misfit]) == 2
        assert "target_table 'Nope' not in catalog" in capsys.readouterr().err
        assert not store.exists()

    def test_natural_key_part_that_is_not_text_exit_two_creates_no_store(self, tmp_path, capsys):
        crops, _, crop_map, _ = _fixture_sources(tmp_path, ["C1,8.5\n"])
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--catalog", _number_key_catalog(tmp_path),
                     "--source", crops, "--mapping", crop_map]) == 2
        assert "Crop.CropID" in capsys.readouterr().err
        assert not store.exists()

    def test_catalog_that_fails_validation_exit_two_creates_no_store(self, tmp_path, capsys):
        crops, _, crop_map, _ = _fixture_sources(tmp_path, ["C1,8.5\n"])
        catalog = builtin_catalog()
        crop = dataclasses.replace(catalog.table("Crop"), natural_key=("CropCode", "CropName"))
        broken = save_catalog(type(catalog)(version=catalog.version, tables={**catalog.tables, "Crop": crop}),
                              tmp_path / "broken.json")
        store = tmp_path / "store"
        assert main(["ingest", "--store", str(store), "--catalog", str(broken),
                     "--source", crops, "--mapping", crop_map]) == 2
        err = capsys.readouterr().err
        assert "Crop.CropCode: [unknown-natural-key]" in err
        assert not store.exists()

    def test_catalog_mismatch_exit_two(self, tmp_path, capsys):
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n"])
        store = str(tmp_path / "store")
        assert main([
            "ingest", "--store", store,
            "--source", crops, "--mapping", crop_map,
        ]) == 0
        other = builtin_catalog()
        edited = save_catalog(
            type(other)(version="other", tables=other.tables), tmp_path / "edited.json"
        )
        code = main([
            "ingest", "--store", store, "--catalog", str(edited),
            "--source", crops, "--mapping", crop_map,
        ])
        assert code == 2


def _loaded_store(tmp_path) -> str:
    config = _synth_config(tmp_path)
    gen = str(tmp_path / "gen")
    assert main(["synth", "--config", config, "--out", gen]) == 0
    store = str(tmp_path / "store")
    code = main([
        "ingest", "--store", store,
        "--source", f"{gen}/crops.csv", "--mapping", f"{gen}/mappings/crops.mapping.json",
        "--source", f"{gen}/fields.csv", "--mapping", f"{gen}/mappings/fields.mapping.json",
        "--source", f"{gen}/soil.csv", "--mapping", f"{gen}/mappings/soil.mapping.json",
        "--source", f"{gen}/fieldfact.csv", "--mapping", f"{gen}/mappings/fieldfact.mapping.json",
    ])
    assert code == 0
    return store


class TestAnalyze:
    def test_groups_writes_table(self, tmp_path):
        store = _loaded_store(tmp_path)
        out = str(tmp_path / "out")
        assert main(["analyze", "groups", "--store", store, "--out", out]) == 0
        lines = (Path(out) / "group_table.csv").read_text().splitlines()
        assert lines[0] == "group,crop,mean_yield,pct_vs_g3"
        assert len(lines) == 1 + 2 * 5

    def test_factor_series_five_rows_per_crop(self, tmp_path):
        store = _loaded_store(tmp_path)
        out = str(tmp_path / "out")
        assert main(["analyze", "factor", "--factor", "soil_ph", "--store", store, "--out", out]) == 0
        lines = (Path(out) / "factor_soil_ph.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 5

    def test_factor_series_json_format(self, tmp_path):
        store = _loaded_store(tmp_path)
        out = str(tmp_path / "out-json")
        assert main(["analyze", "factor", "--factor", "soil_ph", "--store", store,
                     "--out", out, "--format", "json"]) == 0
        doc = json.loads((Path(out) / "factor_soil_ph.json").read_text())
        assert len(doc) == 2 * 5
        assert {"crop", "factor", "group", "mean", "count", "sd"} == set(doc[0])

    def test_factor_series_markdown_exit_two_writes_nothing(self, tmp_path, capsys):
        store = _loaded_store(tmp_path)
        out = tmp_path / "out-md"
        code = main(["analyze", "factor", "--factor", "soil_ph", "--store", store,
                     "--out", str(out), "--format", "markdown"])
        assert code == 2
        assert "markdown" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_factor_exit_two_lists_valid(self, tmp_path, capsys):
        store = _loaded_store(tmp_path)
        out = str(tmp_path / "out")
        code = main(["analyze", "factor", "--factor", "soil_zn", "--store", store, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "soil_zn" in err and "soil_ph" in err and "insecticide" in err

    def test_mine_recovers_planted_optima(self, tmp_path):
        store = _loaded_store(tmp_path)
        out = str(tmp_path / "out")
        assert main(["analyze", "mine", "--store", store, "--out", out, "--rule", "gap:0.2"]) == 0
        findings = load_findings(Path(out) / "findings.json")
        verdicts = {(f.crop, f.factor): f for f in findings}
        grass_ph = verdicts[("Grass", "soil_ph")]
        assert grass_ph.verdict == "optimal"
        assert abs(grass_ph.value - 5.5) <= 1.0
        rye_insect = verdicts[("Winter Rye", "insecticide")]
        assert rye_insect.verdict == "optimal"
        assert (Path(out) / "findings.md").exists()
        assert (Path(out) / "run_metadata.json").exists()

    def test_welch_rule_accepted(self, tmp_path):
        store = _loaded_store(tmp_path)
        out = str(tmp_path / "out-welch")
        assert main(["analyze", "mine", "--store", store, "--out", out, "--rule", "welch:0.01"]) == 0

    def test_bad_rule_exit_two(self, tmp_path, capsys):
        store = _loaded_store(tmp_path)
        assert main(["analyze", "mine", "--store", store, "--out", str(tmp_path / "o"),
                     "--rule", "chi2:0.05"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "--rule", "bogus:1"],
            ["mine", "--rule", "gap:0.1:5:9"],
            ["groups", "--rule", "welch:x"],
            ["factor", "--factor", "soil_zn"],
            ["factor", "--factor", "soil_ph", "--format", "markdown"],
        ],
        ids=["unknown-rule", "extra-rule-part", "bad-rule-level", "unknown-factor", "markdown-factor-series"],
    )
    def test_bad_arguments_exit_two_before_opening_the_store(self, tmp_path, argv):
        store, out = tmp_path / "store", tmp_path / "out"
        assert main(["analyze", *argv, "--store", str(store), "--out", str(out)]) == 2
        assert not store.exists() and not out.exists()

    def test_empty_store_exit_two(self, tmp_path, capsys):
        from agridw.store import open_store

        store_dir = tmp_path / "empty"
        open_store(store_dir, builtin_catalog())
        assert main(["analyze", "mine", "--store", str(store_dir), "--out", str(tmp_path / "o")]) == 2

    def test_groups_with_no_crop_of_five_records_exit_two_creates_no_out_dir(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        writer = open_store(store_dir, builtin_catalog())
        crop = writer.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass"})
        writer.insert_facts("FieldFact", [{"CropKey": crop, "YieldValue": y} for y in (8.0, 7.0, 6.0)])
        writer.flush()
        out = tmp_path / "out"
        assert main(["analyze", "groups", "--store", str(store_dir), "--out", str(out)]) == 2
        assert "no group statistics" in capsys.readouterr().err
        assert not out.exists()

    def test_factor_with_no_crop_of_five_records_exit_two_creates_no_out_dir(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        writer = open_store(store_dir, builtin_catalog())
        crop = writer.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass"})
        writer.insert_facts("FieldFact", [{"CropKey": crop, "YieldValue": y} for y in (8.0, 7.0, 6.0)])
        writer.flush()
        out = tmp_path / "out"
        assert main(["analyze", "factor", "--factor", "soil_ph", "--store", str(store_dir), "--out", str(out)]) == 2
        assert "no factor statistics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["groups", "factor", "mine"])
    def test_missing_store_exit_two_creates_nothing(self, tmp_path, capsys, mode):
        store, out = tmp_path / "nostore", tmp_path / "out"
        assert main(["analyze", mode, "--factor", "soil_ph", "--store", str(store), "--out", str(out)]) == 2
        assert f"no store manifest in {store}" in capsys.readouterr().err
        assert not store.exists() and not out.exists()


class TestStoreVerify:
    def _store(self, tmp_path) -> Path:
        crops, facts, crop_map, fact_map = _fixture_sources(tmp_path, ["C1,8.5\n", "C2,9.1\n", "C1,7.75\n"])
        store = tmp_path / "store"
        assert main([
            "ingest", "--store", str(store),
            "--source", crops, "--mapping", crop_map,
            "--source", facts, "--mapping", fact_map,
        ]) == 0
        return store

    def test_intact_store_lists_every_table(self, tmp_path, capsys):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "manifest version 2"
        for name, rows in (("Crop", 2), ("FieldFact", 3)):
            data = (store / name / "data.csv").read_bytes()
            digest = hashlib.blake2b(data, digest_size=8).hexdigest()
            assert f"{name}: {rows} rows, {len(data)} bytes, digest {digest}" in out
        assert out[-1] == "store ok: 2 tables verified"

    def test_tampered_store_exit_two_names_the_table(self, tmp_path, capsys):
        store = self._store(tmp_path)
        data = store / "FieldFact" / "data.csv"
        original = data.read_bytes()
        assert b",8.5" in original
        data.write_bytes(original.replace(b",8.5", b",9.5"))
        manifest_before = (store / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store)]) == 2
        assert "FieldFact" in capsys.readouterr().err
        assert (store / "manifest.json").read_bytes() == manifest_before

    def test_v1_store_verifies_without_upgrade(self, tmp_path, capsys):
        store = self._store(tmp_path)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["version"] = 1
        for name in manifest["tables"]:
            manifest["tables"][name]["digest"] = format(fnv1a64((store / name / "data.csv").read_bytes()), "016x")
        text = json.dumps(manifest)
        (store / "manifest.json").write_text(text)
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store)]) == 2
        assert "unsupported manifest version 1" in capsys.readouterr().err
        assert (store / "manifest.json").read_text() == text

    def test_manifest_entry_not_an_object_exit_two(self, tmp_path, capsys):
        store = self._store(tmp_path)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["tables"]["Crop"] = 5
        (store / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store)]) == 2
        assert "unreadable manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("sks, key, error", [
        ((1, 2), 2, None),
        ((2, 1), 1, "Crop.sk"),
        ((1, 2), 7, "FieldFact.CropKey"),
        ((1, 2), 0, "FieldFact.CropKey"),
    ], ids=["good", "sk out of order", "key past the table", "key zero"])
    def test_keys_joins_rely_on_are_checked(self, tmp_path, capsys, sks, key, error):
        crops = [{"sk": sk, "CropID": f"C{i}", "CropName": "Grass"} for i, sk in enumerate(sks, 1)]
        write_store(tmp_path / "store", builtin_catalog(),
                    {"Crop": crops, "FieldFact": [{"CropKey": key, "YieldValue": 8.0}, {"YieldValue": 9.0}]})
        code = main(["store", "verify", "--store", str(tmp_path / "store")])
        captured = capsys.readouterr()
        if error is None:
            assert code == 0 and captured.out.endswith("store ok: 2 tables verified\n")
        else:
            assert code == 2 and f"error: {error}:" in captured.err

    def test_missing_store_exit_two_creates_nothing(self, tmp_path, capsys):
        assert main(["store", "verify", "--store", str(tmp_path / "none")]) == 2
        assert "no store manifest" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()


class TestSynth:
    def test_determinism_across_runs(self, tmp_path):
        config = _synth_config(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--config", config, "--out", a]) == 0
        assert main(["synth", "--config", config, "--out", b]) == 0
        for name in ("crops.csv", "fields.csv", "soil.csv", "fieldfact.csv", "truth.json"):
            assert (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = _synth_config(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--config", config, "--out", a]) == 0
        assert main(["synth", "--config", config, "--out", b, "--seed", "99"]) == 0
        assert (Path(a) / "fieldfact.csv").read_bytes() != (Path(b) / "fieldfact.csv").read_bytes()

    def test_seed_override_keeps_every_other_field(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--config", _synth_config(tmp_path), "--out", a, "--seed", "99"]) == 0
        assert main(["synth", "--config", _synth_config(tmp_path, seed=99), "--out", b]) == 0
        for name in ("crops.csv", "fields.csv", "soil.csv", "fieldfact.csv", "truth.json"):
            assert (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes()

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        doc = {"seed": 1, "records_per_crop": 10,
               "crops": [{"name": "X", "base_yield": 10.0,
                          "effects": {"soil_ph": {"optimum": 6.0, "weight": -1.0, "scale": 1.0}}}]}
        config = _write(tmp_path / "bad.json", json.dumps(doc))
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc", [
        {"records_per_crop": 10, "missing_rate": [], "crops": [{"name": "X", "base_yield": 10.0}]},
        {"records_per_crop": 10, "crops": [{"name": "X", "base_yield": 10.0, "effects": []}]},
    ], ids=["missing_rate a list", "effects a list"])
    def test_a_list_where_a_mapping_belongs_exit_two(self, tmp_path, capsys, doc):
        config = _write(tmp_path / "bad.json", json.dumps(doc))
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "invalid synth config" in capsys.readouterr().err

    def test_four_records_generates_but_mine_is_insufficient(self, tmp_path):
        config = _synth_config(tmp_path, records=4)
        gen = str(tmp_path / "gen")
        assert main(["synth", "--config", config, "--out", gen]) == 0
        store = str(tmp_path / "store")
        assert main([
            "ingest", "--store", store,
            "--source", f"{gen}/crops.csv", "--mapping", f"{gen}/mappings/crops.mapping.json",
            "--source", f"{gen}/fields.csv", "--mapping", f"{gen}/mappings/fields.mapping.json",
            "--source", f"{gen}/soil.csv", "--mapping", f"{gen}/mappings/soil.mapping.json",
            "--source", f"{gen}/fieldfact.csv", "--mapping", f"{gen}/mappings/fieldfact.mapping.json",
        ]) == 0
        out = str(tmp_path / "out")
        assert main(["analyze", "mine", "--store", store, "--out", out]) == 0
        findings = load_findings(Path(out) / "findings.json")
        assert findings and all(f.verdict == "insufficient-data" for f in findings)


def _forge_first_row(store: Path, table: str, column: str, text: bytes) -> None:
    """Write ``text`` unquoted as one cell of a table's first row and record the matching digest."""
    data = store / table / "data.csv"
    header, first, rest = data.read_bytes().split(b"\n", 2)
    row = first.split(b",")  # the rows forged here hold no quoted cell
    row[header.split(b",").index(column.encode())] = text
    forged = b"\n".join([header, b",".join(row), rest])
    data.write_bytes(forged)
    manifest = json.loads((store / "manifest.json").read_text())
    manifest["tables"][table]["digest"] = hashlib.blake2b(forged, digest_size=8).hexdigest()
    (store / "manifest.json").write_text(json.dumps(manifest))


class TestStoreVerifyDecodesEveryCell:
    def test_bad_cell_in_a_column_analyze_never_reads_fails_only_verify(self, tmp_path, capsys):
        store = _loaded_store(tmp_path)
        assert main(["analyze", "mine", "--store", store, "--out", str(tmp_path / "before")]) == 0
        _forge_first_row(Path(store), "Soil", "Calcium", b"x3.5")
        assert main(["analyze", "mine", "--store", store, "--out", str(tmp_path / "after")]) == 0
        for name in ("findings.json", "findings.md"):
            assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()
        capsys.readouterr()
        assert main(["store", "verify", "--store", store]) == 2
        assert "Soil" in capsys.readouterr().err

    def test_record_of_the_wrong_width_exit_two_names_the_table(self, tmp_path, capsys):
        store = _loaded_store(tmp_path)
        _forge_first_row(Path(store), "Soil", "Unit", b"mg/l,extra,cells")
        capsys.readouterr()
        assert main(["store", "verify", "--store", store]) == 2
        err = capsys.readouterr().err
        assert "Soil" in err and "expected 20" in err

    def test_undecodable_cell_under_a_matching_digest_exit_two_names_the_table(self, tmp_path, capsys):
        store = tmp_path / "store"
        writer = open_store(store, builtin_catalog())
        writer.upsert_dimension("Soil", {"SoilID": "S1", "PH": 6.5})
        writer.flush()
        data = store / "Soil" / "data.csv"
        forged = data.read_bytes().replace(b",6.5,", b",x6.5,")
        data.write_bytes(forged)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["tables"]["Soil"]["digest"] = hashlib.blake2b(forged, digest_size=8).hexdigest()
        (store / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store)]) == 2
        assert "Soil" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    src = str(Path(agridw.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import agridw.cli, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
