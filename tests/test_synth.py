from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from agridw.analytics import SignificanceRule, YieldRecord, mine_optima_from_records
from agridw.errors import ConfigError
from agridw.synth import (
    CropSpec,
    FACTOR_BOUNDS,
    FactorEffect,
    SynthConfig,
    YIELD_FLOOR,
    expected_findings,
    generate,
    generate_records,
    ground_truth,
    load_truth,
    source_mapping_pairs,
    yield_for,
)


def _config(seed=42, n=50, noise=0.0, effects=None, missing=None):
    effects = effects if effects is not None else {"soil_ph": FactorEffect(optimum=6.0, weight=0.5, scale=2.0)}
    return SynthConfig(
        crops=(
            CropSpec("Grass", 10.0, effects),
            CropSpec("Winter Wheat", 10.0),
        ),
        records_per_crop=n,
        noise_sd=noise,
        missing_rate=missing or {},
        seed=seed,
    )


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        generate(_config(), tmp_path / "a")
        generate(_config(), tmp_path / "b")
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate(_config(seed=1), tmp_path / "a")
        generate(_config(seed=2), tmp_path / "b")
        assert _dir_bytes(tmp_path / "a") != _dir_bytes(tmp_path / "b")

    def test_crop_substreams_independent_of_order(self):
        base = _config()
        swapped = SynthConfig(
            crops=tuple(reversed(base.crops)),
            records_per_crop=base.records_per_crop,
            noise_sd=base.noise_sd,
            missing_rate=base.missing_rate,
            seed=base.seed,
        )
        by_crop_a = {}
        for r in generate_records(base):
            by_crop_a.setdefault(r.crop, []).append((r.yield_value, dict(r.factors)))
        by_crop_b = {}
        for r in generate_records(swapped):
            by_crop_b.setdefault(r.crop, []).append((r.yield_value, dict(r.factors)))
        assert by_crop_a == by_crop_b


class TestYieldModel:
    def test_zero_noise_closed_form(self):
        crop = CropSpec("Grass", 10.0, {"soil_ph": FactorEffect(optimum=6.0, weight=0.3, scale=1.0)})
        values = {f: FACTOR_BOUNDS[f][0] for f in FACTOR_BOUNDS}
        values["soil_ph"] = 6.0
        assert yield_for(crop, values) == 10.0  # at the optimum: crop maximum
        values["soil_ph"] = 7.0
        assert yield_for(crop, values) == pytest.approx(10.0 * (1 - 0.3))
        values["soil_ph"] = 8.5  # clipped beyond one scale unit
        assert yield_for(crop, values) == pytest.approx(10.0 * (1 - 0.3))

    def test_record_at_optimum_attains_maximum(self):
        config = _config(noise=0.0)
        records = generate_records(config)
        grass = [r for r in records if r.crop == "Grass"]
        best = max(r.yield_value for r in grass)
        at_opt = yield_for(config.crops[0], {**grass[0].factors, "soil_ph": 6.0})
        assert best <= at_opt == 10.0

    def test_no_effects_all_yields_equal_base(self):
        config = _config(effects={}, noise=0.0)
        records = generate_records(config)
        assert {r.yield_value for r in records} == {10.0}

    def test_clamp_positive(self):
        crop = CropSpec("X", 0.5, {"soil_ph": FactorEffect(optimum=6.0, weight=1.0, scale=0.1)})
        values = {f: FACTOR_BOUNDS[f][0] for f in FACTOR_BOUNDS}
        assert yield_for(crop, values, noise=-5.0) == YIELD_FLOOR

    def test_factor_values_within_bounds(self):
        for r in generate_records(_config(n=200)):
            for factor, value in r.factors.items():
                lo, hi = FACTOR_BOUNDS[factor]
                assert lo <= value <= hi


class TestMissingRate:
    def test_missing_rate_applied(self, tmp_path):
        config = _config(n=400, missing={"soil_p": 0.5})
        records = generate_records(config)
        missing = sum(1 for r in records if "soil_p" in r.missing)
        assert 0.4 <= missing / len(records) <= 0.6
        # missing values are omitted from the emitted soil file
        result = generate(config, tmp_path / "gen")
        soil_lines = (tmp_path / "gen" / "soil.csv").read_text().splitlines()[1:]
        empty_p = sum(1 for line in soil_lines if line.split(",")[2] == "")
        assert empty_p == missing


class TestGroundTruth:
    def test_truth_mirrors_config(self, tmp_path):
        config = _config()
        result = generate(config, tmp_path / "gen")
        truth = load_truth(result.truth_path)
        entry = truth.entry("Grass", "soil_ph")
        assert entry.active and entry.optimum == 6.0 and entry.weight == 0.5
        assert not truth.entry("Winter Wheat", "soil_ph").active
        assert len(truth.entries) == 2 * 6

    def test_expected_findings_verdicts(self):
        config = _config(noise=0.0)
        expected = expected_findings(ground_truth(config), config)
        by_key = {(e.crop, e.factor): e for e in expected}
        active = by_key[("Grass", "soil_ph")]
        assert active.verdict == "optimal"
        assert active.optimum == 6.0
        assert active.tolerance == pytest.approx(2.0 / 4.0)  # s/4 with zero noise
        assert by_key[("Grass", "herbicide")].verdict == "not-discriminative"
        assert by_key[("Winter Wheat", "soil_ph")].verdict == "not-discriminative"

    def test_tolerance_formula_with_noise(self):
        config = _config(noise=0.5)
        expected = expected_findings(ground_truth(config), config)
        active = next(e for e in expected if e.verdict == "optimal")
        # s/4 + 3*sigma*s/(w*base) = 0.5 + 3*0.5*2/(0.5*10)
        assert active.tolerance == pytest.approx(0.5 + 0.6)

    def test_too_few_records_expected_insufficient(self):
        config = _config(n=4)
        expected = expected_findings(ground_truth(config), config)
        assert all(e.verdict == "insufficient-data" for e in expected)


class TestConfigValidation:
    def test_negative_weight(self):
        with pytest.raises(ConfigError):
            FactorEffect(optimum=6.0, weight=-0.1, scale=1.0)

    def test_zero_scale(self):
        with pytest.raises(ConfigError):
            FactorEffect(optimum=6.0, weight=0.1, scale=0.0)

    def test_bad_missing_rate(self):
        with pytest.raises(ConfigError):
            _config(missing={"soil_ph": 1.0})

    def test_unknown_factor(self):
        with pytest.raises(ConfigError):
            CropSpec("X", 10.0, {"soil_zn": FactorEffect(optimum=1.0, weight=0.1, scale=1.0)})

    def test_from_json_file(self, tmp_path):
        doc = {
            "seed": 7,
            "records_per_crop": 10,
            "noise_sd": 0.25,
            "crops": [
                {"name": "Grass", "base_yield": 12.0,
                 "effects": {"soil_k": {"optimum": 100.0, "weight": 0.4, "scale": 80.0}}},
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = SynthConfig.from_json_file(path)
        assert config.seed == 7
        assert config.crops[0].effects["soil_k"].scale == 80.0

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            SynthConfig.from_json_file(path)

    @pytest.mark.parametrize("doc", [
        {"records_per_crop": 10, "missing_rate": [], "crops": [{"name": "Grass", "base_yield": 12.0}]},
        {"records_per_crop": 10, "crops": [{"name": "Grass", "base_yield": 12.0, "effects": []}]},
    ], ids=["missing_rate a list", "effects a list"])
    def test_a_list_where_a_mapping_belongs_is_a_config_error(self, doc):
        with pytest.raises(ConfigError, match="invalid synth config"):
            SynthConfig.from_dict(doc)


class TestNullSafety:
    def test_no_effect_means_no_findings(self):
        # with every weight zero, factor values are independent of yield;
        # a gap threshold >= 0.05 must stay quiet in >= 95% of seeded runs
        clean_runs = 0
        for seed in range(100):
            config = SynthConfig(
                crops=(CropSpec("Grass", 10.0),),
                records_per_crop=8000,
                noise_sd=0.5,
                seed=seed,
            )
            records = [
                YieldRecord(
                    record_id=r.record_id, crop=r.crop, yield_value=r.yield_value,
                    factors=dict(r.factors),
                )
                for r in generate_records(config)
            ]
            findings = mine_optima_from_records(records, SignificanceRule(threshold=0.075))
            if all(f.verdict == "not-discriminative" for f in findings):
                clean_runs += 1
        assert clean_runs >= 95, f"only {clean_runs}/100 null runs stayed quiet"


class TestMonotoneRecovery:
    def test_error_shrinks_with_sample_size(self):
        # zero noise, single off-center factor; mean |recovered - planted|
        # over 10 seeds must be non-increasing as n grows
        planted = 30.0
        sizes = (50, 500, 5000)
        mean_errors = []
        for n in sizes:
            errors = []
            for seed in range(10):
                config = SynthConfig(
                    crops=(CropSpec("Grass", 10.0, {"soil_k": FactorEffect(optimum=planted, weight=0.5, scale=150.0)}),),
                    records_per_crop=n,
                    noise_sd=0.0,
                    seed=seed,
                )
                records = [
                    YieldRecord(
                        record_id=r.record_id, crop=r.crop, yield_value=r.yield_value,
                        factors={k: v for k, v in r.factors.items() if k not in r.missing},
                    )
                    for r in generate_records(config)
                ]
                findings = mine_optima_from_records(records, SignificanceRule(threshold=0.1))
                soil_k = next(f for f in findings if f.factor == "soil_k")
                assert soil_k.evidence.group_means[0] is not None
                errors.append(abs(soil_k.evidence.group_means[0] - planted))
            mean_errors.append(sum(errors) / len(errors))
        assert mean_errors[0] >= mean_errors[1] >= mean_errors[2]


class TestEmittedFiles:
    def test_emits_expected_files(self, tmp_path):
        result = generate(_config(), tmp_path / "gen")
        names = {p.name for p in (tmp_path / "gen").iterdir()}
        assert {"crops.csv", "fields.csv", "soil.csv", "fieldfact.csv", "truth.json",
                "synth_manifest.json", "mappings"} <= names
        assert (tmp_path / "gen" / "mappings" / "fieldfact.mapping.json").exists()

    def test_manifest_names_rng(self, tmp_path):
        result = generate(_config(), tmp_path / "gen")
        manifest = json.loads(result.manifest_path.read_text())
        assert "mersenne-twister" in manifest["rng"]
        assert manifest["seed"] == 42

    def test_source_mapping_pairs_order(self, tmp_path):
        result = generate(_config(), tmp_path / "gen")
        pairs = source_mapping_pairs(result)
        tables = [spec.target_table for _, spec in pairs]
        assert tables == ["Crop", "Field", "Soil", "FieldFact"]

    def test_herbicide_emitted_in_grams(self, tmp_path):
        config = _config(n=5)
        result = generate(config, tmp_path / "gen")
        records = generate_records(config)
        lines = (tmp_path / "gen" / "fieldfact.csv").read_text().splitlines()[1:]
        for record, line in zip(records, lines):
            herb_g = line.split(",")[4]
            if "herbicide" not in record.missing:
                assert float(herb_g) == pytest.approx(record.factors["herbicide"] * 1000.0)

    def test_crop_name_with_delimiter_reads_back(self, tmp_path):
        names = ("Oats, naked", 'Rye "Hybrid"')
        config = SynthConfig(crops=tuple(CropSpec(n, 10.0) for n in names), records_per_crop=3, seed=1)
        generate(config, tmp_path / "gen")
        with open(tmp_path / "gen" / "crops.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["crop_id", "crop_name"], ["C001", names[0]], ["C002", names[1]]]
