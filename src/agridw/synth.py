"""Deterministic synthetic source generator with planted factor optima.

Per record, each factor is sampled uniformly within its bounds; yield is the
crop's base scaled down by a clipped quadratic penalty per active factor,
plus Gaussian noise, clamped positive:

    yield = base * (1 - sum_f w_f * min(1, ((x_f - opt_f) / s_f)^2)) + eps

Generation is a pure function of the seed: each crop draws from its own
Mersenne Twister substream seeded by FNV-1a64("<seed>:<crop name>"), so
per-crop output is independent of crop order and identical on every platform.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .etl import FORMAT_DELIMITED, MappingSpec, SourceDescriptor, convert_unit, load_mapping
from .util import atomic_write_text, canonical_json, csv_field, fnv1a64, format_decimal

FACTOR_BOUNDS: dict[str, tuple[float, float]] = {
    "soil_ph": (4.5, 8.5),
    "soil_p": (0.0, 60.0),
    "soil_k": (0.0, 300.0),
    "soil_mg": (0.0, 120.0),
    "herbicide": (0.0, 50.0),
    "insecticide": (0.0, 1000.0),
}

_FACTOR_ORDER = tuple(FACTOR_BOUNDS)

YIELD_FLOOR = 0.001  # ton/ha; yields are clamped strictly positive

RNG_ALGORITHM = "mersenne-twister (CPython random), per-crop substream seed = fnv1a64('<seed>:<crop name>')"


@dataclass(frozen=True)
class FactorEffect:
    optimum: float
    weight: float
    scale: float

    def __post_init__(self):
        if self.weight < 0:
            raise ConfigError("effect weight must be >= 0")
        if self.scale <= 0:
            raise ConfigError("effect scale must be > 0")


@dataclass(frozen=True)
class CropSpec:
    name: str
    base_yield: float
    effects: Mapping[str, FactorEffect] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ConfigError("crop name must be non-empty")
        if self.base_yield <= 0:
            raise ConfigError(f"crop {self.name!r}: base yield must be > 0")
        for factor in self.effects:
            if factor not in FACTOR_BOUNDS:
                raise ConfigError(f"crop {self.name!r}: unknown factor {factor!r}")


@dataclass(frozen=True)
class SynthConfig:
    crops: tuple[CropSpec, ...]
    records_per_crop: int
    noise_sd: float = 0.0
    missing_rate: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not self.crops:
            raise ConfigError("config needs at least one crop")
        names = [c.name for c in self.crops]
        if len(set(names)) != len(names):
            raise ConfigError("crop names must be unique")
        if self.records_per_crop < 1:
            raise ConfigError("records per crop must be >= 1")
        if self.noise_sd < 0:
            raise ConfigError("noise sd must be >= 0")
        for factor, rate in self.missing_rate.items():
            if factor not in FACTOR_BOUNDS:
                raise ConfigError(f"missing_rate: unknown factor {factor!r}")
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"missing_rate[{factor!r}] must be in [0, 1)")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SynthConfig":
        try:
            crops = tuple(
                CropSpec(
                    name=c["name"],
                    base_yield=float(c["base_yield"]),
                    effects={
                        f: FactorEffect(
                            optimum=float(e["optimum"]),
                            weight=float(e["weight"]),
                            scale=float(e["scale"]),
                        )
                        for f, e in c.get("effects", {}).items()
                    },
                )
                for c in doc["crops"]
            )
            return cls(
                crops=crops,
                records_per_crop=int(doc["records_per_crop"]),
                noise_sd=float(doc.get("noise_sd", 0.0)),
                missing_rate={k: float(v) for k, v in doc.get("missing_rate", {}).items()},
                seed=int(doc.get("seed", 0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: a list where a mapping belongs
            raise ConfigError(f"invalid synth config: {exc!r}") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SynthConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config: {exc.msg} (line {exc.lineno})") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class GroundTruthEntry:
    crop: str
    factor: str
    optimum: float
    weight: float
    scale: float

    @property
    def active(self) -> bool:
        return self.weight > 0


@dataclass(frozen=True)
class GroundTruth:
    entries: tuple[GroundTruthEntry, ...]

    def entry(self, crop: str, factor: str) -> GroundTruthEntry | None:
        for e in self.entries:
            if e.crop == crop and e.factor == factor:
                return e
        return None

    def to_payload(self) -> list[dict]:
        return [
            {
                "crop": e.crop,
                "factor": e.factor,
                "optimum": e.optimum,
                "weight": e.weight,
                "scale": e.scale,
                "active": e.active,
            }
            for e in self.entries
        ]


@dataclass(frozen=True)
class ExpectedFinding:
    crop: str
    factor: str
    verdict: str  # "optimal" | "not-discriminative" | "insufficient-data"
    optimum: float | None = None
    tolerance: float | None = None


@dataclass(frozen=True)
class SynthRecord:
    """One generated record before file rendering; factor values pre-quantized."""

    record_id: int
    crop: str
    yield_value: float
    factors: Mapping[str, float]  # full values; missingness tracked separately
    missing: frozenset[str]


def _crop_rng(seed: int, crop_name: str) -> random.Random:
    return random.Random(fnv1a64(f"{seed}:{crop_name}".encode("utf-8")))


def yield_for(crop: CropSpec, factor_values: Mapping[str, float], noise: float = 0.0) -> float:
    """The planted model's yield for given factor values plus a noise term."""
    penalty = 0.0
    for factor, effect in crop.effects.items():
        rel = (factor_values[factor] - effect.optimum) / effect.scale
        penalty += effect.weight * min(1.0, rel * rel)
    return max(crop.base_yield * (1.0 - penalty) + noise, YIELD_FLOOR)


def generate_records(config: SynthConfig) -> list[SynthRecord]:
    """All records in crop order; deterministic in (config, seed)."""
    records: list[SynthRecord] = []
    rid = 0
    for crop in config.crops:
        rng = _crop_rng(config.seed, crop.name)
        for _ in range(config.records_per_crop):
            rid += 1
            values: dict[str, float] = {}
            missing: set[str] = set()
            for factor in _FACTOR_ORDER:
                lo, hi = FACTOR_BOUNDS[factor]
                values[factor] = round(rng.uniform(lo, hi), 4)
                if rng.random() < config.missing_rate.get(factor, 0.0):
                    missing.add(factor)
            noise = rng.gauss(0.0, config.noise_sd)
            records.append(
                SynthRecord(
                    record_id=rid,
                    crop=crop.name,
                    yield_value=yield_for(crop, values, noise),
                    factors=values,
                    missing=frozenset(missing),
                )
            )
    return records


def ground_truth(config: SynthConfig) -> GroundTruth:
    entries = []
    for crop in config.crops:
        for factor in _FACTOR_ORDER:
            effect = crop.effects.get(factor)
            if effect is None:
                entries.append(GroundTruthEntry(crop=crop.name, factor=factor, optimum=0.0, weight=0.0, scale=1.0))
            else:
                entries.append(
                    GroundTruthEntry(
                        crop=crop.name, factor=factor,
                        optimum=effect.optimum, weight=effect.weight, scale=effect.scale,
                    )
                )
    return GroundTruth(entries=tuple(entries))


def expected_findings(truth: GroundTruth, config: SynthConfig) -> list[ExpectedFinding]:
    """Expected verdict per (crop, factor) with the published tolerance bound.

    For an active factor the recovered optimum should fall within
    delta = s/4 + 3*sigma*s/(w*base) of the planted one; inactive factors
    should come back not-discriminative. Crops with fewer than 5 records
    cannot be grouped at all.
    """
    bases = {c.name: c.base_yield for c in config.crops}
    out = []
    for e in truth.entries:
        if config.records_per_crop < 5:
            out.append(ExpectedFinding(crop=e.crop, factor=e.factor, verdict="insufficient-data"))
        elif e.active:
            delta = e.scale / 4.0 + 3.0 * config.noise_sd * e.scale / (e.weight * bases[e.crop])
            out.append(
                ExpectedFinding(
                    crop=e.crop, factor=e.factor, verdict="optimal",
                    optimum=e.optimum, tolerance=delta,
                )
            )
        else:
            out.append(ExpectedFinding(crop=e.crop, factor=e.factor, verdict="not-discriminative"))
    return out


# --- file emission -------------------------------------------------------------

_MAPPING_DOCS: dict[str, dict] = {
    "crops": {
        "target_table": "Crop",
        "bindings": [
            {"source": "crop_id", "target": "CropID", "transforms": [{"op": "rename"}]},
            {"source": "crop_name", "target": "CropName", "transforms": [{"op": "synonym", "table": "crop-names"}]},
        ],
    },
    "fields": {
        "target_table": "Field",
        "bindings": [
            {"source": "field_id", "target": "FieldID", "transforms": [{"op": "rename"}]},
            {"source": "field_name", "target": "FieldName", "transforms": [{"op": "rename"}]},
        ],
    },
    "soil": {
        "target_table": "Soil",
        "bindings": [
            {"source": "soil_id", "target": "SoilID", "transforms": [{"op": "rename"}]},
            {"source": "ph", "target": "PH", "transforms": [{"op": "parse-number"}]},
            {"source": "p", "target": "Phosphorus", "transforms": [{"op": "parse-number"}]},
            {"source": "k", "target": "Potassium", "transforms": [{"op": "parse-number"}]},
            {"source": "mg", "target": "Magnesium", "transforms": [{"op": "parse-number"}]},
        ],
    },
    "fieldfact": {
        "target_table": "FieldFact",
        "bindings": [
            {"source": "field_id", "target": "FieldKey", "transforms": [{"op": "rename"}]},
            {"source": "crop_id", "target": "CropKey", "transforms": [{"op": "rename"}]},
            {"source": "soil_id", "target": "SoilKey", "transforms": [{"op": "rename"}]},
            {"source": "yield_t", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
            {
                "source": "herb_g",
                "target": "HerbicideQty",
                "transforms": [{"op": "parse-number"}, {"op": "unit-convert", "from": "g/ha", "to": "kg/ha"}],
            },
            {"source": "insect_g", "target": "InsecticideQty", "transforms": [{"op": "parse-number"}]},
        ],
    },
}


@dataclass(frozen=True)
class GenerateResult:
    out_dir: Path
    sources: Mapping[str, Path]  # logical name -> csv path
    mappings: Mapping[str, Path]  # logical name -> mapping json path
    truth_path: Path
    manifest_path: Path
    truth: GroundTruth


def generate(config: SynthConfig, out_dir: str | Path) -> GenerateResult:
    """Write source CSVs, ready-made mapping specs, truth.json and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = generate_records(config)

    crops_csv = io.StringIO()
    crops_csv.write("crop_id,crop_name\n")
    crop_ids = {}
    for i, crop in enumerate(config.crops, start=1):
        crop_ids[crop.name] = f"C{i:03d}"
        crops_csv.write(f"C{i:03d},{csv_field(crop.name)}\n")  # the only free text synth writes

    fields_csv = io.StringIO()
    fields_csv.write("field_id,field_name\n")
    soil_csv = io.StringIO()
    soil_csv.write("soil_id,ph,p,k,mg\n")
    fact_csv = io.StringIO()
    fact_csv.write("field_id,crop_id,soil_id,yield_t,herb_g,insect_g\n")

    for r in records:
        fid = f"F{r.record_id:07d}"
        sid = f"S{r.record_id:07d}"
        fields_csv.write(f"{fid},{fid}\n")

        def cell(factor: str, text: str) -> str:
            return "" if factor in r.missing else text

        soil_csv.write(
            ",".join(
                [
                    sid,
                    cell("soil_ph", format_decimal(r.factors["soil_ph"])),
                    cell("soil_p", format_decimal(r.factors["soil_p"])),
                    cell("soil_k", format_decimal(r.factors["soil_k"])),
                    cell("soil_mg", format_decimal(r.factors["soil_mg"])),
                ]
            )
            + "\n"
        )
        fact_csv.write(
            ",".join(
                [
                    fid,
                    crop_ids[r.crop],
                    sid,
                    format_decimal(r.yield_value),
                    cell("herbicide", format_decimal(convert_unit(r.factors["herbicide"], "kg/ha", "g/ha"))),
                    cell("insecticide", format_decimal(r.factors["insecticide"])),
                ]
            )
            + "\n"
        )

    sources = {
        "crops": atomic_write_text(out / "crops.csv", crops_csv.getvalue()),
        "fields": atomic_write_text(out / "fields.csv", fields_csv.getvalue()),
        "soil": atomic_write_text(out / "soil.csv", soil_csv.getvalue()),
        "fieldfact": atomic_write_text(out / "fieldfact.csv", fact_csv.getvalue()),
    }
    mappings = {
        name: atomic_write_text(out / "mappings" / f"{name}.mapping.json", canonical_json(doc))
        for name, doc in _MAPPING_DOCS.items()
    }

    truth = ground_truth(config)
    truth_path = atomic_write_text(out / "truth.json", canonical_json(truth.to_payload()))
    manifest_path = atomic_write_text(
        out / "synth_manifest.json",
        canonical_json(
            {
                "generator": "agridw-synth",
                "rng": RNG_ALGORITHM,
                "seed": config.seed,
                "records_per_crop": config.records_per_crop,
                "noise_sd": config.noise_sd,
                "missing_rate": dict(config.missing_rate),
                "crops": [c.name for c in config.crops],
            }
        ),
    )
    return GenerateResult(
        out_dir=out, sources=sources, mappings=mappings,
        truth_path=truth_path, manifest_path=manifest_path, truth=truth,
    )


def load_truth(path: str | Path) -> GroundTruth:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return GroundTruth(
        entries=tuple(
            GroundTruthEntry(
                crop=e["crop"], factor=e["factor"], optimum=float(e["optimum"]),
                weight=float(e["weight"]), scale=float(e["scale"]),
            )
            for e in doc
        )
    )


def source_mapping_pairs(result: GenerateResult) -> list[tuple[SourceDescriptor, MappingSpec]]:
    """Ready-to-ingest (source, mapping) pairs, dimensions before facts."""
    order = ("crops", "fields", "soil", "fieldfact")
    pairs = []
    for name in order:
        src = SourceDescriptor(path=str(result.sources[name]), format=FORMAT_DELIMITED)
        pairs.append((src, load_mapping(result.mappings[name])))
    return pairs
