"""Per-crop quintile yield grouping and optimal factor-quantity mining.

Records are ranked by yield within each crop and split into five groups of
(near-)equal size, group 1 highest. A factor is reported with an optimal
quantity when its group means separate under the configured significance
rule; the optimum is the group-1 mean at factor-specific precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, inf, isfinite, sqrt
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .etl import builtin_crop_synonyms, normalize_synonym
from .store import Snapshot


class FactorSpec(NamedTuple):
    """Where a factor is read from, its unit, and the precision of its reported optimum."""

    table: str  # "Soil" (joined through the fact's SoilKey) or "FieldFact" (the fact's own measure)
    attribute: str
    unit: str
    digits: int  # decimal digits of the reported optimal value


FACTOR_SPECS = {
    "soil_ph": FactorSpec("Soil", "PH", "pH", 1),
    "soil_p": FactorSpec("Soil", "Phosphorus", "mg/l", 0),
    "soil_k": FactorSpec("Soil", "Potassium", "mg/l", 0),
    "soil_mg": FactorSpec("Soil", "Magnesium", "mg/l", 0),
    "herbicide": FactorSpec("FieldFact", "HerbicideQty", "kg/ha", 1),
    "insecticide": FactorSpec("FieldFact", "InsecticideQty", "g/ha", 0),
}
FACTORS = tuple(FACTOR_SPECS)

GROUPS = (1, 2, 3, 4, 5)
MIN_RECORDS_PER_CROP = 5

RULE_RELATIVE_GAP = "relative-gap"
RULE_WELCH_T = "welch-t"

VERDICT_OPTIMAL = "optimal"
VERDICT_NOT_DISCRIMINATIVE = "not-discriminative"
VERDICT_INSUFFICIENT = "insufficient-data"


@dataclass(frozen=True)
class YieldRecord:
    """Analysis-ready row: one fact's yield and factor values for one crop.

    ``record_id`` is the fact's 1-based position in FieldFact; it breaks
    yield ties in the group order.
    """

    record_id: int
    crop: str
    yield_value: float
    factors: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class GroupAssignment:
    """One crop's records in (yield desc, record id asc) order.

    Group g (1..5) is the slice ``records[(g-1)*n//5 : g*n//5]``, so group
    sizes differ by at most one.
    """

    crop: str
    records: tuple[YieldRecord, ...]

    @property
    def groups(self) -> tuple[tuple[YieldRecord, ...], ...]:
        n = len(self.records)
        return tuple(self.records[(g - 1) * n // 5 : g * n // 5] for g in GROUPS)


@dataclass(frozen=True)
class GroupYieldStats:
    crop: str
    counts: tuple[int, ...]
    means: tuple[float, ...]
    pcts: tuple[float, ...]  # percent vs group 3, unrounded


@dataclass(frozen=True)
class FactorGroupStats:
    crop: str
    factor: str
    counts: tuple[int, ...]
    means: tuple[float | None, ...]
    sds: tuple[float | None, ...]


@dataclass(frozen=True)
class SignificanceRule:
    """Pluggable separation criterion between group 1 and group 5.

    relative-gap: discriminative iff |m1 - m5| / max(|m1|, eps) >= threshold.
    welch-t: discriminative iff the two-sided Welch t-test rejects at alpha.
    Either way the groups must each have at least ``min_count`` factor values.
    """

    kind: str = RULE_RELATIVE_GAP
    threshold: float = 0.10
    alpha: float = 0.05
    min_count: int = 5

    def __post_init__(self):
        if self.kind not in (RULE_RELATIVE_GAP, RULE_WELCH_T):
            raise ConfigError(f"unknown significance rule {self.kind!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("relative-gap threshold must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("significance level must be in (0, 1)")
        if self.min_count < 1:
            raise ConfigError("minimum per-group count must be >= 1")

    def as_dict(self) -> dict:
        if self.kind == RULE_RELATIVE_GAP:
            return {"kind": self.kind, "threshold": self.threshold, "min_count": self.min_count}
        return {"kind": self.kind, "alpha": self.alpha, "min_count": self.min_count}


@dataclass(frozen=True)
class Evidence:
    group_means: tuple[float | None, ...]
    group_counts: tuple[int, ...]
    rule: Mapping
    statistic: float | None


@dataclass(frozen=True)
class OptimalFinding:
    crop: str
    factor: str
    verdict: str
    value: float | None
    unit: str
    evidence: Evidence


# --- extraction -------------------------------------------------------------

def _join(snapshot: Snapshot, dimension: str, keys: Sequence[int | None], names: Sequence[str]) -> list[list]:
    """Columns ``names`` of ``dimension`` aligned with the surrogate ``keys``
    of the fact rows; an absent or unresolved key reads None. Surrogate keys
    are dense 1..N in insertion order, so a key is a position."""
    columns = snapshot.columns(dimension, names)
    n = len(columns[0])
    positions = [sk - 1 if sk is not None and 1 <= sk <= n else n for sk in keys]  # n: the None past the end
    return [list(map((*column, None).__getitem__, positions)) for column in columns]


def extract_yield_records(snapshot: Snapshot) -> list[YieldRecord]:
    """One record per FieldFact row with a yield and a resolvable crop.

    Each factor is read as ``FACTOR_SPECS`` says: from the joined Soil
    dimension or from the fact's own measures; anything unjoined or unset
    stays absent. Crop names are harmonized through the builtin synonym
    table when possible. Only the columns named here are decoded.
    """
    table = builtin_crop_synonyms()
    on_fact = [factor for factor, spec in FACTOR_SPECS.items() if spec.table == "FieldFact"]
    on_soil = [factor for factor, spec in FACTOR_SPECS.items() if spec.table == "Soil"]
    crop_keys, soil_keys, yields, *fact_values = snapshot.columns(
        "FieldFact", ("CropKey", "SoilKey", "YieldValue", *(FACTOR_SPECS[f].attribute for f in on_fact))
    )
    (crop_names,) = _join(snapshot, "Crop", crop_keys, ("CropName",))
    soil_values = _join(snapshot, "Soil", soil_keys, [FACTOR_SPECS[f].attribute for f in on_soil])
    by_factor = dict(zip(on_fact + on_soil, [*fact_values, *soil_values]))
    factors: list[dict[str, float]] = [{} for _ in yields]
    for factor in FACTORS:  # in FACTORS order, so each dict's keys are too
        for values, value in zip(factors, by_factor[factor]):
            if value is not None:
                values[factor] = value
    crops = {name: normalize_synonym(name, table) or name for name in set(crop_names) if name is not None}
    return [
        YieldRecord(ordinal, crops[crop_name], yield_value, values)
        for ordinal, (yield_value, crop_name, values) in enumerate(zip(yields, crop_names, factors), start=1)
        if yield_value is not None and crop_name is not None
    ]


# --- grouping ----------------------------------------------------------------

def assign_groups(records: Iterable[YieldRecord]) -> dict[str, GroupAssignment]:
    """Quintile assignment per crop; crops with fewer than 5 records are skipped.

    Yields must be finite and positive, as ETL requires; any other raises
    ConfigError naming the record.
    """
    by_crop: dict[str, list[YieldRecord]] = {}
    for record in records:
        if not 0.0 < record.yield_value < inf:
            raise ConfigError(
                f"record {record.record_id}: yield {record.yield_value!r} is not a finite positive number"
            )
        by_crop.setdefault(record.crop, []).append(record)
    return {
        crop: GroupAssignment(crop, tuple(sorted(by_crop[crop], key=lambda r: (-r.yield_value, r.record_id))))
        for crop in sorted(by_crop)
        if len(by_crop[crop]) >= MIN_RECORDS_PER_CROP
    }


def _mean(values: Sequence[float]) -> float:
    return fsum(values) / len(values)


def pct_vs_median_group(mean_g: float, mean_3: float) -> float:
    return 100.0 * (mean_g / mean_3 - 1.0)


def yield_group_stats(assignment: GroupAssignment) -> GroupYieldStats:
    """Mean yield per group and percent versus the median group (group 3).

    Every group needs a record, so fewer than 5 records raise ConfigError
    naming the crop.
    """
    per_group = [[r.yield_value for r in group] for group in assignment.groups]
    if not all(per_group):
        raise ConfigError(f"crop {assignment.crop!r}: {len(assignment.records)} records leave a yield group empty")
    try:
        means = tuple(_mean(vals) for vals in per_group)
    except OverflowError:
        raise ConfigError(f"crop {assignment.crop!r}: yields too large to average") from None
    mean_3 = means[2]
    pcts = tuple(0.0 if g == 3 else pct_vs_median_group(means[g - 1], mean_3) for g in GROUPS)
    if not all(isfinite(p) for p in pcts):
        raise ConfigError(f"crop {assignment.crop!r}: group means {means} too far apart for a percentage")
    return GroupYieldStats(
        crop=assignment.crop,
        counts=tuple(len(vals) for vals in per_group),
        means=means,
        pcts=pcts,
    )


def factor_group_means(assignment: GroupAssignment, factor: str) -> FactorGroupStats:
    """Per-group mean/sd/count of one factor, skipping records where it is absent.

    A value that is not finite raises ConfigError naming the record, and values
    too large to average or spread raise ConfigError naming the crop.
    """
    if factor not in FACTOR_SPECS:
        raise ConfigError(f"unknown factor {factor!r}; expected one of {', '.join(FACTORS)}")
    per_group = [[v for r in group if (v := r.factors.get(factor)) is not None] for group in assignment.groups]
    if not all(isfinite(v) for vals in per_group for v in vals):
        record = next(r for r in assignment.records if not isfinite(r.factors.get(factor) or 0.0))
        value = record.factors[factor]
        raise ConfigError(f"record {record.record_id}: factor {factor} value {value!r} is not a finite number")
    means: list[float | None] = []
    sds: list[float | None] = []
    try:
        for vals in per_group:
            if not vals:
                means.append(None)
                sds.append(None)
                continue
            m = _mean(vals)
            means.append(m)
            sds.append(sqrt(_sample_variance(vals, m)) if len(vals) >= 2 else None)
        if inf in sds:
            raise OverflowError
    except OverflowError:
        raise ConfigError(f"crop {assignment.crop!r}: factor {factor} values too large to average") from None
    return FactorGroupStats(
        crop=assignment.crop,
        factor=factor,
        counts=tuple(len(vals) for vals in per_group),
        means=tuple(means),
        sds=tuple(sds),
    )


# --- significance -------------------------------------------------------------

def _sample_variance(values: Sequence[float], mean: float) -> float:
    return fsum((v - mean) ** 2 for v in values) / (len(values) - 1)


def welch_t_from_summary(
    n1: int, mean1: float, sd1: float, n2: int, mean2: float, sd2: float
) -> tuple[float, float, float]:
    """Welch's t statistic, Welch–Satterthwaite df, and two-sided p-value.

    With zero standard error the statistic degenerates: equal means give
    t=0 (p=1), different means give t=±inf (p=0).
    """
    if n1 < 2 or n2 < 2:
        raise ConfigError("Welch's t-test needs at least 2 samples per side")
    v1 = sd1 * sd1 / n1
    v2 = sd2 * sd2 / n2
    pooled = v1 + v2
    if pooled == 0.0:
        if mean1 == mean2:
            return 0.0, float(n1 + n2 - 2), 1.0
        return (inf if mean1 > mean2 else -inf), float(n1 + n2 - 2), 0.0
    t_stat = (mean1 - mean2) / sqrt(pooled)
    df = pooled * pooled / (v1 * v1 / (n1 - 1) + v2 * v2 / (n2 - 1))
    from scipy.stats import t as student_t  # imported here: scipy takes over a second to load

    p = 2.0 * float(student_t.sf(abs(t_stat), df))
    return t_stat, df, p


def is_discriminative(stats: FactorGroupStats, rule: SignificanceRule) -> tuple[str, float | None]:
    """(verdict, statistic): VERDICT_OPTIMAL, VERDICT_NOT_DISCRIMINATIVE or VERDICT_INSUFFICIENT.

    The statistic is the relative gap for the gap rule, or Welch's t for the
    t rule; None when the data is insufficient to evaluate the rule.
    """
    n1, n5 = stats.counts[0], stats.counts[4]
    if n1 < rule.min_count or n5 < rule.min_count:
        return VERDICT_INSUFFICIENT, None
    m1, m5 = stats.means[0], stats.means[4]
    assert m1 is not None and m5 is not None
    if rule.kind == RULE_RELATIVE_GAP:
        gap = abs(m1 - m5) / max(abs(m1), 1e-9)
        return (VERDICT_OPTIMAL if gap >= rule.threshold else VERDICT_NOT_DISCRIMINATIVE), gap
    if n1 < 2 or n5 < 2:  # Welch needs a variance estimate per side
        return VERDICT_INSUFFICIENT, None
    sd1 = stats.sds[0] if stats.sds[0] is not None else 0.0
    sd5 = stats.sds[4] if stats.sds[4] is not None else 0.0
    t_stat, _, p = welch_t_from_summary(n1, m1, sd1, n5, m5, sd5)
    return (VERDICT_OPTIMAL if p < rule.alpha else VERDICT_NOT_DISCRIMINATIVE), t_stat


def round_optimal_value(factor: str, mean: float) -> float:
    digits = FACTOR_SPECS[factor].digits
    rounded = round(mean, digits)
    return float(rounded) if digits else float(int(rounded))


# --- mining --------------------------------------------------------------------

def mine_optima_from_records(
    records: Sequence[YieldRecord], rule: SignificanceRule | None = None
) -> list[OptimalFinding]:
    """One finding per (crop, factor), crops in canonical name order.

    A crop with fewer than 5 records has an empty assignment, so each of its
    factors is insufficient-data with empty evidence.
    """
    rule = rule if rule is not None else SignificanceRule()
    assignments = assign_groups(records)
    findings: list[OptimalFinding] = []
    for crop in sorted({r.crop for r in records}):
        assignment = assignments.get(crop, GroupAssignment(crop, ()))
        for factor, spec in FACTOR_SPECS.items():
            stats = factor_group_means(assignment, factor)
            verdict, statistic = is_discriminative(stats, rule)
            value = None
            if verdict == VERDICT_OPTIMAL:
                value = round_optimal_value(factor, stats.means[0])  # type: ignore[arg-type]
            evidence = Evidence(
                group_means=stats.means, group_counts=stats.counts, rule=rule.as_dict(), statistic=statistic
            )
            findings.append(OptimalFinding(crop, factor, verdict, value, spec.unit, evidence))
    return findings


def mine_optima(snapshot: Snapshot, rule: SignificanceRule | None = None) -> list[OptimalFinding]:
    """Mine an optimal quantity per (crop, factor) from a loaded snapshot."""
    return mine_optima_from_records(extract_yield_records(snapshot), rule)
