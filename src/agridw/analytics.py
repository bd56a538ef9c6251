"""Per-crop quintile yield grouping and optimal factor-quantity mining.

Records are ranked by yield within each crop and split into five groups of
(near-)equal size, group 1 highest. A factor is reported with an optimal
quantity when its group means separate under the configured significance
rule; the optimum is the group-1 mean at factor-specific precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, inf, isfinite, sqrt
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .etl import builtin_crop_synonyms, normalize_synonym
from .store import Snapshot

FACTORS = ("soil_ph", "soil_p", "soil_k", "soil_mg", "herbicide", "insecticide")

FACTOR_UNITS = {
    "soil_ph": "pH",
    "soil_p": "mg/l",
    "soil_k": "mg/l",
    "soil_mg": "mg/l",
    "herbicide": "kg/ha",
    "insecticide": "g/ha",
}

# Reporting precision per unit: decimal digits for the optimal value.
_UNIT_DIGITS = {"pH": 1, "mg/l": 0, "kg/ha": 1, "g/ha": 0}

# factor name -> attribute of the Soil dimension it is read from
_SOIL_ATTRS = {
    "soil_ph": "PH",
    "soil_p": "Phosphorus",
    "soil_k": "Potassium",
    "soil_mg": "Magnesium",
}

GROUPS = (1, 2, 3, 4, 5)
MIN_RECORDS_PER_CROP = 5

RULE_RELATIVE_GAP = "relative-gap"
RULE_WELCH_T = "welch-t"

VERDICT_OPTIMAL = "optimal"
VERDICT_NOT_DISCRIMINATIVE = "not-discriminative"
VERDICT_INSUFFICIENT = "insufficient-data"

DISCRIMINATIVE = "discriminative"
NOT_DISCRIMINATIVE = "not"
INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class YieldRecord:
    """Analysis-ready row: one field-season outcome for one crop."""

    record_id: int
    crop: str
    yield_value: float
    field_id: str | None = None
    year: int | None = None
    season: str | None = None
    factors: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class GroupAssignment:
    """Quintile labels for one crop, over (yield desc, record id asc) order."""

    crop: str
    record_ids: tuple[int, ...]  # in sorted order
    labels: tuple[int, ...]  # parallel to record_ids, values 1..5

    def label_of(self) -> dict[int, int]:
        return dict(zip(self.record_ids, self.labels))

    def group_sizes(self) -> tuple[int, ...]:
        sizes = [0] * 5
        for g in self.labels:
            sizes[g - 1] += 1
        return tuple(sizes)


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

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SignificanceRule":
        return cls(
            kind=doc.get("kind", RULE_RELATIVE_GAP),
            threshold=doc.get("threshold", 0.10),
            alpha=doc.get("alpha", 0.05),
            min_count=doc.get("min_count", 5),
        )


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

def _dimension_row(snapshot: Snapshot, dim: str, sk) -> Mapping | None:
    if sk is None:
        return None
    rows = snapshot.rows(dim)
    if 1 <= sk <= len(rows):
        return rows[sk - 1]  # surrogate keys are dense 1..N in insertion order
    return None


def extract_yield_records(snapshot: Snapshot, synonyms: Mapping[str, str] | None = None) -> list[YieldRecord]:
    """One record per FieldFact row with a yield and a resolvable crop.

    Soil factors come from the joined Soil dimension, spray quantities from
    the fact's own measures; anything unjoined or unset stays absent. Crop
    names are harmonized through the builtin synonym table when possible.
    """
    table = synonyms if synonyms is not None else builtin_crop_synonyms()
    records: list[YieldRecord] = []
    for ordinal, fact in enumerate(snapshot.rows("FieldFact"), start=1):
        yield_value = fact.get("YieldValue")
        if yield_value is None:
            continue
        crop_row = _dimension_row(snapshot, "Crop", fact.get("CropKey"))
        if crop_row is None:
            continue
        raw_name = str(crop_row.get("CropName"))
        crop = normalize_synonym(raw_name, table) or raw_name

        field_row = _dimension_row(snapshot, "Field", fact.get("FieldKey"))
        field_id = str(field_row["FieldID"]) if field_row and "FieldID" in field_row else None

        year = season = None
        optime = _dimension_row(snapshot, "OperationTime", fact.get("OperationTimeKey"))
        if optime is not None:
            start = optime.get("StartDate")
            if isinstance(start, str) and len(start) >= 4 and start[:4].isdigit():
                year = int(start[:4])
            season = optime.get("Season")

        factors: dict[str, float] = {}
        soil = _dimension_row(snapshot, "Soil", fact.get("SoilKey"))
        if soil is not None:
            for factor, attr in _SOIL_ATTRS.items():
                value = soil.get(attr)
                if value is not None:
                    factors[factor] = value
        if fact.get("HerbicideQty") is not None:
            factors["herbicide"] = fact["HerbicideQty"]
        if fact.get("InsecticideQty") is not None:
            factors["insecticide"] = fact["InsecticideQty"]

        records.append(
            YieldRecord(
                record_id=ordinal,
                crop=crop,
                yield_value=yield_value,
                field_id=field_id,
                year=year,
                season=season,
                factors=factors,
            )
        )
    return records


# --- grouping ----------------------------------------------------------------

def quintile_label(position: int, n: int) -> int:
    """Group label for 0-based sorted ``position`` of ``n`` records.

    Record i belongs to the unique g with floor((g-1)*n/5) <= i < floor(g*n/5),
    which keeps group sizes within one of each other for every n.
    """
    for g in GROUPS:
        if position < (g * n) // 5:
            return g
    raise ValueError(f"position {position} out of range for n={n}")


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
    out: dict[str, GroupAssignment] = {}
    for crop in sorted(by_crop):
        group = by_crop[crop]
        if len(group) < MIN_RECORDS_PER_CROP:
            continue
        ordered = sorted(group, key=lambda r: (-r.yield_value, r.record_id))
        n = len(ordered)
        out[crop] = GroupAssignment(
            crop=crop,
            record_ids=tuple(r.record_id for r in ordered),
            labels=tuple(quintile_label(i, n) for i in range(n)),
        )
    return out


def _mean(values: Sequence[float]) -> float:
    return fsum(values) / len(values)


def pct_vs_median_group(mean_g: float, mean_3: float) -> float:
    return 100.0 * (mean_g / mean_3 - 1.0)


def yield_group_stats(assignment: GroupAssignment, records: Iterable[YieldRecord]) -> GroupYieldStats:
    """Mean yield per group and percent versus the median group (group 3)."""
    yields = {r.record_id: r.yield_value for r in records}
    per_group: list[list[float]] = [[] for _ in GROUPS]
    for record_id, label in zip(assignment.record_ids, assignment.labels):
        per_group[label - 1].append(yields[record_id])
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


def factor_group_means(
    assignment: GroupAssignment, records: Iterable[YieldRecord], factor: str
) -> FactorGroupStats:
    """Per-group mean/sd/count of one factor, skipping records where it is absent.

    A value that is not finite raises ConfigError naming the record, and values
    too large to average or spread raise ConfigError naming the crop.
    """
    if factor not in FACTORS:
        raise ConfigError(f"unknown factor {factor!r}; expected one of {', '.join(FACTORS)}")
    values = {r.record_id: r.factors.get(factor) for r in records}
    per_group: list[list[float]] = [[] for _ in GROUPS]
    for record_id, label in zip(assignment.record_ids, assignment.labels):
        value = values.get(record_id)
        if value is not None:
            if not isfinite(value):
                raise ConfigError(f"record {record_id}: factor {factor} value {value!r} is not a finite number")
            per_group[label - 1].append(value)
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
    """(verdict, statistic): verdict is discriminative / not / insufficient.

    The statistic is the relative gap for the gap rule, or Welch's t for the
    t rule; None when the data is insufficient to evaluate the rule.
    """
    n1, n5 = stats.counts[0], stats.counts[4]
    if n1 < rule.min_count or n5 < rule.min_count:
        return INSUFFICIENT, None
    m1, m5 = stats.means[0], stats.means[4]
    assert m1 is not None and m5 is not None
    if rule.kind == RULE_RELATIVE_GAP:
        gap = abs(m1 - m5) / max(abs(m1), 1e-9)
        return (DISCRIMINATIVE if gap >= rule.threshold else NOT_DISCRIMINATIVE), gap
    if n1 < 2 or n5 < 2:  # Welch needs a variance estimate per side
        return INSUFFICIENT, None
    sd1 = stats.sds[0] if stats.sds[0] is not None else 0.0
    sd5 = stats.sds[4] if stats.sds[4] is not None else 0.0
    t_stat, _, p = welch_t_from_summary(n1, m1, sd1, n5, m5, sd5)
    return (DISCRIMINATIVE if p < rule.alpha else NOT_DISCRIMINATIVE), t_stat


def round_optimal_value(factor: str, mean: float) -> float:
    digits = _UNIT_DIGITS[FACTOR_UNITS[factor]]
    rounded = round(mean, digits)
    return float(rounded) if digits else float(int(rounded))


# --- mining --------------------------------------------------------------------

def _finding(crop: str, factor: str, verdict: str, value, stats: FactorGroupStats | None,
             rule: SignificanceRule, statistic: float | None) -> OptimalFinding:
    if stats is None:
        evidence = Evidence(group_means=(None,) * 5, group_counts=(0,) * 5, rule=rule.as_dict(), statistic=None)
    else:
        evidence = Evidence(
            group_means=stats.means, group_counts=stats.counts, rule=rule.as_dict(), statistic=statistic
        )
    return OptimalFinding(
        crop=crop, factor=factor, verdict=verdict, value=value,
        unit=FACTOR_UNITS[factor], evidence=evidence,
    )


def mine_optima_from_records(
    records: Sequence[YieldRecord], rule: SignificanceRule | None = None
) -> list[OptimalFinding]:
    """One finding per (crop, factor), crops in canonical name order."""
    rule = rule if rule is not None else SignificanceRule()
    assignments = assign_groups(records)
    crops = sorted({r.crop for r in records})
    by_crop: dict[str, list[YieldRecord]] = {}
    for r in records:
        by_crop.setdefault(r.crop, []).append(r)

    findings: list[OptimalFinding] = []
    for crop in crops:
        assignment = assignments.get(crop)
        for factor in FACTORS:
            if assignment is None:
                findings.append(_finding(crop, factor, VERDICT_INSUFFICIENT, None, None, rule, None))
                continue
            stats = factor_group_means(assignment, by_crop[crop], factor)
            verdict, statistic = is_discriminative(stats, rule)
            if verdict == DISCRIMINATIVE:
                value = round_optimal_value(factor, stats.means[0])  # type: ignore[arg-type]
                findings.append(_finding(crop, factor, VERDICT_OPTIMAL, value, stats, rule, statistic))
            elif verdict == NOT_DISCRIMINATIVE:
                findings.append(_finding(crop, factor, VERDICT_NOT_DISCRIMINATIVE, None, stats, rule, statistic))
            else:
                findings.append(_finding(crop, factor, VERDICT_INSUFFICIENT, None, stats, rule, statistic))
    return findings


def mine_optima(snapshot: Snapshot, rule: SignificanceRule | None = None) -> list[OptimalFinding]:
    """Mine an optimal quantity per (crop, factor) from a loaded snapshot."""
    return mine_optima_from_records(extract_yield_records(snapshot), rule)
