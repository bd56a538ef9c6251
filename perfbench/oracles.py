"""Output checks whose expected values come from the synthetic generator.

Nothing here calls agridw's store, ETL or analytics code. Expected values
are computed from ``agridw.synth`` records (the planted ground truth) and
from the documented semantics: quintile cut points at ``floor(g*n/5)`` over
(yield descending, record id ascending), the relative-gap and Welch rules,
numbers stored with at most 6 fractional digits, and inner star joins.
"""

from __future__ import annotations

import csv
import json
from math import fsum, isclose, sqrt
from pathlib import Path

from scipy import stats as _scipy_stats

FACTORS = ("soil_ph", "soil_p", "soil_k", "soil_mg", "herbicide", "insecticide")
# Fractional digits of a reported optimum, by factor (from the factor units).
OPTIMUM_DIGITS = {"soil_ph": 1, "soil_p": 0, "soil_k": 0, "soil_mg": 0, "herbicide": 1, "insecticide": 0}


def stored(value: float) -> float:
    """The number the store keeps: decimal text with at most 6 fractional digits."""
    return float(f"{value:.6f}")


# --- store files -----------------------------------------------------------------

def data_rows(store: Path, table: str) -> int:
    """Data rows of one table, counted from its data.csv (header excluded)."""
    path = store / table / "data.csv"
    if not path.exists():
        return 0
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def ledger_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def manifest_tables(store: Path) -> dict:
    return json.loads((store / "manifest.json").read_text(encoding="utf-8"))["tables"]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def data_bytes(store: Path) -> int:
    return sum(p.stat().st_size for p in store.glob("*/data.csv"))


# --- findings --------------------------------------------------------------------

class FindingsOracle:
    """Expected findings for one synth config and one significance rule.

    Verdicts and group statistics are recomputed from the synth records; for
    every planted (active) factor the reported optimum must also fall within
    the generator's published tolerance of the planted optimum.
    """

    def __init__(self, records, expected, rule: str):
        kind, _, value = rule.partition(":")
        self.kind, self.threshold = kind, float(value)
        self.planted = {(e.crop, e.factor): e for e in expected if e.verdict == "optimal"}
        by_crop: dict[str, list] = {}
        for r in records:
            by_crop.setdefault(r.crop, []).append((stored(r.yield_value), r.record_id, r))
        self.expected = {}
        for crop, rows in by_crop.items():
            rows.sort(key=lambda t: (-t[0], t[1]))
            n = len(rows)
            groups = [rows[(g * n) // 5:((g + 1) * n) // 5] for g in range(5)]
            for factor in FACTORS:
                self.expected[(crop, factor)] = self._evaluate(
                    [[r.factors[factor] for _, _, r in grp] for grp in groups])

    def _evaluate(self, values):
        counts = tuple(len(v) for v in values)
        means = tuple(fsum(v) / len(v) for v in values)
        m1, m5 = means[0], means[4]
        if self.kind == "gap":
            statistic = abs(m1 - m5) / max(abs(m1), 1e-9)
            margin = statistic - self.threshold
        else:
            sd1, sd5 = (sqrt(fsum((x - m) ** 2 for x in v) / (len(v) - 1))
                        for v, m in ((values[0], m1), (values[4], m5)))
            p = _scipy_stats.ttest_ind_from_stats(m1, sd1, counts[0], m5, sd5, counts[4],
                                                  equal_var=False).pvalue
            margin = self.threshold - p
        verdict = "optimal" if margin >= 0 else "not-discriminative"
        return verdict, counts, means, abs(margin) < 1e-9

    def check(self, findings) -> str | None:
        """``findings``: (crop, factor, verdict, value, counts, means) tuples."""
        seen = set()
        for crop, factor, verdict, value, counts, means in findings:
            key = (crop, factor)
            if key not in self.expected or key in seen:
                return f"unexpected finding {key}"
            seen.add(key)
            want_verdict, want_counts, want_means, borderline = self.expected[key]
            if tuple(counts) != want_counts:
                return f"{key}: group counts {counts} != {want_counts}"
            if not all(isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) for a, b in zip(means, want_means)):
                return f"{key}: group means {means} != {want_means}"
            if verdict != want_verdict and not borderline:
                return f"{key}: verdict {verdict} != {want_verdict}"
            if verdict == "optimal":
                if abs(value - want_means[0]) > 0.5 * 10 ** -OPTIMUM_DIGITS[factor] + 1e-9:
                    return f"{key}: optimum {value} is not the rounded group-1 mean {want_means[0]}"
            planted = self.planted.get(key)
            if planted is not None:
                if verdict != "optimal":
                    return f"{key}: planted optimum not found ({verdict})"
                if abs(value - planted.optimum) > planted.tolerance:
                    return f"{key}: optimum {value} outside {planted.optimum}±{planted.tolerance:.3f}"
        if len(seen) != len(self.expected):
            return f"{len(self.expected) - len(seen)} findings missing"
        return None


def findings_from_json(path: Path):
    return [
        (f["crop"], f["factor"], f["verdict"], f["value"],
         f["evidence"]["group_counts"], f["evidence"]["group_means"])
        for f in json.loads(path.read_text(encoding="utf-8"))
    ]


def findings_from_objects(findings):
    return [
        (f.crop, f.factor, f.verdict, f.value, f.evidence.group_counts, f.evidence.group_means)
        for f in findings
    ]


# --- star queries --------------------------------------------------------------

def fact_view(records) -> list[dict]:
    """One joined FieldFact row per synth record, keyed like query columns."""
    return [
        {
            "YieldValue": stored(r.yield_value),
            "HerbicideQty": stored(r.factors["herbicide"]),
            "Crop.CropName": r.crop,
            "Soil.PH": stored(r.factors["soil_ph"]),
            "Field.FieldID": f"F{r.record_id:07d}",
        }
        for r in records
    ]


def star_result(view: list[dict], spec) -> list[tuple]:
    """Plain dict evaluation of a query over the joined view.

    Every synth fact carries every key, so the inner joins keep all rows and
    only the filters remove them.
    """
    rows = view
    for join in spec.joins:
        for flt in join.filters:
            column = f"{join.dimension}.{flt.attribute}"
            if hasattr(flt, "value"):
                rows = [r for r in rows if r[column] == flt.value]
            else:
                rows = [r for r in rows
                        if (flt.lo is None or r[column] >= flt.lo) and (flt.hi is None or r[column] <= flt.hi)]
    if not spec.aggregates:
        return [tuple(r[c] for c in spec.project) for r in rows]
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault(tuple(r[c] for c in spec.group_by), []).append(r)
    out = []
    for key, members in groups.items():
        cells = list(key)
        for agg in spec.aggregates:
            values = [m[agg.attribute] for m in members]
            cells.append({
                "count": len,
                "mean": lambda v: fsum(v) / len(v),
                "min": min,
                "max": max,
            }[agg.op](values))
        out.append(tuple(cells))
    return out


def same_rows(got: list[tuple], want: list[tuple]) -> bool:
    """Multiset equality; floats compared to 1e-9 relative."""
    if len(got) != len(want):
        return False

    def key(row):
        return tuple((isinstance(v, str), str(v) if isinstance(v, str) else v) for v in row)

    for a, b in zip(sorted(got, key=key), sorted(want, key=key)):
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if not isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True
