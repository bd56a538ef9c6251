from __future__ import annotations

import random
from math import fsum, inf, isfinite, nan, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as student_t

from agridw.analytics import (
    FACTOR_SPECS,
    FACTORS,
    FactorGroupStats,
    GroupAssignment,
    SignificanceRule,
    YieldRecord,
    assign_groups,
    extract_yield_records,
    factor_group_means,
    is_discriminative,
    mine_optima,
    mine_optima_from_records,
    pct_vs_median_group,
    round_optimal_value,
    welch_t_from_summary,
    yield_group_stats,
)
from agridw.catalog import builtin_catalog
from agridw.errors import ConfigError
from agridw.etl import builtin_crop_synonyms, normalize_synonym
from agridw.store import open_store

from helpers import GROUP_TABLE_ROWS, column_reads, csv_view, every_column, write_store

CATALOG = builtin_catalog()


def _records(yields, crop="Grass", ids=None, factors=None):
    ids = ids if ids is not None else range(1, len(yields) + 1)
    factors = factors if factors is not None else [{}] * len(yields)
    return [
        YieldRecord(record_id=i, crop=crop, yield_value=y, factors=f)
        for i, y, f in zip(ids, yields, factors)
    ]


# --- grouping -----------------------------------------------------------------

def quintile_label(position: int, n: int) -> int:
    """Group label for 0-based sorted ``position`` of ``n`` records.

    Record i belongs to the unique g with floor((g-1)*n/5) <= i < floor(g*n/5),
    which keeps group sizes within one of each other for every n.
    """
    for g in range(1, 6):
        if position < (g * n) // 5:
            return g
    raise ValueError(f"position {position} out of range for n={n}")


def _ids(groups):
    return [[r.record_id for r in group] for group in groups]


class TestAssignGroups:
    def test_five_records_one_per_group(self):
        assignment = assign_groups(_records([10, 8, 6, 4, 2]))["Grass"]
        assert _ids(assignment.groups) == [[1], [2], [3], [4], [5]]  # yield 10 -> top group

    def test_seven_records_sizes(self):
        assignment = assign_groups(_records([7, 6, 5, 4, 3, 2, 1]))["Grass"]
        assert _ids(assignment.groups) == [[1], [2], [3, 4], [5], [6, 7]]

    def test_equal_yields_tie_break_by_id(self):
        assignment = assign_groups(_records([5.0] * 5))["Grass"]
        assert _ids(assignment.groups) == [[1], [2], [3], [4], [5]]

    def test_small_crop_skipped(self):
        assignments = assign_groups(_records([1, 2, 3, 4]))
        assert assignments == {}

    def test_boundary_formula(self):
        for n in (5, 6, 7, 9, 10, 11, 23, 100, 101):
            labels = [quintile_label(i, n) for i in range(n)]
            sizes = [labels.count(g) for g in range(1, 6)]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            assert labels == sorted(labels)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=500).map(lambda v: v / 10.0),
            min_size=5,
            max_size=120,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_partition_and_order_properties(self, yields):
        records = _records(yields)
        ids = _ids(assign_groups(records)["Grass"].groups)
        n = len(yields)
        sizes = tuple(map(len, ids))
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sorted(i for group in ids for i in group) == sorted(r.record_id for r in records)
        # the groups are the partition quintile_label describes over the (yield desc, id asc) rank
        group_of = {i: g for g, group in enumerate(ids, start=1) for i in group}
        ranked = sorted(records, key=lambda r: (-r.yield_value, r.record_id))
        labels = [group_of[r.record_id] for r in ranked]
        assert labels == [quintile_label(i, n) for i in range(n)]
        assert labels == sorted(labels)
        by_id = {r.record_id: r.yield_value for r in records}
        for upper, lower in zip(ids, ids[1:]):
            if upper and lower:
                assert max(by_id[i] for i in lower) <= min(by_id[i] for i in upper)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=2000).map(lambda v: v / 100.0),
            min_size=5,
            max_size=80,
        ),
        st.sampled_from([0.5, 3.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_scale_invariance(self, yields, c):
        base = assign_groups(_records(yields))["Grass"]
        scaled = assign_groups(_records([y * c for y in yields]))["Grass"]
        assert _ids(base.groups) == _ids(scaled.groups)
        stats_base = yield_group_stats(base)
        stats_scaled = yield_group_stats(scaled)
        for p1, p2 in zip(stats_base.pcts, stats_scaled.pcts):
            assert abs(p1 - p2) <= 1e-9



class TestRejectsUngroupableYields:
    def test_zero_yields_rejected_naming_the_record(self):
        records = _records([5.0, 4.0, 3.0] + [0.0] * 7, crop="Maize")
        for entry_point in (assign_groups, mine_optima_from_records):
            with pytest.raises(ConfigError, match="record 4"):
                entry_point(records)

    @pytest.mark.parametrize("bad", [nan, inf, -inf, 0.0, -0.0, -1.5])
    def test_non_finite_or_non_positive_yield_rejected(self, bad):
        records = _records([9.0, 8.0, 7.0, bad, 6.0, 5.0])
        for entry_point in (assign_groups, mine_optima_from_records):
            with pytest.raises(ConfigError, match="record 4"):
                entry_point(records)

    @pytest.mark.parametrize("top", [1e308, 100.0])  # a mean that overflows; a ratio that does
    def test_means_beyond_float_range_rejected(self, top):
        records = _records([top] * 4 + [5e-324] * 6)
        with pytest.raises(ConfigError, match="Grass"):
            yield_group_stats(assign_groups(records)["Grass"])

    @given(st.lists(st.floats(), min_size=5, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_rejects_or_returns_finite_percentages(self, yields):
        records = _records(yields)
        try:
            stats = [yield_group_stats(a) for a in assign_groups(records).values()]
        except ConfigError:
            usable = all(0.0 < y < 1e300 for y in yields) and max(yields) / min(yields) < 1e300
            assert not usable, "rejected yields that group to finite percentages"
            return
        assert all(isfinite(p) for s in stats for p in s.pcts)


class TestRejectsNonFiniteFactors:
    @pytest.mark.parametrize("bad", [nan, inf, -inf])
    def test_non_finite_factor_value_rejected_naming_record_and_factor(self, bad):
        factors = [{"soil_ph": bad if i % 2 else 6.0 + i / 100} for i in range(40)]
        records = _records([float(40 - i) for i in range(40)], factors=factors)
        with pytest.raises(ConfigError, match="record 2: factor soil_ph"):
            factor_group_means(assign_groups(records)["Grass"], "soil_ph")
        with pytest.raises(ConfigError, match="record 2: factor soil_ph"):
            mine_optima_from_records(records)

    @given(st.lists(st.one_of(st.none(), st.floats()), min_size=5, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_rejects_or_returns_finite_factor_means(self, values):
        records = _records(
            [float(len(values) - i) for i in range(len(values))],
            factors=[{} if v is None else {"herbicide": v} for v in values],
        )
        assignment = assign_groups(records)["Grass"]
        try:
            stats = factor_group_means(assignment, "herbicide")
        except ConfigError:
            present = [v for v in values if v is not None]
            usable = all(abs(v) < 1e150 for v in present)  # NaN fails too
            assert not usable, "rejected factor values whose means and sds fit in a float"
            return
        assert all(isfinite(x) for x in stats.means + stats.sds if x is not None)
        mine_optima_from_records(records)


# --- group yield stats ----------------------------------------------------------

class TestYieldGroupStats:
    def test_reference_percentages(self):
        # 25 records -> 5 per group with means matching the reference spring
        # barley rows: group means 8.93, 7.32, 6.52, 5.81, 4.26
        means = (8.93, 7.32, 6.52, 5.81, 4.26)
        yields = []
        for m in means:
            yields.extend([m - 0.1, m - 0.05, m, m + 0.05, m + 0.1])
        yields.sort(reverse=True)
        records = _records(yields, crop="Spring Barley")
        assignment = assign_groups(records)["Spring Barley"]
        stats = yield_group_stats(assignment)
        for got, expected in zip(stats.means, means):
            assert abs(got - expected) < 1e-9
        expected_pcts = (37.0, 12.3, 0.0, -10.9, -34.7)
        printed = (36.9, 12.2, 0.0, -10.9, -34.8)
        for got, exp, ref in zip(stats.pcts, expected_pcts, printed):
            assert abs(round(got, 1) - exp) < 0.05
            assert abs(got - ref) <= 0.3 + 1e-9

    @pytest.mark.parametrize("n", [0, 3])
    def test_an_empty_group_is_rejected_naming_the_crop(self, n):
        assignment = GroupAssignment(crop="X", records=tuple(_records([9.0, 8.0, 7.0][:n], crop="X")))
        with pytest.raises(ConfigError, match="crop 'X'"):
            yield_group_stats(assignment)

    def test_single_value_pct(self):
        assert abs(pct_vs_median_group(23.80, 14.19) - 67.7) < 0.05

    def test_all_equal_pcts_zero(self):
        records = _records([4.0] * 10)
        assignment = assign_groups(records)["Grass"]
        stats = yield_group_stats(assignment)
        assert stats.pcts == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_group3_identity_exact(self):
        records = _records([10.0, 8.0, 6.5, 4.0, 2.0])
        stats = yield_group_stats(assign_groups(records)["Grass"])
        assert stats.pcts[2] == 0.0

    def test_pct_strictly_increasing_in_mean(self):
        m3 = 7.0
        pcts = [pct_vs_median_group(m, m3) for m in (5.0, 6.0, 7.0, 8.0, 9.0)]
        assert pcts == sorted(pcts)
        assert len(set(pcts)) == 5


class TestReferenceTableConsistency:
    def test_all_sixty_rows(self):
        rows = 0
        for crop, entries in GROUP_TABLE_ROWS.items():
            mean_3 = entries[2][0]
            for mean_g, printed_pct in entries:
                computed = pct_vs_median_group(mean_g, mean_3)
                assert abs(round(computed * 10) - round(printed_pct * 10)) <= 3, (
                    f"{crop}: computed {computed:.2f} vs printed {printed_pct}"
                )
                rows += 1
        assert rows == 60

    @pytest.mark.parametrize("factor", FACTORS)
    def test_each_factor_names_a_number_attribute_of_its_unit(self, factor):
        spec = FACTOR_SPECS[factor]
        attribute = CATALOG.table(spec.table).attribute(spec.attribute)
        assert attribute is not None and attribute.kind == "number"
        assert attribute.unit == spec.unit


# --- factor group means -----------------------------------------------------------

class TestFactorGroupMeans:
    def test_constant_factor(self):
        factors = [{"soil_ph": 6.0}] * 2 + [{"soil_ph": 7.0}] * 8
        records = _records([10, 9, 8, 7, 6, 5, 4, 3, 2, 1], factors=factors)
        assignment = assign_groups(records)["Grass"]
        stats = factor_group_means(assignment, "soil_ph")
        assert stats.counts[0] == 2
        assert stats.means[0] == 6.0

    def test_absent_factor_excluded_from_that_group_only(self):
        factors = [{"soil_ph": 6.0}, {}, {"soil_ph": 6.4}, {"soil_ph": 6.6}, {"soil_ph": 6.8}]
        records = _records([10, 9, 8, 7, 6], factors=factors)
        assignment = assign_groups(records)["Grass"]
        stats = factor_group_means(assignment, "soil_ph")
        assert stats.counts == (1, 0, 1, 1, 1)
        assert stats.means[1] is None

    def test_factor_never_present(self):
        records = _records([10, 9, 8, 7, 6])
        stats = factor_group_means(assign_groups(records)["Grass"], "herbicide")
        assert stats.counts == (0,) * 5
        assert stats.means == (None,) * 5

    def test_missing_data_locality(self):
        rng = random.Random(3)
        factors = [
            {"soil_ph": round(rng.uniform(5, 8), 2), "herbicide": round(rng.uniform(0, 50), 2)}
            for _ in range(25)
        ]
        yields = [round(rng.uniform(2, 20), 2) for _ in range(25)]
        records = _records(yields, factors=factors)
        assignment = assign_groups(records)["Grass"]
        before = factor_group_means(assignment, "soil_ph")
        bumped = [dict(f) for f in factors]
        bumped[7]["herbicide"] = 999.0
        records2 = _records(yields, factors=bumped)
        after = factor_group_means(assign_groups(records2)["Grass"], "soil_ph")
        assert before == after

    def test_unknown_factor_rejected(self):
        records = _records([10, 9, 8, 7, 6])
        with pytest.raises(Exception, match="soil_zn"):
            factor_group_means(assign_groups(records)["Grass"], "soil_zn")


# --- significance rules -------------------------------------------------------------

def _stats(means, counts=(10,) * 5, sds=(1.0,) * 5, factor="soil_ph"):
    return FactorGroupStats(
        crop="Grass", factor=factor,
        counts=counts,
        means=tuple(means),
        sds=tuple(sds),
    )


class TestRelativeGapRule:
    def test_clear_gap(self):
        verdict, stat = is_discriminative(_stats((61, 60, 58, 52, 45)), SignificanceRule(threshold=0.10))
        assert verdict == "optimal"
        assert abs(stat - (61 - 45) / 61) < 1e-12  # 26.2% gap

    def test_equal_means_never_discriminative(self):
        for tau in (0.01, 0.1, 0.5, 0.99):
            verdict, _ = is_discriminative(_stats((50,) * 5), SignificanceRule(threshold=tau))
            assert verdict == "not-discriminative"

    def test_count_guard(self):
        stats = _stats((61, 60, 58, 52, 45), counts=(10, 10, 10, 10, 0), means=None) if False else None
        low = FactorGroupStats(
            crop="Grass", factor="soil_ph",
            counts=(10, 10, 10, 10, 0),
            means=(61.0, 60.0, 58.0, 52.0, None),
            sds=(1.0, 1.0, 1.0, 1.0, None),
        )
        verdict, stat = is_discriminative(low, SignificanceRule())
        assert verdict == "insufficient-data"
        assert stat is None

    def test_threshold_monotonicity(self):
        stats = _stats((61, 60, 58, 52, 45))
        taus = [0.05, 0.1, 0.2, 0.26, 0.27, 0.5]
        verdicts = [is_discriminative(stats, SignificanceRule(threshold=t))[0] for t in taus]
        # once not-discriminative at some tau, stays so for larger tau
        seen_not = False
        for v in verdicts:
            if v == "not-discriminative":
                seen_not = True
            if seen_not:
                assert v == "not-discriminative"
        assert verdicts[0] == "optimal"


WELCH_FIXTURES = [
    ([19.8, 20.4, 19.6, 17.8, 18.5], [28.2, 26.6, 20.1, 23.3, 25.2]),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0]),
    ([5.5, 5.6, 5.4, 5.5, 5.5], [5.5, 5.6, 5.4, 5.5, 5.5]),
    ([10.0, 10.1], [9.0, 12.0]),
    ([3.2, 3.9, 4.1, 2.8, 3.5], [3.3, 3.8, 4.0, 2.9, 3.6]),
    ([100.0, 101.0, 99.0, 102.0, 98.0], [90.0, 91.0, 89.0, 92.0, 88.0]),
    ([0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.4, 0.3, 0.2, 0.1]),
    ([6.0, 6.1, 5.9, 6.05, 5.95], [7.2, 7.1, 7.3, 7.15, 7.25]),
    ([-1.0, -2.0, -3.0, -4.0, -5.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
    ([42.0, 43.5, 41.2, 44.8, 42.9], [42.1, 43.4, 41.3, 44.7, 42.8]),
]


def _summary(sample):
    n = len(sample)
    mean = fsum(sample) / n
    variance = fsum((x - mean) ** 2 for x in sample) / (n - 1)
    return n, mean, sqrt(variance)


class TestWelchOracle:
    @pytest.mark.parametrize("x1,x2", WELCH_FIXTURES)
    def test_statistic_and_df_match_textbook(self, x1, x2):
        n1, m1, s1 = _summary(x1)
        n2, m2, s2 = _summary(x2)
        t_stat, df, p = welch_t_from_summary(n1, m1, s1, n2, m2, s2)

        # independent computation, straight from the defining formulas
        v1 = fsum((x - m1) ** 2 for x in x1) / (n1 - 1)
        v2 = fsum((x - m2) ** 2 for x in x2) / (n2 - 1)
        se2 = v1 / n1 + v2 / n2
        expected_t = (m1 - m2) / sqrt(se2)
        expected_df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
        assert abs(t_stat - expected_t) <= 1e-9
        assert abs(df - expected_df) <= 1e-9
        expected_p = 2 * float(student_t.sf(abs(expected_t), expected_df))
        assert abs(p - expected_p) <= 1e-9

    def test_zero_variance_degenerate(self):
        t_stat, df, p = welch_t_from_summary(5, 4.0, 0.0, 5, 4.0, 0.0)
        assert t_stat == 0.0 and p == 1.0
        t_stat, _, p = welch_t_from_summary(5, 5.0, 0.0, 5, 4.0, 0.0)
        assert t_stat == float("inf") and p == 0.0

    def test_welch_rule_verdicts(self):
        separated = _stats((7.2, 7.0, 6.5, 6.2, 6.0), sds=(0.1,) * 5)
        verdict, stat = is_discriminative(separated, SignificanceRule(kind="welch-t", alpha=0.05))
        assert verdict == "optimal"
        assert stat > 0
        same = _stats((6.0,) * 5, sds=(0.5,) * 5)
        verdict, _ = is_discriminative(same, SignificanceRule(kind="welch-t", alpha=0.05))
        assert verdict == "not-discriminative"

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_welch_rule_contrasts_group_one_with_group_five_alone(self, alpha):
        # every group differs from the others in count, mean and sd
        stats = _stats((7.2, 6.9, 6.5, 6.2, 6.0), counts=(12, 9, 10, 11, 6), sds=(0.3, 0.9, 0.5, 0.4, 0.8))
        t_stat, _, p = welch_t_from_summary(12, 7.2, 0.3, 6, 6.0, 0.8)
        assert 0.01 < p < 0.05  # so the verdict turns on alpha
        verdict, stat = is_discriminative(stats, SignificanceRule(kind="welch-t", alpha=alpha))
        assert (verdict, stat) == ("optimal" if p < alpha else "not-discriminative", t_stat)

    @pytest.mark.parametrize("counts", [(1, 9, 10, 11, 6), (12, 9, 10, 11, 1)])
    def test_welch_rule_needs_two_values_per_side_whatever_min_count(self, counts):
        stats = _stats((7.2, 6.9, 6.5, 6.2, 6.0), counts=counts, sds=(None, 0.9, 0.5, 0.4, 0.8))
        assert is_discriminative(stats, SignificanceRule(kind="welch-t", min_count=1)) == ("insufficient-data", None)


# --- extraction ----------------------------------------------------------------------

class TestExtraction:
    def _store(self, store_dir):
        store = open_store(store_dir, CATALOG)
        crop = store.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass"})
        field = store.upsert_dimension("Field", {"FieldID": "F1", "FieldName": "Home"})
        soil = store.upsert_dimension(
            "Soil",
            {"SoilID": "S1", "PH": 6.1, "Phosphorus": 20.0, "Potassium": 110.0, "Magnesium": 60.0},
        )
        optime = store.upsert_dimension(
            "OperationTime", {"OperationTimeID": "T1", "StartDate": "2019-04-01", "Season": "Spring"}
        )
        return store, crop, field, soil, optime

    def test_full_join(self, store_dir):
        store, crop, field, soil, optime = self._store(store_dir)
        store.insert_facts(
            "FieldFact",
            [
                {
                    "CropKey": crop, "FieldKey": field, "SoilKey": soil, "OperationTimeKey": optime,
                    "YieldValue": 8.93, "HerbicideQty": 33.8, "InsecticideQty": 736.0,
                }
            ],
        )
        (record,) = extract_yield_records(store.snapshot())
        assert record.crop == "Grass"
        assert record.yield_value == 8.93
        assert record.factors == {
            "soil_ph": 6.1, "soil_p": 20.0, "soil_k": 110.0, "soil_mg": 60.0,
            "herbicide": 33.8, "insecticide": 736.0,
        }

    def test_missing_soil_key(self, store_dir):
        store, crop, field, _, _ = self._store(store_dir)
        store.insert_facts(
            "FieldFact",
            [{"CropKey": crop, "FieldKey": field, "YieldValue": 5.0, "HerbicideQty": 2.0, "InsecticideQty": 30.0}],
        )
        (record,) = extract_yield_records(store.snapshot())
        assert set(record.factors) == {"herbicide", "insecticide"}

    def test_rows_without_yield_or_crop_excluded(self, store_dir):
        store, crop, *_ = self._store(store_dir)
        store.insert_facts(
            "FieldFact",
            [
                {"CropKey": crop, "HerbicideQty": 2.0},  # no yield
                {"YieldValue": 5.0},  # no crop
                {"CropKey": crop, "YieldValue": 5.0},
            ],
        )
        records = extract_yield_records(store.snapshot())
        assert len(records) == 1
        assert records[0].record_id == 3  # ordinal position in the fact table

    def test_crop_names_harmonized(self, store_dir):
        store = open_store(store_dir, CATALOG)
        crop = store.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Barley S."})
        store.insert_facts("FieldFact", [{"CropKey": crop, "YieldValue": 5.0}])
        (record,) = extract_yield_records(store.snapshot())
        assert record.crop == "Spring Barley"

    def test_column_join_equals_a_join_of_parsed_rows(self, store_dir, monkeypatch):
        store, crop, field, soil, optime = self._store(store_dir)
        barley = store.upsert_dimension("Crop", {"CropID": "C2", "CropName": "Barley S."})
        thin = store.upsert_dimension("Soil", {"SoilID": "S2", "PH": 7.5})
        short = store.upsert_dimension("OperationTime", {"OperationTimeID": "T2", "StartDate": "19"})
        store.insert_facts("FieldFact", [
            {"CropKey": crop, "FieldKey": field, "SoilKey": soil, "OperationTimeKey": optime, "YieldValue": 8.0},
            {"CropKey": barley, "SoilKey": thin, "OperationTimeKey": short, "YieldValue": 6.5, "HerbicideQty": 1.5},
            {"CropKey": barley, "YieldValue": 7.0, "InsecticideQty": 20.0},
            {"SoilKey": soil, "YieldValue": 9.0},
            {"CropKey": crop, "SoilKey": thin},
        ])
        store.flush()
        with column_reads(monkeypatch) as reads:
            records = extract_yield_records(open_store(store_dir, CATALOG).snapshot())
        assert reads and not [table for table, names in reads if set(names) == set(every_column(CATALOG, table))]
        assert {(table, name) for table, names in reads for name in names} == {
            *(("FieldFact", name) for name in ("CropKey", "SoilKey", "YieldValue", "HerbicideQty", "InsecticideQty")),
            ("Crop", "CropName"),
            *(("Soil", name) for name in ("PH", "Phosphorus", "Potassium", "Magnesium")),
        }
        assert records == _joined_row_by_row(csv_view(store_dir, CATALOG))
        assert [(r.record_id, r.crop) for r in records] == [(1, "Grass"), (2, "Spring Barley"), (3, "Spring Barley")]

    def test_out_of_range_keys_join_no_row(self, store_dir):
        # written around the store, which refuses such keys; open checks no key range
        write_store(store_dir, CATALOG, {
            "Crop": [{"sk": 1, "CropID": "C1", "CropName": "Grass"}],
            "Soil": [{"sk": 1, "SoilID": "S1", "PH": 6.1}],
            "FieldFact": [
                {"CropKey": 1, "SoilKey": 1, "YieldValue": 8.0, "HerbicideQty": 1.5},
                {"CropKey": 3, "SoilKey": 1, "YieldValue": 7.0},  # crop past the last row
                {"CropKey": 1, "SoilKey": 0, "YieldValue": 6.0, "HerbicideQty": 2.5},
                {"CropKey": 1, "SoilKey": 3, "YieldValue": 5.0, "HerbicideQty": 3.5},  # soil past the last row
                {"CropKey": 1, "SoilKey": -1, "YieldValue": 4.0},
            ],
        })
        records = extract_yield_records(open_store(store_dir, CATALOG).snapshot())
        assert [(r.record_id, r.crop, r.yield_value, r.factors) for r in records] == [
            (1, "Grass", 8.0, {"soil_ph": 6.1, "herbicide": 1.5}),
            (3, "Grass", 6.0, {"herbicide": 2.5}),
            (4, "Grass", 5.0, {"herbicide": 3.5}),
            (5, "Grass", 4.0, {}),
        ]


def _joined_row_by_row(tables) -> list[YieldRecord]:
    """What extract_yield_records returns, joined one row of ``tables`` (each
    table's row dicts, as ``csv_view`` reads them) at a time."""
    def dimension(name, sk):
        rows = tables.get(name, ())
        return rows[sk - 1] if sk is not None and 1 <= sk <= len(rows) else {}

    records = []
    for ordinal, fact in enumerate(tables["FieldFact"], start=1):
        name = dimension("Crop", fact.get("CropKey")).get("CropName")
        if fact.get("YieldValue") is None or name is None:
            continue
        joined = {"FieldFact": fact, "Soil": dimension("Soil", fact.get("SoilKey"))}
        factors = {factor: joined[spec.table].get(spec.attribute) for factor, spec in FACTOR_SPECS.items()}
        records.append(YieldRecord(
            record_id=ordinal,
            crop=normalize_synonym(name, builtin_crop_synonyms()) or name,
            yield_value=fact["YieldValue"],
            factors={factor: value for factor, value in factors.items() if value is not None},
        ))
    return records


# --- mining --------------------------------------------------------------------------

class TestMineOptima:
    def _planted_records(self, optimum=6.0, n=200, crop="Grass"):
        # deterministic zero-noise quadratic response on soil pH
        rng = random.Random(11)
        records = []
        for i in range(1, n + 1):
            ph = round(rng.uniform(4.5, 8.5), 2)
            penalty = min(1.0, ((ph - optimum) / 1.0) ** 2)
            y = 10.0 * (1 - 0.5 * penalty)
            records.append(YieldRecord(record_id=i, crop=crop, yield_value=y, factors={"soil_ph": ph}))
        return records

    def test_planted_optimum_recovered_exactly(self):
        findings = mine_optima_from_records(self._planted_records(), SignificanceRule(threshold=0.1))
        by_factor = {f.factor: f for f in findings}
        ph = by_factor["soil_ph"]
        assert ph.verdict == "optimal"
        assert abs(ph.value - 6.0) <= 0.25
        assert ph.unit == "pH"
        for factor in FACTORS:
            if factor != "soil_ph":
                assert by_factor[factor].verdict == "insufficient-data"  # never measured

    def test_centered_optimum_is_invisible_to_group_contrast(self):
        # With the optimum dead-center in a symmetric sampling range, the
        # lowest-yield group draws from both tails, so its factor mean equals
        # the top group's and the group-1 vs group-5 contrast cannot fire.
        findings = mine_optima_from_records(
            self._planted_records(optimum=6.5), SignificanceRule(threshold=0.1)
        )
        ph = next(f for f in findings if f.factor == "soil_ph")
        assert ph.verdict == "not-discriminative"
        # the group-1 mean still sits on the planted value
        assert abs(ph.evidence.group_means[0] - 6.5) <= 0.25

    def test_the_optimum_is_the_rounded_group_one_mean(self):
        # five records per group by yield; the group means of pH are 6.07, 7.0, 7.5, 7.75 and 8.0
        phs = [6.0, 6.04, 6.1, 6.1, 6.11] + [7.0] * 5 + [7.5] * 5 + [7.75] * 5 + [8.0] * 5
        records = _records(list(range(25, 0, -1)), factors=[{"soil_ph": ph} for ph in phs])
        ph = next(f for f in mine_optima_from_records(records) if f.factor == "soil_ph")
        assert ph.verdict == "optimal"
        assert ph.evidence.group_means[:2] == pytest.approx((6.07, 7.0))
        assert ph.value == round_optimal_value("soil_ph", ph.evidence.group_means[0]) == 6.1

    def test_identical_means_not_discriminative(self):
        records = _records(
            list(range(25, 0, -1)),
            factors=[{"soil_ph": 6.0}] * 25,
        )
        findings = mine_optima_from_records(records, SignificanceRule(threshold=0.1))
        ph = next(f for f in findings if f.factor == "soil_ph")
        assert ph.verdict == "not-discriminative"
        assert ph.value is None

    def test_insufficient_records(self):
        records = _records([5, 4, 3, 2])
        findings = mine_optima_from_records(records)
        assert len(findings) == len(FACTORS)
        assert all(f.verdict == "insufficient-data" for f in findings)
        for f in findings:
            assert f.evidence.group_means == (None,) * 5
            assert f.evidence.group_counts == (0,) * 5
            assert f.evidence.statistic is None

    def test_snapshot_roundtrip(self, store_dir):
        store = open_store(store_dir, CATALOG)
        crop = store.upsert_dimension("Crop", {"CropID": "C1", "CropName": "Grass"})
        rng = random.Random(5)
        facts = []
        for _ in range(100):
            ph = round(rng.uniform(4.5, 8.5), 2)
            y = 10.0 * (1 - 0.5 * min(1.0, ((ph - 6.0) / 1.0) ** 2))
            soil = store.upsert_dimension("Soil", {"SoilID": f"S{len(facts)}", "PH": ph})
            facts.append({"CropKey": crop, "SoilKey": soil, "YieldValue": y})
        store.insert_facts("FieldFact", facts)
        findings = mine_optima(store.snapshot(), SignificanceRule(threshold=0.1))
        ph = next(f for f in findings if f.factor == "soil_ph")
        assert ph.verdict == "optimal"
        assert abs(ph.value - 6.0) <= 0.3

    def test_evidence_always_attached(self):
        findings = mine_optima_from_records(self._planted_records(n=50))
        for f in findings:
            assert f.evidence.rule
            assert len(f.evidence.group_means) == 5
            assert len(f.evidence.group_counts) == 5

    def test_rounding_per_unit(self):
        assert round_optimal_value("soil_ph", 6.04) == 6.0
        assert round_optimal_value("soil_p", 21.4) == 21.0
        assert round_optimal_value("herbicide", 33.84) == 33.8
        assert round_optimal_value("insecticide", 736.4) == 736.0
