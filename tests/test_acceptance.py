"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and durations.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from agridw.analytics import (
    FACTORS,
    SignificanceRule,
    YieldRecord,
    assign_groups,
    mine_optima,
    pct_vs_median_group,
    welch_t_from_summary,
    yield_group_stats,
)
from agridw.catalog import builtin_catalog, validate_catalog
from agridw.etl import (
    REJECT_REASONS,
    SourceDescriptor,
    mapping_from_dict,
    run_pipeline,
    write_reject_ledger,
)
from agridw.report import emit_factor_series, emit_findings, emit_group_table
from agridw.store import open_store, star_query
from agridw.synth import CropSpec, FACTOR_BOUNDS, FactorEffect, SynthConfig, expected_findings, generate, source_mapping_pairs

from helpers import (
    GROUP_TABLE_ROWS,
    nested_loop_star_query,
    random_query,
    random_snapshot,
    rows_equal,
    sort_rows,
)


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[{label}] FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    print(f"\n[{label}] PASS ({time.perf_counter() - started:.2f}s)")


# --- C1: reference group table internal consistency ---------------------------

def test_c1_group_table_internal_consistency():
    with criterion("C1 group-table internal consistency"):
        checked = 0
        for crop, entries in GROUP_TABLE_ROWS.items():
            mean_3 = entries[2][0]
            for mean_g, printed_pct in entries:
                computed = pct_vs_median_group(mean_g, mean_3)
                # compare at 1-decimal precision: |rounded - printed| <= 0.3
                assert abs(round(computed * 10) - round(printed_pct * 10)) <= 3, (
                    f"{crop}: {computed:.2f}% vs printed {printed_pct}%"
                )
                checked += 1
        assert checked == 60


# --- C2: quintile grouping properties ------------------------------------------

def _random_yields(rng: random.Random, n: int) -> list[float]:
    if rng.random() < 0.3:
        # heavy duplication regime
        levels = [round(rng.uniform(0.1, 50.0), 2) for _ in range(max(1, n // 10))]
        return [rng.choice(levels) for _ in range(n)]
    return [round(rng.uniform(0.01, 200.0), 2) for _ in range(n)]


def _check_quintiles(yields: list[float]) -> None:
    records = [
        YieldRecord(record_id=i + 1, crop="X", yield_value=y) for i, y in enumerate(yields)
    ]
    assignment = assign_groups(records)["X"]
    n = len(yields)
    ids = [[r.record_id for r in group] for group in assignment.groups]
    sizes = tuple(map(len, ids))
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert sorted(i for group in ids for i in group) == list(range(1, n + 1))
    for upper, lower in zip(ids, ids[1:]):
        if upper and lower:
            assert max(yields[i - 1] for i in lower) <= min(yields[i - 1] for i in upper)

    stats = yield_group_stats(assignment)
    for c in (0.5, 3.0):
        scaled = [
            YieldRecord(record_id=i + 1, crop="X", yield_value=y * c)
            for i, y in enumerate(yields)
        ]
        scaled_assignment = assign_groups(scaled)["X"]
        assert [[r.record_id for r in group] for group in scaled_assignment.groups] == ids
        scaled_stats = yield_group_stats(scaled_assignment)
        for p1, p2 in zip(stats.pcts, scaled_stats.pcts):
            assert abs(p1 - p2) <= 1e-9


def test_c2_quintile_properties():
    with criterion("C2 quintile properties, 1000 randomized datasets"):
        rng = random.Random(0xA5C2)
        forced = [5, 6, 7, 8, 9, 10, 11, 5003, 9999, 10007]
        lo_log, hi_log = math.log(5), math.log(10007)
        sizes = forced + [
            int(round(math.exp(lo_log + (hi_log - lo_log) * rng.random() ** 2)))
            for _ in range(1000 - len(forced))
        ]
        assert len(sizes) == 1000
        for n in sizes:
            _check_quintiles(_random_yields(rng, max(5, min(n, 10007))))


# --- C3: planted-optimum recovery through the full pipeline ---------------------

_CROP_NAMES = (
    "Spring Barley", "Winter Barley", "Spring Dried Beans", "Winter Dried Beans",
    "Grass", "Spring Linseed", "Forage Maize", "Winter Oats", "Winter Rape",
    "Winter Rye", "Spring Wheat", "Winter Wheat",
)


def _recovery_config(seed: int) -> SynthConfig:
    # one active factor per crop, optimum off-center (25% or 70% of the range),
    # effect scale = half the range, sigma = 0.05 * base
    base = 10.0
    crops = []
    for i, name in enumerate(_CROP_NAMES):
        factor = FACTORS[i % len(FACTORS)]
        lo, hi = FACTOR_BOUNDS[factor]
        span = hi - lo
        position = 0.25 if i < 6 else 0.70
        effect = FactorEffect(optimum=round(lo + position * span, 2), weight=0.5, scale=span / 2.0)
        crops.append(CropSpec(name, base, {factor: effect}))
    return SynthConfig(
        crops=tuple(crops), records_per_crop=2000, noise_sd=0.05 * base, seed=seed
    )


def _run_recovery_seed(tmp_root: Path, seed: int) -> bool:
    config = _recovery_config(seed)
    gen_dir = tmp_root / f"gen-{seed}"
    result = generate(config, gen_dir)
    catalog = builtin_catalog()
    store = open_store(tmp_root / f"store-{seed}", catalog)
    report = run_pipeline(source_mapping_pairs(result), catalog, store)
    assert report.total_rejected == 0, f"seed {seed}: unexpected rejects"
    findings = mine_optima(store.snapshot(), SignificanceRule(threshold=0.20))
    by_key = {(f.crop, f.factor): f for f in findings}
    for expected in expected_findings(result.truth, config):
        finding = by_key[(expected.crop, expected.factor)]
        if expected.verdict == "optimal":
            if finding.verdict != "optimal":
                return False
            if abs(finding.value - expected.optimum) > expected.tolerance:
                return False
        else:
            if finding.verdict != expected.verdict:
                return False
    return True


def test_c3_planted_optimum_recovery(tmp_path):
    with criterion("C3 planted-optimum recovery, 20 seeds end-to-end"):
        successes = sum(1 for seed in range(20) if _run_recovery_seed(tmp_path, seed))
        assert successes >= 19, f"only {successes}/20 seeds recovered the planted truth"


# --- C4: star-query oracle -------------------------------------------------------

def test_c4_star_query_oracle():
    with criterion("C4 star-query vs nested-loop oracle, 200 snapshots"):
        rng = random.Random(0xC4)
        for i in range(200):
            max_facts = 1000 if i % 4 == 0 else 200
            snapshot, tables = random_snapshot(rng, max_facts=max_facts)
            q = random_query(rng, snapshot)
            got = star_query(snapshot, q)
            oracle_columns, oracle_rows = nested_loop_star_query(snapshot.catalog, tables, q)
            assert got.columns == oracle_columns
            assert rows_equal(sort_rows(got.rows), sort_rows(oracle_rows)), f"query {i}: {q}"


# --- C5: ETL conservation and determinism ----------------------------------------

_CROP_MAPPING = {
    "target_table": "Crop",
    "bindings": [
        {"source": "crop_id", "target": "CropID", "transforms": [{"op": "rename"}]},
        {"source": "crop_name", "target": "CropName", "transforms": [{"op": "synonym", "table": "crop-names"}]},
    ],
}
_SOIL_MAPPING = {
    "target_table": "Soil",
    "bindings": [
        {"source": "soil_id", "target": "SoilID", "transforms": [{"op": "rename"}]},
        {"source": "ph", "target": "PH", "transforms": [{"op": "parse-number"}]},
    ],
}
_WATER_MAPPING = {
    "target_table": "FieldFact",
    "bindings": [
        {"source": "crop_id", "target": "CropKey", "transforms": [{"op": "rename"}]},
        {
            "source": "water",
            "target": "WaterVolume",
            # mg/l cannot convert to l/ha: every row becomes a unit-error reject
            "transforms": [{"op": "parse-number"}, {"op": "unit-convert", "from": "mg/l", "to": "l/ha"}],
        },
    ],
}
_FACT_MAPPING = {
    "target_table": "FieldFact",
    "bindings": [
        {"source": "crop_id", "target": "CropKey", "transforms": [{"op": "rename"}]},
        {"source": "yield_t", "target": "YieldValue", "transforms": [{"op": "parse-number"}]},
    ],
}


def _reject_corpus(root: Path):
    (root / "crops.csv").write_text(
        "crop_id,crop_name\nC1,Grass\nC2,Wheat W.\nC3,Moon Wheat\n"  # synonym-miss
    )
    (root / "soil.csv").write_text(
        "soil_id,ph\nS1,6.5\nS2,12\nS3,abc\nS4,5.5,extra\n,7.0\n"
        # range-error, type-error, structural, missing-required
    )
    (root / "water.csv").write_text("crop_id,water\nC1,10\n")
    (root / "facts.csv").write_text(
        "crop_id,yield_t\nC1,8.5\nC9,9.0\nC2,7;7\nC2,6.5\n".replace(";", ",")
        # unknown crop key, comma-decimal
    )
    return [
        (SourceDescriptor(path=str(root / "crops.csv")), mapping_from_dict(_CROP_MAPPING)),
        (SourceDescriptor(path=str(root / "soil.csv")), mapping_from_dict(_SOIL_MAPPING)),
        (SourceDescriptor(path=str(root / "water.csv")), mapping_from_dict(_WATER_MAPPING)),
        (SourceDescriptor(path=str(root / "facts.csv")), mapping_from_dict(_FACT_MAPPING)),
    ]


def test_c5_etl_conservation_and_determinism(tmp_path):
    with criterion("C5 ETL conservation + determinism"):
        catalog = builtin_catalog()

        def run(tag: str):
            store = open_store(tmp_path / f"store-{tag}", catalog)
            report = run_pipeline(_reject_corpus(tmp_path), catalog, store)
            ledger = tmp_path / f"ledger-{tag}.csv"
            write_reject_ledger(report.rejects, ledger)
            data = {
                name: (tmp_path / f"store-{tag}" / name / "data.csv").read_bytes()
                for name in ("Crop", "Soil", "FieldFact")
            }
            digests = {name: store.table_digest(name) for name in data}
            return report, ledger.read_bytes(), data, digests

        report, ledger_bytes, data, digests = run("a")
        for stats in report.tables.values():
            assert stats.rows_read == stats.rows_accepted + stats.rows_rejected
        reasons = {r.reason for r in report.rejects}
        assert reasons == set(REJECT_REASONS), f"missing reject reasons: {set(REJECT_REASONS) - reasons}"

        report2, ledger_bytes2, data2, digests2 = run("b")
        assert ledger_bytes == ledger_bytes2
        assert data == data2
        assert digests == digests2


# --- C6: persistence --------------------------------------------------------------

def test_c6_persistence(tmp_path):
    with criterion("C6 persistence across reopen"):
        config = SynthConfig(
            crops=(
                CropSpec("Grass", 10.0, {"soil_ph": FactorEffect(optimum=5.5, weight=0.5, scale=2.0)}),
                CropSpec("Winter Rye", 10.0, {"soil_k": FactorEffect(optimum=75.0, weight=0.5, scale=150.0)}),
            ),
            records_per_crop=300,
            noise_sd=0.3,
            seed=606,
        )
        result = generate(config, tmp_path / "gen")
        catalog = builtin_catalog()
        store_dir = tmp_path / "store"
        store = open_store(store_dir, catalog)
        run_pipeline(source_mapping_pairs(result), catalog, store)
        tables = sorted(store.snapshot().table_digests)
        digests_before = {t: store.table_digest(t) for t in tables}

        def analyze(store_obj, out: Path):
            from agridw.analytics import extract_yield_records, factor_group_means

            snapshot = store_obj.snapshot()
            records = extract_yield_records(snapshot)
            assignments = assign_groups(records)
            group_stats = [yield_group_stats(a) for a in assignments.values()]
            emit_group_table(group_stats, "delimited", out / "group_table.csv")
            series = [factor_group_means(a, "soil_ph") for a in assignments.values()]
            emit_factor_series(series, out / "factor_soil_ph.csv")
            findings = mine_optima(snapshot, SignificanceRule(threshold=0.2))
            emit_findings(findings, "json", out / "findings.json")
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        outputs_before = analyze(store, tmp_path / "out-before")

        reopened = open_store(store_dir, catalog)  # fresh handle, reads from disk
        digests_after = {t: reopened.table_digest(t) for t in tables}
        assert digests_after == digests_before
        outputs_after = analyze(reopened, tmp_path / "out-after")
        assert outputs_after == outputs_before


# --- C7: Welch statistic oracle -----------------------------------------------------

_WELCH_FIXTURES = [
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


def test_c7_welch_statistic_oracle():
    with criterion("C7 Welch t/df vs independent computation"):
        for x1, x2 in _WELCH_FIXTURES:
            n1, n2 = len(x1), len(x2)
            m1 = sum(x1) / n1
            m2 = sum(x2) / n2
            v1 = sum((x - m1) ** 2 for x in x1) / (n1 - 1)
            v2 = sum((x - m2) ** 2 for x in x2) / (n2 - 1)
            se2 = v1 / n1 + v2 / n2
            expected_t = (m1 - m2) / math.sqrt(se2)
            expected_df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
            t_stat, df, _ = welch_t_from_summary(n1, m1, math.sqrt(v1), n2, m2, math.sqrt(v2))
            assert abs(t_stat - expected_t) <= 1e-9
            assert abs(df - expected_df) <= 1e-9


# --- C8: builtin catalog shape --------------------------------------------------------

def test_c8_builtin_catalog_shape():
    with criterion("C8 builtin catalog shape"):
        from test_catalog import DIMENSION_ATTRIBUTES

        catalog = builtin_catalog()
        facts = [t for t in catalog.facts()]
        dims = [t for t in catalog.dimensions()]
        assert len(facts) == 5
        assert len(dims) == 22
        ff = catalog.table("FieldFact")
        assert len(ff.dimension_refs) == 12
        assert len(ff.measures) == 6
        for dim_name, expected in DIMENSION_ATTRIBUTES.items():
            table = catalog.table(dim_name)
            assert table is not None, dim_name
            names = [a.name for a in table.attributes]
            for attr in expected:
                assert names.count(attr) == 1, f"{dim_name}.{attr}"
        assert validate_catalog(catalog) == []
