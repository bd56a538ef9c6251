"""Tests of the benchmark itself, at smoke sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke(tmp_path, workload, trace, seed=7, seconds=0.3):
    return run.run(workload, seed, seconds, trace, "smoke", out_root=tmp_path)


def metric(report, name):
    return report["metrics"][name]["value"]


def test_benchmark_json_matches_the_code():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert E2E == run.END_TO_END_UNITS
    assert PER_LAYER == layertrace.METRIC_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    report = smoke(tmp_path, workload, trace=False)
    assert report["failed"] == 0, report["errors"]
    assert report["attempted"] >= 1
    assert {k: v["unit"] for k, v in report["metrics"].items()} == E2E
    assert all(metric(report, name) > 0 for name in E2E)
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    report = smoke(tmp_path, workload, trace=True)
    assert report["failed"] == 0, report["errors"]
    assert {k: v["unit"] for k, v in report["metrics"].items()} == PER_LAYER
    spans = [json.loads(line) for line in Path(report["span_file"]).read_text().splitlines()]
    assert any(s["name"] == "synth.generate" for s in spans)
    # the tracer restores every patched name
    import agridw.store
    assert agridw.store.fnv1a64.__module__ == "agridw.util"
    assert metric(report, "trace.unattributed_ms") >= 0


def test_traced_counts_match_the_workload_shapes(tmp_path):
    sizes = workloads.SIZES["smoke"]
    records = sizes.ingest * len(workloads.CROP_NAMES)
    ingest = smoke(tmp_path, "ingest", trace=True)
    assert metric(ingest, "etl.rows_read") == len(workloads.CROP_NAMES) + 3 * records
    assert metric(ingest, "store.insert.rows") == records
    assert metric(ingest, "store.upsert.dedup_ratio") == 0
    assert metric(ingest, "store.flush.calls") == 4
    assert metric(ingest, "share.store.write_pct") > 0

    append = smoke(tmp_path, "append", trace=True)
    assert metric(append, "store.upsert.dedup_ratio") == 1
    assert metric(append, "store.insert.rows") == sizes.delta * workloads.DELTA_CROPS

    analyze = smoke(tmp_path, "analyze", trace=True)
    assert metric(analyze, "analytics.assign.calls_per_op") == 2
    assert metric(analyze, "store.digest.bytes_per_stored_byte") == pytest.approx(2.0, abs=0.05)
    assert metric(analyze, "store.open.bytes_read") > 0

    query = smoke(tmp_path, "query", trace=True)
    assert metric(query, "store.star_query.ms") > 0
    assert metric(query, "store.open.ms") > 0  # the reopen in set-up


def test_tail_leaves_ten_values_above_it():
    values = list(range(1, 21))
    assert run.tail(values) == (10, 50.0)
    assert run.tail(list(range(1, 101))) == (90, 90.0)


def test_findings_oracle_rejects_wrong_findings():
    config = workloads.recovery_config(50, 3)
    records = workloads.synth.generate_records(config)
    truth = workloads.synth.ground_truth(config)
    oracle = oracles.FindingsOracle(records, workloads.synth.expected_findings(truth, config), "gap:0.20")
    good = []
    for (crop, factor), (verdict, counts, means, _) in oracle.expected.items():
        value = round(means[0], oracles.OPTIMUM_DIGITS[factor]) if verdict == "optimal" else None
        good.append((crop, factor, verdict, value, counts, means))
    assert oracle.check(good) is None
    assert oracle.check(good[1:]) is not None
    crop, factor, verdict, value, counts, means = next(f for f in good if f[2] == "optimal")
    shifted = [(crop, factor, verdict, value + 1.0, counts, means) if f[:2] == (crop, factor) else f
               for f in good]
    assert oracle.check(shifted) is not None
    flipped = [(crop, factor, "not-discriminative", None, counts, means) if f[:2] == (crop, factor) else f
               for f in good]
    assert oracle.check(flipped) is not None


def test_ingest_check_catches_a_lost_row(tmp_path):
    wl = workloads.Ingest(tmp_path, 5, workloads.SIZES["smoke"])
    wl.setup()
    wl.prepare(0)
    result = wl.op(0)
    assert wl.check(0, result) is None
    data = wl.store / "FieldFact" / "data.csv"
    data.write_text("".join(data.read_text().splitlines(keepends=True)[:-1]))
    assert "FieldFact" in wl.check(0, result)


def test_star_query_oracle_rejects_a_changed_row(tmp_path):
    wl = workloads.Query(tmp_path, 5, workloads.SIZES["smoke"])
    wl.setup()
    wl.prepare_checks()
    for spec in wl.pool:
        want = oracles.star_result(wl.view, spec)
        got = workloads.store.star_query(wl.snapshot, spec)
        assert oracles.same_rows(got.rows, want)
        if want:
            assert not oracles.same_rows(got.rows[1:] + [tuple("x" for _ in want[0])], want)


def test_command_line_contract(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "query", "--seed", "2", "--seconds", "0.3", "--smoke"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ingest", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
