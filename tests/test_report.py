from __future__ import annotations

import csv
import json

import pytest

from agridw.analytics import (
    Evidence,
    FactorGroupStats,
    GroupYieldStats,
    OptimalFinding,
    SignificanceRule,
)
from agridw.errors import ConfigError
from agridw.report import (
    FORMAT_DELIMITED,
    FORMAT_JSON,
    FORMAT_MARKDOWN,
    emit_factor_series,
    emit_findings,
    emit_group_table,
    load_findings,
    write_run_metadata,
)


def _group_stats(crop="Barley S.", means=(8.93, 7.32, 6.52, 5.81, 4.26)):
    mean_3 = means[2]
    pcts = tuple(0.0 if i == 2 else 100.0 * (m / mean_3 - 1.0) for i, m in enumerate(means))
    return GroupYieldStats(crop=crop, counts=(5,) * 5, means=means, pcts=pcts)


def _factor_stats(crop="Grass", factor="soil_ph"):
    return FactorGroupStats(
        crop=crop, factor=factor,
        counts=(4, 4, 4, 4, 0),
        means=(6.0, 6.2, 6.5, 6.9, None),
        sds=(0.1, 0.2, 0.15, 0.3, None),
    )


def _finding(crop="Grass", factor="soil_ph", verdict="optimal", value=6.0, statistic=0.31):
    return OptimalFinding(
        crop=crop, factor=factor, verdict=verdict,
        value=value if verdict == "optimal" else None,
        unit={"soil_ph": "pH", "herbicide": "kg/ha"}.get(factor, "mg/l"),
        evidence=Evidence(
            group_means=(6.0, 6.2, 6.5, 6.9, 7.4),
            group_counts=(4, 4, 4, 4, 4),
            rule=SignificanceRule().as_dict(),
            statistic=statistic,
        ),
    )


class TestGroupTable:
    def test_delimited_rendering(self, tmp_path):
        path = emit_group_table([_group_stats()], FORMAT_DELIMITED, tmp_path / "groups.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "group,crop,mean_yield,pct_vs_g3"
        assert lines[1] == "1,Barley S.,8.93,+37.0"
        assert lines[3] == "3,Barley S.,6.52,0"
        assert lines[5] == "5,Barley S.,4.26,-34.7"

    def test_rows_sorted_by_crop_then_group(self, tmp_path):
        stats = [_group_stats("Wheat W.", (11.74, 10.22, 9.32, 8.55, 6.83)), _group_stats()]
        path = emit_group_table(stats, FORMAT_DELIMITED, tmp_path / "groups.csv")
        lines = path.read_text().splitlines()[1:]
        crops = [line.split(",")[1] for line in lines]
        assert crops == ["Barley S."] * 5 + ["Wheat W."] * 5
        assert len(lines) == 10

    def test_single_crop_five_rows(self, tmp_path):
        path = emit_group_table([_group_stats()], FORMAT_DELIMITED, tmp_path / "g.csv")
        assert len(path.read_text().splitlines()) == 6

    def test_empty_stats_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_group_table([], FORMAT_DELIMITED, tmp_path / "g.csv")

    def test_json_and_markdown_variants(self, tmp_path):
        stats = [_group_stats()]
        json_path = emit_group_table(stats, FORMAT_JSON, tmp_path / "g.json")
        doc = json.loads(json_path.read_text())
        assert doc[0] == {"group": 1, "crop": "Barley S.", "mean_yield": 8.93, "pct_vs_g3": 37.0}
        md_path = emit_group_table(stats, FORMAT_MARKDOWN, tmp_path / "g.md")
        assert md_path.read_text().splitlines()[0] == "| group | crop | mean_yield | pct_vs_g3 |"

    def test_idempotent_bytes(self, tmp_path):
        stats = [_group_stats()]
        a = emit_group_table(stats, FORMAT_DELIMITED, tmp_path / "a.csv").read_bytes()
        b = emit_group_table(stats, FORMAT_DELIMITED, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_delimited_quotes_crop_names(self, tmp_path):
        names = ["Oats, naked", 'Rye "Hybrid"', "Grass"]
        path = emit_group_table([_group_stats(n) for n in names], FORMAT_DELIMITED, tmp_path / "g.csv")
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["1", "Grass", "8.93", "+37.0"]
        assert {len(r) for r in rows} == {4}
        assert [r[1] for r in rows[1:]] == [n for n in sorted(names) for _ in range(5)]


class TestFactorSeries:
    def test_columns_and_shape(self, tmp_path):
        stats = [_factor_stats(crop=c) for c in ("Grass", "Winter Rye", "Forage Maize",
                                                 "Spring Wheat", "Winter Oats", "Winter Rape")]
        path = emit_factor_series(stats, tmp_path / "series.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "crop,factor,group,mean,count,sd"
        assert len(lines) == 1 + 6 * 5

    def test_absent_mean_empty_field(self, tmp_path):
        path = emit_factor_series([_factor_stats()], tmp_path / "series.csv")
        last = path.read_text().splitlines()[-1]
        assert last == "Grass,soil_ph,5,,0,"

    def test_two_factors_separable(self, tmp_path):
        stats = [_factor_stats(factor="soil_ph"), _factor_stats(factor="soil_p")]
        path = emit_factor_series(stats, tmp_path / "series.csv")
        factors = {line.split(",")[1] for line in path.read_text().splitlines()[1:]}
        assert factors == {"soil_ph", "soil_p"}

    def test_sorted_by_factor_then_crop(self, tmp_path):
        stats = [
            _factor_stats(crop="Zeta", factor="soil_ph"),
            _factor_stats(crop="Alpha", factor="soil_ph"),
            _factor_stats(crop="Mid", factor="herbicide"),
        ]
        path = emit_factor_series(stats, tmp_path / "series.csv")
        keys = [
            (line.split(",")[1], line.split(",")[0])  # (factor, crop)
            for line in path.read_text().splitlines()[1:]
        ]
        assert keys == sorted(keys)


    def test_json_format_one_object_per_csv_row(self, tmp_path):
        stats = [_factor_stats(crop="Zeta"), _factor_stats(crop="Alpha", factor="herbicide")]
        csv_lines = emit_factor_series(stats, tmp_path / "series.csv").read_text().splitlines()
        path = emit_factor_series(stats, tmp_path / "series.json", FORMAT_JSON)
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        assert [(d["crop"], d["factor"], d["group"], d["count"]) for d in doc] == [
            (c, f, int(g), int(n)) for c, f, g, _, n, _ in (line.split(",") for line in csv_lines[1:])
        ]
        assert doc[0] == {"crop": "Alpha", "factor": "herbicide", "group": 1, "mean": 6.0, "count": 4, "sd": 0.1}
        assert doc[4] == {"crop": "Alpha", "factor": "herbicide", "group": 5, "mean": None, "count": 0, "sd": None}

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_factor_series([_factor_stats()], tmp_path / "series.md", FORMAT_MARKDOWN)

    def test_delimited_quotes_crop_names(self, tmp_path):
        names = ["Oats, naked", 'Rye "Hybrid"', "Grass"]
        path = emit_factor_series([_factor_stats(crop=n) for n in names], tmp_path / "series.csv")
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[5] == ["Grass", "soil_ph", "5", "", "0", ""]
        assert {len(r) for r in rows} == {6}
        assert [r[0] for r in rows[1:]] == [n for n in sorted(names) for _ in range(5)]

class TestFindings:
    def test_json_round_trip(self, tmp_path):
        findings = [
            _finding(),
            _finding(crop="Winter Oats", verdict="not-discriminative", statistic=0.02),
            _finding(crop="Rare Crop", verdict="insufficient-data", statistic=None),
        ]
        path = emit_findings(findings, FORMAT_JSON, tmp_path / "findings.json")
        assert load_findings(path) == findings

    def test_json_entry_schema(self, tmp_path):
        path = emit_findings([_finding()], FORMAT_JSON, tmp_path / "findings.json")
        (entry,) = json.loads(path.read_text())
        assert set(entry) == {"crop", "factor", "verdict", "value", "unit", "evidence"}
        assert set(entry["evidence"]) == {"group_means", "group_counts", "rule", "statistic"}

    def test_markdown_optimal_line(self, tmp_path):
        path = emit_findings([_finding()], FORMAT_MARKDOWN, tmp_path / "findings.md")
        text = path.read_text()
        assert "Grass" in text and "6.0" in text and "pH" in text

    def test_markdown_sections(self, tmp_path):
        findings = [
            _finding(),
            _finding(crop="Winter Oats", verdict="not-discriminative"),
            _finding(crop="Rare Crop", verdict="insufficient-data"),
        ]
        text = emit_findings(findings, FORMAT_MARKDOWN, tmp_path / "f.md").read_text()
        assert "### No optimum found" in text
        assert "Winter Oats" in text.split("### No optimum found")[1]
        assert "### Insufficient data" in text

    def test_empty_findings_valid_file(self, tmp_path):
        path = emit_findings([], FORMAT_JSON, tmp_path / "findings.json")
        assert json.loads(path.read_text()) == []
        assert load_findings(path) == []

    def test_integer_units_render_without_decimal(self, tmp_path):
        finding = OptimalFinding(
            crop="Winter Dried Beans", factor="soil_p", verdict="optimal", value=21.0, unit="mg/l",
            evidence=Evidence(group_means=(21.0,) * 5, group_counts=(5,) * 5,
                              rule=SignificanceRule().as_dict(), statistic=0.5),
        )
        text = emit_findings([finding], FORMAT_MARKDOWN, tmp_path / "f.md").read_text()
        assert "21 mg/l" in text

    def test_markdown_optimum_of_unknown_factor_rejected(self, tmp_path):
        # the reported precision comes from the factor table, which has no entry for it
        path = tmp_path / "f.md"
        with pytest.raises(ConfigError, match="soil_zn"):
            emit_findings([_finding(factor="soil_zn")], FORMAT_MARKDOWN, path)
        assert not path.exists()


class TestRunMetadata:
    def test_contents(self, tmp_path):
        path = write_run_metadata(
            tmp_path / "meta.json",
            catalog_digest="abc",
            snapshot_digest="def",
            rule=SignificanceRule().as_dict(),
            timestamp="2026-08-10T00:00:00+00:00",
        )
        doc = json.loads(path.read_text())
        assert doc["catalog_digest"] == "abc"
        assert doc["snapshot_digest"] == "def"
        assert doc["rule"]["kind"] == "relative-gap"
        assert doc["timestamp"].startswith("2026-08-10")
