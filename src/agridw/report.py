"""Rendering of analysis outputs: group tables, factor series, findings.

All emitted files are UTF-8 with LF endings and reproducible byte-for-byte
from the same inputs; the run timestamp lives only in the metadata file.
"""

from __future__ import annotations

import io
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .analytics import (
    FACTOR_SPECS,
    GROUPS,
    Evidence,
    FactorGroupStats,
    GroupYieldStats,
    OptimalFinding,
    VERDICT_INSUFFICIENT,
    VERDICT_NOT_DISCRIMINATIVE,
    VERDICT_OPTIMAL,
)
from .errors import ConfigError
from .util import atomic_write_text, canonical_json, csv_line, format_decimal

FORMAT_DELIMITED = "delimited"
FORMAT_JSON = "json"
FORMAT_MARKDOWN = "markdown"


def _pct_text(pct: float) -> str:
    return "0" if pct == 0.0 else f"{pct:+.1f}"


def _group_rows(stats: Sequence[GroupYieldStats]) -> list[tuple[int, str, str, str]]:
    rows = []
    for s in sorted(stats, key=lambda s: s.crop):
        for g in GROUPS:
            rows.append((g, s.crop, f"{s.means[g - 1]:.2f}", _pct_text(s.pcts[g - 1])))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def emit_group_table(stats: Sequence[GroupYieldStats], fmt: str, path: str | Path) -> Path:
    """Yield-group table: group, crop, mean_yield, pct_vs_g3 sorted by (crop, group)."""
    if not stats:
        raise ConfigError("no group statistics to emit")
    rows = _group_rows(stats)
    if fmt == FORMAT_DELIMITED:
        out = io.StringIO()
        out.write("group,crop,mean_yield,pct_vs_g3\n")
        for g, crop, mean, pct in rows:
            out.write(csv_line([str(g), crop, mean, pct]))
        return atomic_write_text(Path(path), out.getvalue())
    if fmt == FORMAT_JSON:
        payload = [
            {"group": g, "crop": crop, "mean_yield": float(mean), "pct_vs_g3": float(pct)}
            for g, crop, mean, pct in rows
        ]
        return atomic_write_text(Path(path), canonical_json(payload))
    if fmt == FORMAT_MARKDOWN:
        out = io.StringIO()
        out.write("| group | crop | mean_yield | pct_vs_g3 |\n")
        out.write("| --- | --- | --- | --- |\n")
        for g, crop, mean, pct in rows:
            out.write(f"| {g} | {crop} | {mean} | {pct} |\n")
        return atomic_write_text(Path(path), out.getvalue())
    raise ConfigError(f"unknown group table format {fmt!r}")


_FACTOR_COLUMNS = ("crop", "factor", "group", "mean", "count", "sd")


def _decimal_or_blank(value: float | None) -> str:
    return "" if value is None else format_decimal(value)


def emit_factor_series(
    stats: Sequence[FactorGroupStats], path: str | Path, fmt: str = FORMAT_DELIMITED
) -> Path:
    """Plot-ready factor series, one row per (factor, crop, group): crop, factor, group, mean, count, sd."""
    if not stats:
        raise ConfigError("no factor statistics to emit")
    rows = [
        (s.crop, s.factor, g, s.means[g - 1], s.counts[g - 1], s.sds[g - 1])
        for s in sorted(stats, key=lambda s: (s.factor, s.crop))
        for g in GROUPS
    ]
    if fmt == FORMAT_DELIMITED:
        out = io.StringIO()
        out.write(csv_line(_FACTOR_COLUMNS))
        for crop, factor, g, mean, count, sd in rows:
            out.write(csv_line([crop, factor, str(g), _decimal_or_blank(mean), str(count), _decimal_or_blank(sd)]))
        return atomic_write_text(Path(path), out.getvalue())
    if fmt == FORMAT_JSON:
        payload = [dict(zip(_FACTOR_COLUMNS, row)) for row in rows]
        return atomic_write_text(Path(path), canonical_json(payload))
    raise ConfigError(f"unknown factor series format {fmt!r}")


# --- findings ---------------------------------------------------------------

def finding_to_dict(finding: OptimalFinding) -> dict:
    return {
        "crop": finding.crop,
        "factor": finding.factor,
        "verdict": finding.verdict,
        "value": finding.value,
        "unit": finding.unit,
        "evidence": {
            "group_means": list(finding.evidence.group_means),
            "group_counts": list(finding.evidence.group_counts),
            "rule": dict(finding.evidence.rule),
            "statistic": finding.evidence.statistic,
        },
    }


def finding_from_dict(doc: Mapping) -> OptimalFinding:
    ev = doc["evidence"]
    return OptimalFinding(
        crop=doc["crop"],
        factor=doc["factor"],
        verdict=doc["verdict"],
        value=doc["value"],
        unit=doc["unit"],
        evidence=Evidence(
            group_means=tuple(ev["group_means"]),
            group_counts=tuple(ev["group_counts"]),
            rule=dict(ev["rule"]),
            statistic=ev["statistic"],
        ),
    )


def _value_text(finding: OptimalFinding) -> str:
    assert finding.value is not None
    spec = FACTOR_SPECS.get(finding.factor)
    if spec is None:
        raise ConfigError(f"finding for unknown factor {finding.factor!r}")
    return f"{finding.value:.{spec.digits}f}"


def _findings_markdown(findings: Sequence[OptimalFinding]) -> str:
    out = io.StringIO()
    out.write("# Optimal factor quantities by crop\n")
    factors_seen = []
    for f in findings:
        if f.factor not in factors_seen:
            factors_seen.append(f.factor)
    for factor in factors_seen:
        subset = [f for f in findings if f.factor == factor]
        unit = subset[0].unit
        out.write(f"\n## {factor} ({unit})\n\n")
        optimal = [f for f in subset if f.verdict == VERDICT_OPTIMAL]
        flat = [f for f in subset if f.verdict == VERDICT_NOT_DISCRIMINATIVE]
        thin = [f for f in subset if f.verdict == VERDICT_INSUFFICIENT]
        for f in optimal:
            out.write(f"- {f.crop}: optimal quantity {_value_text(f)} {unit} (group-1 mean).\n")
        if not optimal:
            out.write("- No crop shows an optimum for this factor.\n")
        if flat:
            out.write("\n### No optimum found\n\n")
            for f in flat:
                out.write(f"- {f.crop}: yield groups do not separate on {factor}.\n")
        if thin:
            out.write("\n### Insufficient data\n\n")
            for f in thin:
                out.write(f"- {f.crop}: too few records with {factor} values.\n")
    return out.getvalue()


def emit_findings(findings: Sequence[OptimalFinding], fmt: str, path: str | Path) -> Path:
    """Findings document; JSON round-trips exactly via load_findings."""
    if fmt == FORMAT_JSON:
        text = json.dumps([finding_to_dict(f) for f in findings], ensure_ascii=False, indent=2) + "\n"
        return atomic_write_text(Path(path), text)
    if fmt == FORMAT_MARKDOWN:
        return atomic_write_text(Path(path), _findings_markdown(findings))
    raise ConfigError(f"unknown findings format {fmt!r}")


def load_findings(path: str | Path) -> list[OptimalFinding]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [finding_from_dict(entry) for entry in doc]


def write_run_metadata(
    path: str | Path,
    *,
    catalog_digest: str,
    snapshot_digest: str,
    rule: Mapping,
    timestamp: str | None = None,
) -> Path:
    """Run provenance; the only emitted file that carries a timestamp."""
    stamp = timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat()
    payload = {
        "catalog_digest": catalog_digest,
        "snapshot_digest": snapshot_digest,
        "rule": dict(rule),
        "timestamp": stamp,
    }
    return atomic_write_text(Path(path), canonical_json(payload))
