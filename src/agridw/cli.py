"""agridw command line: catalog validation, ingest, analysis, store verification, synthesis.

Exit codes: 0 success, 1 completed with findings (catalog violations or
ingest rejects), 2 usage or environment failure. Diagnostics go to stderr;
analysis data is written to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import analytics, etl, report, synth
from .catalog import builtin_catalog, catalog_digest, load_catalog, validate_catalog
from .errors import AgriDwError, ConfigError, StoreError
from .etl import FORMAT_DELIMITED, FORMAT_RECORD_JSON, SourceDescriptor, load_mapping, run_pipeline, write_reject_ledger
from .store import DATA_NAME, MANIFEST_NAME, MANIFEST_VERSION, SK_COLUMN, Store, open_store


# Output file suffix per report format; also the `analyze --format` choices.
_SUFFIX = {report.FORMAT_DELIMITED: ".csv", report.FORMAT_JSON: ".json", report.FORMAT_MARKDOWN: ".md"}


def _load_catalog_arg(path: str | None):
    if path is None:
        return builtin_catalog()
    return load_catalog(path)


def _open_existing_store(args) -> Store:
    """Open ``--store`` under ``--catalog``; a path with no manifest is refused, never created."""
    catalog = _load_catalog_arg(args.catalog)
    if not (Path(args.store) / MANIFEST_NAME).is_file():
        raise StoreError(f"no store manifest in {Path(args.store)}")
    return open_store(args.store, catalog)


# Rule spec prefix -> (rule kind, its optional parts with their parsers, in order).
_RULE_SPECS = {
    "gap": (analytics.RULE_RELATIVE_GAP, (("threshold", float), ("min_count", int))),
    "welch": (analytics.RULE_WELCH_T, (("alpha", float), ("min_count", int))),
}


def _parse_rule(text: str) -> analytics.SignificanceRule:
    """Rule syntax: gap[:<threshold>[:<min-count>]] or welch[:<alpha>[:<min-count>]].

    An omitted part takes the SignificanceRule default.
    """
    name, *parts = text.split(":")
    if name not in _RULE_SPECS:
        raise ConfigError(f"unknown rule {name!r}; use gap:<threshold> or welch:<alpha>")
    kind, fields = _RULE_SPECS[name]
    if len(parts) > len(fields):
        raise ConfigError(f"bad rule spec {text!r}: at most {len(fields)} parts after {name!r}")
    try:
        given = {key: parse(part) for (key, parse), part in zip(fields, parts)}
    except ValueError as exc:
        raise ConfigError(f"bad rule spec {text!r}: {exc}") from exc
    return analytics.SignificanceRule(kind=kind, **given)


def _violation_text(v) -> str:
    attr = f".{v.attribute}" if v.attribute else ""
    return f"{v.table}{attr}: [{v.rule}] {v.message}"


def _cmd_catalog_validate(args) -> int:
    catalog = _load_catalog_arg(args.catalog)
    violations = validate_catalog(catalog)
    for v in violations:
        print(_violation_text(v))
    if violations:
        return 1
    print(f"catalog ok: {len(catalog.tables)} tables, digest {catalog_digest(catalog)}")
    return 0


def _cmd_ingest(args) -> int:
    if len(args.source) != len(args.mapping):
        raise ConfigError("--source and --mapping must be given in matching pairs")
    catalog = _load_catalog_arg(args.catalog)
    violations = validate_catalog(catalog) if args.catalog is not None else []  # the builtin one is checked at load
    if violations:  # before the store is opened, so a broken catalog creates no store
        raise ConfigError(f"catalog {args.catalog} violates its rules: " + "; ".join(map(_violation_text, violations)))
    pairs = []
    for src_path, map_path in zip(args.source, args.mapping):
        fmt = FORMAT_RECORD_JSON if Path(src_path).suffix == ".jsonl" else FORMAT_DELIMITED
        pairs.append((SourceDescriptor(path=src_path, format=fmt), load_mapping(map_path)))
    for _, spec in pairs:
        etl.CompiledMapping(spec, catalog)  # raises for a mapping that does not fit the catalog
    store = open_store(args.store, catalog)  # after every mapping compiles, so a refused one creates no store
    load_report = run_pipeline(pairs, catalog, store)
    ledger_path = Path(args.rejects) if args.rejects else Path(args.store) / "reject_ledger.csv"
    write_reject_ledger(load_report.rejects, ledger_path)
    print(load_report.format_summary(), file=sys.stderr)
    print(f"reject ledger: {ledger_path}", file=sys.stderr)
    return 1 if load_report.rejects else 0


def _cmd_analyze(args) -> int:
    rule = _parse_rule(args.rule)
    if args.mode == "factor" and args.factor not in analytics.FACTORS:
        print(f"unknown factor {args.factor!r}; valid factors: {', '.join(analytics.FACTORS)}", file=sys.stderr)
        return 2
    if args.mode == "factor" and args.format == report.FORMAT_MARKDOWN:
        raise ConfigError("factor series have no markdown format; use --format delimited or json")
    store = _open_existing_store(args)
    if not store.row_count("FieldFact"):
        raise ConfigError("store has no FieldFact rows to analyze")
    snapshot = store.snapshot()
    out_dir = Path(args.out)
    records = analytics.extract_yield_records(snapshot)  # decodes only the columns it reads

    if args.mode == "groups":
        assignments = analytics.assign_groups(records)
        stats = [analytics.yield_group_stats(a) for a in assignments.values()]
        path = report.emit_group_table(stats, args.format, out_dir / f"group_table{_SUFFIX[args.format]}")
        print(f"group table: {path}", file=sys.stderr)
    elif args.mode == "factor":
        assignments = analytics.assign_groups(records)
        stats = [analytics.factor_group_means(a, args.factor) for a in assignments.values()]
        path = out_dir / f"factor_{args.factor}{_SUFFIX[args.format]}"
        path = report.emit_factor_series(stats, path, args.format)
        print(f"factor series: {path}", file=sys.stderr)
    else:  # mine
        findings = analytics.mine_optima_from_records(records, rule)
        json_path = report.emit_findings(findings, report.FORMAT_JSON, out_dir / "findings.json")
        md_path = report.emit_findings(findings, report.FORMAT_MARKDOWN, out_dir / "findings.md")
        report.write_run_metadata(
            out_dir / "run_metadata.json",
            catalog_digest=store.catalog_digest,
            snapshot_digest=snapshot.digest,
            rule=rule.as_dict(),
        )
        print(f"findings: {json_path}, {md_path}", file=sys.stderr)
    return 0


def _check_keys(snapshot, table) -> None:
    """What joins rely on: a dimension's ``sk`` column is 1..N in order and each
    foreign key is absent or in ``1..row_count`` of its table; else a StoreError naming the column."""
    names, rows = snapshot.column_names(table.name), snapshot.row_count(table.name)
    columns = dict(zip(names, snapshot.columns(table.name, names)))
    if SK_COLUMN in columns and columns[SK_COLUMN] != tuple(range(1, rows + 1)):
        raise StoreError(f"{table.name}.{SK_COLUMN}: the keys are not the row positions 1..{rows}")
    for attr in (a for a in table.attributes if a.kind == "foreign-key"):
        limit = snapshot.row_count(attr.references)
        if any(key is not None and not 1 <= key <= limit for key in columns[attr.name]):
            raise StoreError(f"{table.name}.{attr.name}: a key outside 1..{limit} of {attr.references!r}")


def _cmd_store_verify(args) -> int:
    store = _open_existing_store(args)
    snapshot = store.snapshot()  # open checks digests, headers and row counts; _check_keys decodes every cell
    print(f"manifest version {MANIFEST_VERSION}")
    names = sorted(snapshot.table_digests)
    for name in names:
        _check_keys(snapshot, store.catalog.table(name))
        size = (store.path / name / DATA_NAME).stat().st_size
        print(f"{name}: {snapshot.row_count(name)} rows, {size} bytes, digest {snapshot.table_digests[name]}")
    print(f"store ok: {len(names)} tables verified")
    return 0


def _cmd_synth(args) -> int:
    config = synth.SynthConfig.from_json_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = synth.generate(config, args.out)
    print(f"generated {len(config.crops)} crops x {config.records_per_crop} records in {result.out_dir}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agridw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="catalog operations")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    p_validate = catalog_sub.add_parser("validate", help="check catalog invariants")
    p_validate.add_argument("--catalog", help="catalog JSON path (default: builtin)")
    p_validate.set_defaults(func=_cmd_catalog_validate)

    p_ingest = sub.add_parser("ingest", help="load sources into a store")
    p_ingest.add_argument("--store", required=True, help="store directory")
    p_ingest.add_argument("--catalog", help="catalog JSON path (default: builtin)")
    p_ingest.add_argument("--source", action="append", default=[], help="source file, record JSON if *.jsonl (repeatable)")
    p_ingest.add_argument("--mapping", action="append", default=[], help="mapping spec file (repeatable)")
    p_ingest.add_argument("--rejects", help="reject ledger path (default: <store>/reject_ledger.csv)")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_analyze = sub.add_parser("analyze", help="run yield-group analyses")
    p_analyze.add_argument("mode", choices=("groups", "factor", "mine"))
    p_analyze.add_argument("--store", required=True, help="store directory")
    p_analyze.add_argument("--catalog", help="catalog JSON path (default: builtin)")
    p_analyze.add_argument("--out", required=True, help="output directory")
    p_analyze.add_argument("--rule", default="gap:0.10", help="gap:<threshold> or welch:<alpha>")
    p_analyze.add_argument("--factor", help="factor name for 'factor' mode")
    p_analyze.add_argument("--format", choices=tuple(_SUFFIX), default=report.FORMAT_DELIMITED)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_store = sub.add_parser("store", help="store operations")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_verify = store_sub.add_parser("verify", help="check every table against the manifest, read-only")
    p_verify.add_argument("--store", required=True, help="store directory")
    p_verify.add_argument("--catalog", help="catalog JSON path (default: builtin)")
    p_verify.set_defaults(func=_cmd_store_verify)

    p_synth = sub.add_parser("synth", help="generate synthetic sources")
    p_synth.add_argument("--config", required=True, help="synth config JSON")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, help="override the config seed")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AgriDwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
