"""Source extraction, declarative field mapping, and validated warehouse loading.

Raw rows come from RFC 4180 delimited files or line-oriented JSON records.
A MappingSpec turns each raw row into a typed row for one catalog table via
a per-binding transform chain; every failure becomes a RejectRecord with a
machine-readable reason, never a dropped row.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from dataclasses import dataclass, field
from datetime import datetime
from decimal import Decimal
from importlib import resources
from math import isfinite
from pathlib import Path
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from types import NoneType
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

from .catalog import Catalog, TableDef
from .errors import ConfigError, MappingError, UnitConversionError
from .store import Batch
from .util import atomic_write_text, csv_line, csv_records

if TYPE_CHECKING:
    from .store import Store

REASON_TYPE = "type-error"
REASON_UNIT = "unit-error"
REASON_MISSING = "missing-required"
REASON_SYNONYM = "synonym-miss"
REASON_RANGE = "range-error"
REJECT_REASONS = (REASON_TYPE, REASON_UNIT, REASON_MISSING, REASON_SYNONYM, REASON_RANGE)

# Binding marker for rejects that concern the whole row, not one binding.
STRUCTURAL_BINDING = "<row>"

FORMAT_DELIMITED = "delimited-text"
FORMAT_RECORD_JSON = "record-json"

# Accepted range per unit token: (lo, hi, lo_exclusive).
RANGE_BOUNDS: dict[str, tuple[float, float, bool]] = {
    "pH": (3.0, 10.0, False),
    "mg/l": (0.0, 10000.0, False),
    "ton/ha": (0.0, 200.0, True),
}

# Unit token -> (dimension family, decimal exponent relative to the family base).
_UNIT_SCALE: dict[str, tuple[str, int]] = {
    "g/ha": ("mass-per-area", 0),
    "kg/ha": ("mass-per-area", 3),
    "t/ha": ("mass-per-area", 6),
    "ton/ha": ("mass-per-area", 6),
    "mg/l": ("concentration", 0),
    "pH": ("acidity", 0),
    "l/ha": ("volume-per-area", 0),
}

TRANSFORM_OPS = ("rename", "parse-number", "parse-date", "unit-convert", "synonym", "constant", "nullable-default")


@dataclass(frozen=True)
class SourceDescriptor:
    """One raw input file, always UTF-8; a delimited one starts with its header row."""

    path: str
    format: str = FORMAT_DELIMITED
    delimiter: str = ","

    def __post_init__(self):
        if not self.path:
            raise ConfigError("source path must be non-empty")
        if self.format not in (FORMAT_DELIMITED, FORMAT_RECORD_JSON):
            raise ConfigError(f"unknown source format {self.format!r}")
        if len(self.delimiter) != 1:
            raise ConfigError("delimiter must be a single character")


class RawRow(NamedTuple):
    """A raw source row: text fields by name; empty fields are absent."""

    source: str
    number: int  # 1-based data row number, header excluded
    fields: Mapping[str, str]
    raw: str


@dataclass(frozen=True)
class RejectRecord:
    source: str
    row: int
    binding: str
    reason: str
    raw: str


@dataclass(frozen=True)
class Transform:
    op: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Binding:
    source: str
    target: str
    transforms: tuple[Transform, ...] = ()


@dataclass(frozen=True)
class MappingSpec:
    target_table: str
    bindings: tuple[Binding, ...]


@dataclass
class TableLoadStats:
    table: str
    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    upserts_new: int = 0
    upserts_deduped: int = 0
    elapsed_s: float = 0.0


@dataclass
class LoadReport:
    tables: dict[str, TableLoadStats] = field(default_factory=dict)
    rejects: list[RejectRecord] = field(default_factory=list)

    def stats_for(self, table: str) -> TableLoadStats:
        if table not in self.tables:
            self.tables[table] = TableLoadStats(table=table)
        return self.tables[table]

    @property
    def total_read(self) -> int:
        return sum(s.rows_read for s in self.tables.values())

    @property
    def total_accepted(self) -> int:
        return sum(s.rows_accepted for s in self.tables.values())

    @property
    def total_rejected(self) -> int:
        return sum(s.rows_rejected for s in self.tables.values())

    def format_summary(self) -> str:
        lines = ["table               read  accepted  rejected  new-dims  deduped   seconds"]
        for name in sorted(self.tables):
            s = self.tables[name]
            lines.append(
                f"{name:<18} {s.rows_read:>5} {s.rows_accepted:>9} {s.rows_rejected:>9}"
                f" {s.upserts_new:>9} {s.upserts_deduped:>8} {s.elapsed_s:>9.3f}"
            )
        lines.append(
            f"total: {self.total_read} read, {self.total_accepted} accepted, {self.total_rejected} rejected"
        )
        return "\n".join(lines)


# --- reading sources ------------------------------------------------------

class SourceColumns(NamedTuple):
    """A source read whole. Each row ``csv_records`` or the JSON reader
    frames is numbered from 1; a malformed one is a structural reject, and
    each other one has its number and raw text at one position of
    ``numbers`` and ``raws`` and its cells at the same position of
    ``columns``: one list per source column, None for an empty field."""

    numbers: list[int]
    raws: list[str]
    columns: dict[str, list[str | None]]
    rejects: list[RejectRecord]


def _reject(source: str, number: int, raw: str, binding: str = STRUCTURAL_BINDING, reason: str = REASON_TYPE) -> RejectRecord:
    """The reject of row ``number``; a structural one unless a binding is named."""
    return RejectRecord(source=source, row=number, binding=binding, reason=reason, raw=raw)


def _read_delimited(src: SourceDescriptor) -> SourceColumns:
    with open(src.path, "r", encoding="utf-8-sig", newline="") as handle:
        records = csv_records(handle.read(), src.delimiter)
    header, _ = next(records, ([], ""))
    if header is None:
        raise ConfigError(f"source {src.path}: unreadable header: a cell longer than csv.field_size_limit()")
    records = [record for record in records if record[0] != []]  # a blank line is no row
    width = len(header)
    numbers = [number for number, (cells, _) in enumerate(records, 1) if cells is not None and len(cells) == width]
    rejects = []
    if len(numbers) < len(records):
        kept = set(numbers)
        rejects = [_reject(src.path, number, raw) for number, (_, raw) in enumerate(records, 1) if number not in kept]
        records = [records[number - 1] for number in numbers]
    columns: dict[str, list[str | None]] = {}
    for name, cells in zip(header, zip(*map(itemgetter(0), records)) if records else [()] * width):
        cells = [cell or None for cell in cells]
        # a name the header repeats takes, in each row, its last non-empty cell
        columns[name] = cells if name not in columns else [
            cell if cell is not None else earlier for earlier, cell in zip(columns[name], cells)]
    return SourceColumns(numbers, list(map(itemgetter(1), records)), columns, rejects)


def _json_scalar_text(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value if value != "" else None
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


def _read_record_json(src: SourceDescriptor) -> SourceColumns:
    numbers, raws, rows, rejects = [], [], [], []
    with open(src.path, "r", encoding="utf-8-sig") as handle:
        number = 0
        for line in handle:
            raw = line.rstrip("\r\n")
            if not raw.strip():
                continue
            number += 1
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                rejects.append(_reject(src.path, number, raw))
                continue
            numbers.append(number)
            raws.append(raw)
            rows.append({str(key): text for key, value in record.items() if (text := _json_scalar_text(value)) is not None})
    columns = {name: [row.get(name) for row in rows] for name in dict.fromkeys(chain.from_iterable(rows))}
    return SourceColumns(numbers, raws, columns, rejects)


def read_columns(src: SourceDescriptor) -> SourceColumns:
    """Read a source whole, as columns; malformed rows are structural rejects."""
    if src.format == FORMAT_RECORD_JSON:
        return _read_record_json(src)
    return _read_delimited(src)


def read_source(src: SourceDescriptor) -> Iterator[RawRow | RejectRecord]:
    """The raw rows and structural rejects of ``read_columns``, in file order,
    each row's empty fields left out."""
    source = read_columns(src)
    names = list(source.columns)
    items: list[RawRow | RejectRecord] = [None] * (len(source.numbers) + len(source.rejects))
    for reject in source.rejects:
        items[reject.row - 1] = reject
    cells = zip(*source.columns.values()) if names else repeat(())
    for number, raw, values in zip(source.numbers, source.raws, cells):
        items[number - 1] = RawRow(src.path, number, {n: v for n, v in zip(names, values) if v is not None}, raw)
    return iter(items)


# --- unit conversion and synonyms -----------------------------------------

def convert_unit(value: float, from_unit: str, to_unit: str) -> float:
    """Scale ``value`` between compatible units; identity pairs return the input.

    Scale factors are exact powers of ten applied as a decimal exponent
    shift, so round trips are exact for values the store can represent.
    """
    try:
        family_a, exp_a = _UNIT_SCALE[from_unit]
        family_b, exp_b = _UNIT_SCALE[to_unit]
    except KeyError as exc:
        raise UnitConversionError(f"unknown unit token {exc.args[0]!r}") from None
    if family_a != family_b:
        raise UnitConversionError(f"incompatible unit pair {from_unit!r} -> {to_unit!r}")
    shift = exp_a - exp_b
    if shift == 0:
        return value
    return float(Decimal(repr(float(value))).scaleb(shift))  # a float subclass may repr as no number: np.float64(0.5)


def load_synonym_table(path: str | Path) -> dict[str, str]:
    """Two-column delimited text (variant, canonical) -> lowercase lookup map.

    Every canonical form is also registered as its own variant.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:  # a quoted "\r\n" stays in its cell
        rows = [cells for cells, _ in csv_records(handle.read()) if cells != []]
    if None in rows:
        raise ConfigError(f"synonym table {path}: a cell longer than csv.field_size_limit()")
    if rows and [c.lower() for c in rows[0][:2]] == ["variant", "canonical"]:
        rows = rows[1:]
    table: dict[str, str] = {}
    for row in rows:
        if len(row) < 2:
            continue
        variant, canonical = row[0].strip(), row[1].strip()
        table[variant.lower()] = canonical
        table.setdefault(canonical.lower(), canonical)
    return table


@functools.cache
def builtin_crop_synonyms() -> dict[str, str]:
    """Crop-name harmonization table shipped with the package, loaded once per process."""
    with resources.as_file(resources.files("agridw").joinpath("data/crop_synonyms.csv")) as p:
        return load_synonym_table(p)


def normalize_synonym(value: str, table: Mapping[str, str]) -> str | None:
    """Canonical form for ``value`` (case-insensitive, trimmed), or None on a miss."""
    return table.get(value.strip().lower())


# --- mapping spec ----------------------------------------------------------

def _parse_transform(obj, locus: str) -> Transform:
    if not isinstance(obj, dict) or "op" not in obj:
        raise MappingError(f"{locus}: transform must be an object with an 'op'")
    op = obj["op"]
    if op not in TRANSFORM_OPS:
        raise MappingError(f"{locus}: unknown transform op {op!r}")
    params = {k: v for k, v in obj.items() if k != "op"}
    return Transform(op=op, params=params)


def mapping_from_dict(doc: Mapping) -> MappingSpec:
    if not isinstance(doc, Mapping):
        raise MappingError("mapping spec must be an object")
    target = doc.get("target_table")
    if not isinstance(target, str) or not target:
        raise MappingError("mapping spec needs a target_table")
    raw_bindings = doc.get("bindings")
    if not isinstance(raw_bindings, list) or not raw_bindings:
        raise MappingError("mapping spec needs a non-empty bindings list")
    bindings = []
    for i, raw in enumerate(raw_bindings):
        locus = f"bindings[{i}]"
        if not isinstance(raw, dict):
            raise MappingError(f"{locus}: binding must be an object")
        source = raw.get("source", "")
        target_attr = raw.get("target")
        if not isinstance(target_attr, str) or not target_attr:
            raise MappingError(f"{locus}: binding needs a target attribute")
        transforms = tuple(
            _parse_transform(t, f"{locus}.transforms[{j}]")
            for j, t in enumerate(raw.get("transforms", []))
        )
        bindings.append(Binding(source=str(source), target=target_attr, transforms=transforms))
    return MappingSpec(target_table=target, bindings=tuple(bindings))


def load_mapping(path: str | Path) -> MappingSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MappingError(f"cannot read mapping file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MappingError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
    return mapping_from_dict(doc)


# --- applying mappings ------------------------------------------------------
#
# A mapping runs a column at a time. A step takes a column of values and a
# dict of the positions failed so far with their reasons, and returns the
# column after it. Each rule is stated once, over a column: it returns the
# column after it, or raises ``_BindingFailure``, and it passes a column only
# if it would pass each value alone. A value is checked as a column of one.
# When a rule fails a column, the step halves it until each part passes or
# holds one value, so a failing column is narrowed to its failing values;
# the reason a rule gives for a column of more than one value is never used.

class _BindingFailure(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _stepped(rule: Callable) -> Callable:
    """``rule`` as a step over a column. A value it fails is None after it,
    and its reason is kept unless its position failed an earlier step."""
    def step(values: list, failed: dict[int, str]) -> list:
        def narrowed(start: int, part: list) -> list:
            try:
                return rule(part)
            except _BindingFailure as failure:
                if len(part) == 1:
                    failed.setdefault(start, failure.reason)
                    return [None]
            half = len(part) // 2
            return narrowed(start, part[:half]) + narrowed(start + half, part[half:])

        return narrowed(0, values)

    return step


def _as_float(values: list) -> list:
    """Each non-bool int or float as a float, None kept; any other value, or
    an int beyond float range, is a type error."""
    types = set(map(type, values))
    if types <= {float, NoneType}:
        return values
    if bool in types or not all(issubclass(t, (int, float, NoneType)) for t in types):
        raise _BindingFailure(REASON_TYPE)
    try:
        return [None if v is None else float(v) for v in values]
    except OverflowError:
        raise _BindingFailure(REASON_TYPE) from None


def _parse_number(values: list) -> list:
    """Text, or a non-bool int or float, as a finite float; None kept. A
    column that mixes text and numbers fails as a whole and is narrowed."""
    if all(issubclass(t, (str, NoneType)) for t in set(map(type, values))):
        try:
            values = [None if text is None else float(text) for text in values]
        except ValueError:
            raise _BindingFailure(REASON_TYPE) from None
    else:
        values = _as_float(values)
    if not all(map(isfinite, filter(None, values))):  # filter(None) leaves out None and the zeros
        raise _BindingFailure(REASON_TYPE)
    return values


def _compile_transform(t: Transform) -> Callable | None:
    """The step for one transform, None for a rename, which changes no value;
    MappingError for an unknown op or a bad parameter."""
    if t.op == "rename":
        return None
    if t.op == "parse-number":
        return _stepped(_parse_number)
    if t.op == "parse-date":
        pattern = t.params.get("pattern")
        if not isinstance(pattern, str):
            raise MappingError("parse-date needs a pattern")

        def parse_date(values):
            try:
                return [None if v is None else datetime.strptime(str(v), pattern).date().isoformat() for v in values]
            except ValueError:
                raise _BindingFailure(REASON_TYPE) from None

        return _stepped(parse_date)
    if t.op == "unit-convert":
        from_unit, to_unit = t.params.get("from"), t.params.get("to")
        if not isinstance(from_unit, str) or not isinstance(to_unit, str):
            raise MappingError("unit-convert needs 'from' and 'to'")

        def unit_convert(values):
            if not all(issubclass(t, (float, NoneType)) for t in set(map(type, values))):
                raise _BindingFailure(REASON_TYPE)
            try:
                return [None if v is None else convert_unit(v, from_unit, to_unit) for v in values]
            except UnitConversionError:
                raise _BindingFailure(REASON_UNIT) from None

        return _stepped(unit_convert)
    if t.op == "synonym":
        name = t.params.get("table")
        if name != "crop-names":  # the builtin table is the only one
            raise MappingError(f"unknown synonym table {name!r}")
        table = builtin_crop_synonyms()

        def lookup(values):
            out = [None if v is None else normalize_synonym(str(v), table) for v in values]
            if out.count(None) != values.count(None):
                raise _BindingFailure(REASON_SYNONYM)
            return out

        return _stepped(lookup)
    if t.op in ("constant", "nullable-default"):
        if "value" not in t.params:
            raise MappingError(f"{t.op} needs a value")
        value = t.params["value"]
        if t.op == "constant":
            return lambda values, failed: [value] * len(values)
        return lambda values, failed: [value if v is None else v for v in values]
    raise MappingError(f"unknown transform op {t.op!r}")


def _compile_check(kind: str, nullable: bool, bounds: tuple[float, float, bool] | None) -> Callable:
    """The step that ends a binding's chain. Within one value: missing-required,
    then for a number the type, range and finiteness checks, and for any
    other kind the text check: a foreign key's text is resolved later, and
    any other text must be one the store holds, non-empty and no longer than
    ``csv.field_size_limit()``."""
    def check(values):
        if not nullable and None in values:
            raise _BindingFailure(REASON_MISSING)
        if kind == "number":
            values = _as_float(values)
        present = values if None not in values else [v for v in values if v is not None]
        if kind == "number":
            if present and bounds is not None:
                lo, hi, lo_exclusive = bounds
                low = min(present)  # a NaN may hide from min and max; it fails as not finite below
                if low < lo or max(present) > hi or (lo_exclusive and low == lo):
                    raise _BindingFailure(REASON_RANGE)
            if not all(map(isfinite, present)):  # e.g. a unit conversion that overflowed
                raise _BindingFailure(REASON_TYPE)
        elif not all(issubclass(t, str) for t in set(map(type, present))) or kind != "foreign-key" and (
                "" in present or max(map(len, present), default=0) > csv.field_size_limit()):
            raise _BindingFailure(REASON_TYPE)
        return values

    return _stepped(check)


class CompiledMapping:
    """A MappingSpec checked against a catalog and compiled to column steps."""

    def __init__(self, spec: MappingSpec, catalog: Catalog):
        """MappingError listing every problem that makes ``spec`` unusable against ``catalog``."""
        table = catalog.table(spec.target_table)
        if table is None:
            raise MappingError(f"mapping for {spec.target_table!r}: target_table {spec.target_table!r} not in catalog")
        plan, problems = [], []
        bound: set[str] = set()
        for binding in spec.bindings:
            attr = table.attribute(binding.target)
            if attr is None:
                problems.append(f"target attribute {binding.target!r} not in table {table.name!r}")
                continue
            bound.add(attr.name)
            if sum(t.op == "unit-convert" for t in binding.transforms) > 1:
                problems.append(f"binding {binding.target!r}: at most one unit-convert allowed")
            steps = []
            for t in binding.transforms:
                try:
                    step = _compile_transform(t)
                except MappingError as exc:
                    problems.append(f"binding {binding.target!r}: {exc}")
                    continue
                if step is not None:
                    steps.append(step)
            bounds = RANGE_BOUNDS.get(attr.unit) if attr.kind == "number" and attr.unit else None
            steps.append(_compile_check(attr.kind, attr.nullable, bounds))
            plan.append((binding.source, attr.name, steps))
        for attr in table.attributes:
            if not attr.nullable and attr.name not in bound:
                problems.append(f"non-nullable attribute {attr.name!r} is neither bound nor constant")
        if problems:
            raise MappingError(f"mapping for {spec.target_table!r}: " + "; ".join(problems))
        self.spec = spec
        self.table: TableDef = table
        self._plan = plan

    def map_columns(self, columns: Mapping[str, list], count: int) -> tuple[list[tuple[str, list]], dict[int, tuple[str, str]]]:
        """Each binding's target and typed column, in binding order, and the
        ``(binding, reason)`` of each failed position: that of the first
        binding that fails it. ``columns`` holds one list of ``count`` values
        per source column, None where absent. Each binding runs its transform
        chain over its column, then the checks ``_compile_check`` states."""
        typed, failed = [], {}
        for source, name, steps in self._plan:
            values = columns.get(source) or [None] * count
            reasons: dict[int, str] = {}
            for step in steps:
                values = step(values, reasons)
            for i, reason in reasons.items():
                failed.setdefault(i, (name, reason))
            typed.append((name, values))
        return typed, failed

    def apply(self, row: RawRow) -> dict | RejectRecord:
        """The typed row, or the reject for the first binding that fails:
        ``map_columns`` over the one row."""
        typed, failed = self.map_columns({name: [value] for name, value in row.fields.items()}, 1)
        if failed:
            return _reject(row.source, row.number, row.raw, *failed[0])
        return {name: values[0] for name, values in typed if values[0] is not None}


# --- pipeline ---------------------------------------------------------------

def _ledger_raw(raw: str) -> str:
    """``raw`` as the ledger holds it: when longer than ``csv.field_size_limit()``,
    a prefix plus a marker stating the full length, so that ``csv.reader``
    reads the ledger back."""
    limit = csv.field_size_limit()
    if len(raw) <= limit:
        return raw
    marker = f"...[cut: {len(raw)} characters]"
    return raw[:limit - len(marker)] + marker


def write_reject_ledger(rejects: Sequence[RejectRecord], path: str | Path) -> Path:
    """Full reject ledger as delimited text: source,row,binding,reason,raw."""
    out = io.StringIO()
    out.write("source,row,binding,reason,raw\n")
    for r in rejects:
        out.write(csv_line([r.source, str(r.row), r.binding, r.reason, _ledger_raw(r.raw)]))
    return atomic_write_text(Path(path), out.getvalue())


def _resolve_foreign_keys(
    fk_keys: Sequence[tuple[str, Mapping[str, int]]], columns: dict[str, list], failed: dict[int, tuple[str, str]]
) -> None:
    """Replace each foreign-key column by the ``sk`` of each value, looked up
    in the key map paired with its attribute, one column at a time in
    attribute order; a value that resolves to nothing fails its position as
    missing-required, unless the position failed already."""
    for attr_name, keys in fk_keys:
        texts = columns.get(attr_name)
        if texts is None:
            continue
        sks = columns[attr_name] = list(map(keys.get, texts))  # ``map_columns`` passes a foreign key only as text
        if sks.count(None) != texts.count(None):
            for i, (text, sk) in enumerate(zip(texts, sks)):
                if sk is None and text is not None:
                    failed.setdefault(i, (attr_name, REASON_MISSING))


def _merged(typed: list[tuple[str, list]]) -> dict[str, list]:
    """One column per attribute: an attribute bound twice takes, in each
    row, the later binding's value unless that is None."""
    columns: dict[str, list] = {}
    for name, values in typed:
        earlier = columns.get(name)
        columns[name] = values if earlier is None else [e if v is None else v for e, v in zip(earlier, values)]
    return columns


def run_pipeline(sources: Sequence[tuple[SourceDescriptor, MappingSpec]], catalog: Catalog, store: "Store") -> LoadReport:
    """Load all sources: dimensions first, then facts, with a full reject ledger.

    Each source is read whole as columns and mapped a column at a time.
    Every row resolves each foreign-key value against the referenced
    dimension's leading natural-key part, through one key map per referenced
    table read when its source starts, and is rejected as missing-required
    when unresolved, so a dimension's source must be listed before that of
    any dimension that references it. Each source's accepted rows go to the
    store as one ``Batch``: dimension rows are upserted by natural key (first
    write wins), fact rows inserted. A dimension that references itself is
    written a row at a time, so that a row resolves against the earlier rows
    of its own source. The store is flushed after each source, and a
    source's rejects are reported in row order.
    """
    compiled = [(src, CompiledMapping(spec, catalog)) for src, spec in sources]

    report = LoadReport()
    ordered = [c for c in compiled if not c[1].table.is_fact] + [c for c in compiled if c[1].table.is_fact]

    with store.exclusive_lock():
        for src, mapping in ordered:
            table = mapping.table
            stats = report.stats_for(table.name)
            started = time.perf_counter()
            rows_before = store.row_count(table.name)
            fk_attrs = [(a.name, a.references) for a in table.attributes if a.kind == "foreign-key"]
            fk_keys = [(name, store.dimension_keys(ref)) for name, ref in fk_attrs]
            source = read_columns(src)
            count = len(source.numbers)
            typed, failed = mapping.map_columns(source.columns, count)
            columns = _merged(typed)
            if any(ref == table.name for _, ref in fk_attrs):
                for i in range(count):
                    if i in failed:
                        continue
                    row, unresolved = {name: [values[i]] for name, values in columns.items()}, {}
                    _resolve_foreign_keys(fk_keys, row, unresolved)
                    if unresolved:
                        failed[i] = unresolved[0]
                        continue
                    store.upsert_dimensions(table.name, Batch(row, 1))
                    fk_keys = [(name, store.dimension_keys(ref)) for name, ref in fk_attrs]  # the table may be new
            else:
                _resolve_foreign_keys(fk_keys, columns, failed)
                if failed:
                    kept = [i for i in range(count) if i not in failed]
                    columns = {name: [values[i] for i in kept] for name, values in columns.items()}
                batch = Batch(columns, count - len(failed))
                if table.is_fact:
                    store.insert_facts(table.name, batch)
                else:
                    store.upsert_dimensions(table.name, batch)
            rejects = source.rejects + [
                _reject(src.path, source.numbers[i], source.raws[i], binding, reason)
                for i, (binding, reason) in failed.items()
            ]
            report.rejects.extend(sorted(rejects, key=attrgetter("row")))
            stats.rows_read += count + len(source.rejects)
            stats.rows_rejected += len(rejects)
            stats.rows_accepted += count - len(failed)
            if not table.is_fact:  # each accepted row is new or deduplicated; the new ones grew the table
                new = store.row_count(table.name) - rows_before
                stats.upserts_new += new
                stats.upserts_deduped += count - len(failed) - new
            store.flush()
            stats.elapsed_s += time.perf_counter() - started
    return report
