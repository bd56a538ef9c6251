"""A reference model of mapping semantics, restated from the README and the
``CompiledMapping`` docstrings. It imports nothing from ``agridw.etl``, so a
test can hold the engine to it.

A mapping is the dict a mapping file holds; a raw row is a dict of source
name to text, an empty field left out. ``model_apply`` gives the typed row,
or ``(binding, reason)`` for the first binding that fails:

- each binding runs its transforms in order;
- then a value that is None fails a non-nullable attribute as
  ``missing-required`` and is left out of a nullable one;
- then a number attribute needs a non-bool int or float that fits a float
  (``type-error``), inside its unit's range (``range-error``) and finite
  (``type-error``), in that order;
- then any other attribute needs text, and every kind but ``foreign-key``
  needs it non-empty and no longer than ``csv.field_size_limit()``
  (``type-error``).

``model_pipeline`` adds what ``run_pipeline`` does with a source of one
table: each foreign key, in attribute order, resolves through the leading
natural-key part of its dimension or rejects the row as ``missing-required``,
and a dimension keeps the first row of each natural key.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime
from decimal import Decimal
from math import isfinite
from pathlib import Path

import agridw

SYNONYM_FILE = Path(agridw.__file__).parent / "data" / "crop_synonyms.csv"

# unit token -> (lo, hi, lo excluded)
RANGES = {"pH": (3.0, 10.0, False), "mg/l": (0.0, 10000.0, False), "ton/ha": (0.0, 200.0, True)}
# unit token -> (family, power of ten against the family's base unit)
SCALES = {
    "g/ha": ("mass-per-area", 0), "kg/ha": ("mass-per-area", 3), "t/ha": ("mass-per-area", 6),
    "ton/ha": ("mass-per-area", 6), "mg/l": ("concentration", 0), "pH": ("acidity", 0),
    "l/ha": ("volume-per-area", 0),
}


class Failed(Exception):
    def __init__(self, reason):
        self.reason = reason


def crop_synonyms() -> dict[str, str]:
    """The builtin table read with the stdlib: lowercased variant, and every
    canonical form as its own variant, to the canonical form."""
    with open(SYNONYM_FILE, encoding="utf-8-sig", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if [cell.lower() for cell in rows[0][:2]] == ["variant", "canonical"]:
        rows = rows[1:]
    table = {}
    for row in rows:
        table[row[0].strip().lower()] = row[1].strip()
        table.setdefault(row[1].strip().lower(), row[1].strip())
    return table


SYNONYMS = crop_synonyms()


def _number(value) -> float:
    """A non-bool int or float as a float; anything else is a type-error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Failed("type-error")
    try:
        return float(value)
    except OverflowError:
        raise Failed("type-error") from None


def _step(op: dict, value):
    kind = op["op"]
    if kind == "rename":
        return value
    if kind == "constant":
        return op["value"]
    if kind == "nullable-default":
        return op["value"] if value is None else value
    if value is None:
        return None
    if kind == "parse-number":
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise Failed("type-error") from None
        else:
            value = _number(value)
        if not isfinite(value):
            raise Failed("type-error")
        return value
    if kind == "parse-date":
        try:
            return datetime.strptime(str(value), op["pattern"]).date().isoformat()
        except ValueError:
            raise Failed("type-error") from None
    if kind == "unit-convert":
        if type(value) is not float:
            raise Failed("type-error")
        a, b = SCALES.get(op["from"]), SCALES.get(op["to"])
        if a is None or b is None or a[0] != b[0]:
            raise Failed("unit-error")
        shift = a[1] - b[1]
        return value if shift == 0 else float(Decimal(repr(value)).scaleb(shift))
    if kind == "synonym":
        hit = SYNONYMS.get(str(value).strip().lower())
        if hit is None:
            raise Failed("synonym-miss")
        return hit
    raise AssertionError(f"the model has no op {kind!r}")


def _checked(attr, value):
    if attr.kind == "number":
        value = _number(value)
        bounds = RANGES.get(attr.unit)
        if bounds is not None:
            lo, hi, lo_excluded = bounds
            if value < lo or value > hi or (lo_excluded and value == lo):  # NaN is in range
                raise Failed("range-error")
        if not isfinite(value):
            raise Failed("type-error")
    elif not isinstance(value, str):
        raise Failed("type-error")
    elif attr.kind != "foreign-key" and not 1 <= len(value) <= csv.field_size_limit():
        raise Failed("type-error")
    return value


def model_apply(mapping: dict, catalog, fields: dict) -> dict | tuple[str, str]:
    """The typed row of ``fields``, or ``(binding, reason)`` of the first binding that fails."""
    table = catalog.table(mapping["target_table"])
    typed = {}
    for binding in mapping["bindings"]:
        attr = table.attribute(binding["target"])
        value = fields.get(binding.get("source", ""))
        try:
            for op in binding.get("transforms", []):
                value = _step(op, value)
            if value is None:
                if not attr.nullable:
                    raise Failed("missing-required")
                continue
            value = _checked(attr, value)
        except Failed as failed:
            return attr.name, failed.reason
        typed[attr.name] = value
    return typed


def model_pipeline(mapping: dict, catalog, rows: list[dict], keys: dict[str, dict[str, int]]):
    """``(accepted, rejects)`` of one source: the typed rows in row order,
    foreign keys replaced by the ``sk`` that ``keys[table]`` gives their
    text, and ``(row number, binding, reason)`` per rejected row."""
    table = catalog.table(mapping["target_table"])
    accepted, rejects = [], []
    for number, fields in enumerate(rows, 1):
        outcome = model_apply(mapping, catalog, fields)
        if isinstance(outcome, dict):
            for attr in table.attributes:
                if attr.kind == "foreign-key" and attr.name in outcome:
                    sk = keys.get(attr.references, {}).get(outcome[attr.name])
                    if sk is None:
                        outcome = (attr.name, "missing-required")
                        break
                    outcome[attr.name] = sk
        if isinstance(outcome, dict):
            accepted.append(outcome)
        else:
            rejects.append((number, *outcome))
    return accepted, rejects


def model_stored(catalog, table_name: str, accepted: list[dict]) -> list[dict]:
    """The rows a store holds after ``accepted`` are written to an empty
    table: a dimension keeps the first row of each natural key, and a number
    reads back as the float of its text with 6 fractional digits."""
    table = catalog.table(table_name)
    kinds = {attr.name: attr.kind for attr in table.attributes}
    seen, out = set(), []
    for row in accepted:
        if table.role == "dimension":
            key = tuple(row[part] for part in table.natural_key)
            if key in seen:
                continue
            seen.add(key)
        out.append({name: float(f"{value:.6f}") if kinds[name] == "number" else value for name, value in row.items()})
    return out


def json_field(value) -> str | None:
    """The text a record-JSON value is read as: None and "" are absent, a bool
    is ``true``/``false``, a number its ``repr``, a list or object its JSON."""
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)
