"""Constellation-schema catalog: table definitions, validation, JSON load/save.

The builtin catalog models seasonal farming outcomes: five fact tables
(FieldFact, Sale, Order, Testing, ManagementAction) share 22 dimension
tables covering crops, fields, soil, weather, trading partners and farm
operations. FieldFact carries the per-field season result (yield plus
applied quantities) against 12 of those dimensions. Its only definition is
the package file ``data/builtin_catalog.json``, kept in canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping

from .errors import CatalogParseError
from .util import atomic_write_text, canonical_json, fnv1a64_hex

ATTRIBUTE_KINDS = frozenset(
    {
        "surrogate-key",
        "natural-key-part",
        "foreign-key",
        "text",
        "number",
        "date",
        "time",
        "geo-point",
        "geo-polygon",
        "enum",
    }
)

# Kinds the store holds as numbers, not text; a natural-key part has none of them.
NON_TEXT_KINDS = frozenset({"surrogate-key", "foreign-key", "number"})

ROLE_FACT = "fact"
ROLE_DIMENSION = "dimension"


@dataclass(frozen=True)
class AttributeDef:
    """One column of a catalog table.

    ``unit`` is only meaningful for number attributes; ``references`` names
    the target table of a foreign-key attribute.
    """

    name: str
    kind: str
    unit: str | None = None
    nullable: bool = True
    references: str | None = None


@dataclass(frozen=True)
class TableDef:
    name: str
    role: str
    attributes: tuple[AttributeDef, ...]
    natural_key: tuple[str, ...] = ()
    measures: tuple[str, ...] = ()
    dimension_refs: tuple[str, ...] = ()

    @property
    def is_fact(self) -> bool:
        return self.role == ROLE_FACT

    @cached_property
    def attribute_map(self) -> Mapping[str, AttributeDef]:
        return {attr.name: attr for attr in self.attributes}

    def attribute(self, name: str) -> AttributeDef | None:
        return self.attribute_map.get(name)

    def foreign_key_for(self, dimension: str) -> AttributeDef | None:
        """The fact attribute referencing ``dimension``, if any."""
        for attr in self.attributes:
            if attr.kind == "foreign-key" and attr.references == dimension:
                return attr
        return None


@dataclass(frozen=True)
class Catalog:
    version: str
    tables: Mapping[str, TableDef]

    def table(self, name: str) -> TableDef | None:
        return self.tables.get(name)

    def facts(self) -> Iterator[TableDef]:
        return (t for t in self.tables.values() if t.role == ROLE_FACT)

    def dimensions(self) -> Iterator[TableDef]:
        return (t for t in self.tables.values() if t.role == ROLE_DIMENSION)

    @cached_property
    def digest(self) -> str:
        """FNV-1a 64-bit hex digest of the canonical serialization, computed once."""
        return fnv1a64_hex(serialize_catalog(self).encode("utf-8"))


@dataclass(frozen=True)
class Violation:
    table: str
    attribute: str | None
    rule: str
    message: str


# --- serialization --------------------------------------------------------

def _attribute_payload(attr: AttributeDef) -> dict:
    payload: dict = {"name": attr.name, "kind": attr.kind, "nullable": attr.nullable}
    if attr.unit is not None:
        payload["unit"] = attr.unit
    if attr.references is not None:
        payload["references"] = attr.references
    return payload


def _table_payload(table: TableDef) -> dict:
    return {
        "name": table.name,
        "role": table.role,
        "attributes": [_attribute_payload(a) for a in table.attributes],
        "natural_key": list(table.natural_key),
        "measures": list(table.measures),
        "dimension_refs": list(table.dimension_refs),
    }


def serialize_catalog(catalog: Catalog) -> str:
    """Canonical catalog JSON: tables sorted by name, sorted keys, LF endings."""
    payload = {
        "version": catalog.version,
        "tables": [_table_payload(t) for t in sorted(catalog.tables.values(), key=lambda t: t.name)],
    }
    return canonical_json(payload)


def catalog_digest(catalog: Catalog) -> str:
    """FNV-1a 64-bit hex digest of the canonical serialization (``Catalog.digest``)."""
    return catalog.digest


def save_catalog(catalog: Catalog, path: str | Path) -> Path:
    return atomic_write_text(Path(path), serialize_catalog(catalog))


def _parse_attribute(obj, locus: str) -> AttributeDef:
    if not isinstance(obj, dict):
        raise CatalogParseError("attribute must be an object", locus)
    name = obj.get("name")
    if not isinstance(name, str) or not name.strip() or name != name.strip():
        raise CatalogParseError("attribute needs a non-empty trimmed name", locus + ".name")
    kind = obj.get("kind")
    if kind not in ATTRIBUTE_KINDS:
        raise CatalogParseError(f"unknown attribute kind {kind!r}", locus + ".kind")
    unit = obj.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise CatalogParseError("unit must be a string", locus + ".unit")
    nullable = obj.get("nullable", True)
    if not isinstance(nullable, bool):
        raise CatalogParseError("nullable must be a boolean", locus + ".nullable")
    references = obj.get("references")
    if references is not None and not isinstance(references, str):
        raise CatalogParseError("references must be a string", locus + ".references")
    return AttributeDef(name=name, kind=kind, unit=unit, nullable=nullable, references=references)


def _parse_names(obj, locus: str) -> tuple[str, ...]:
    if obj is None:
        return ()
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise CatalogParseError("expected a list of attribute names", locus)
    return tuple(obj)


def _parse_table(obj, locus: str) -> TableDef:
    if not isinstance(obj, dict):
        raise CatalogParseError("table must be an object", locus)
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogParseError("table needs a non-empty name", locus + ".name")
    role = obj.get("role")
    if role not in (ROLE_FACT, ROLE_DIMENSION):
        raise CatalogParseError(f"role must be 'fact' or 'dimension', got {role!r}", locus + ".role")
    raw_attrs = obj.get("attributes", [])
    if not isinstance(raw_attrs, list):
        raise CatalogParseError("attributes must be a list", locus + ".attributes")
    attributes = tuple(
        _parse_attribute(a, f"{locus}.attributes[{i}]") for i, a in enumerate(raw_attrs)
    )
    return TableDef(
        name=name,
        role=role,
        attributes=attributes,
        natural_key=_parse_names(obj.get("natural_key"), locus + ".natural_key"),
        measures=_parse_names(obj.get("measures"), locus + ".measures"),
        dimension_refs=_parse_names(obj.get("dimension_refs"), locus + ".dimension_refs"),
    )


def loads_catalog(text: str) -> Catalog:
    """Parse catalog JSON. Structure is checked; invariants are not (see validate_catalog)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise CatalogParseError("top level must be an object", "$")
    version = doc.get("version")
    if not isinstance(version, str):
        raise CatalogParseError("missing or non-string version", "$.version")
    raw_tables = doc.get("tables")
    if not isinstance(raw_tables, list) or not raw_tables:
        raise CatalogParseError("no tables", "$.tables")
    tables: dict[str, TableDef] = {}
    for i, raw in enumerate(raw_tables):
        table = _parse_table(raw, f"$.tables[{i}]")
        if table.name in tables:
            raise CatalogParseError(f"duplicate table name {table.name!r}", f"$.tables[{i}].name")
        tables[table.name] = table
    return Catalog(version=version, tables=tables)


def load_catalog(path: str | Path) -> Catalog:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogParseError(f"cannot read catalog file: {exc}") from exc
    if not text.strip():
        raise CatalogParseError("no tables", str(path))
    return loads_catalog(text)


@cache
def builtin_catalog() -> Catalog:
    """The shipped agricultural catalog: 5 fact tables, 22 dimension tables.

    Parsed and validated once per process; a broken package file raises
    CatalogParseError naming its first violation.
    """
    text = resources.files(__package__).joinpath("data/builtin_catalog.json").read_text(encoding="utf-8")
    catalog = loads_catalog(text)
    violations = validate_catalog(catalog)
    if violations:
        first = violations[0]
        locus = f"{first.table}.{first.attribute}" if first.attribute else first.table
        raise CatalogParseError(f"builtin catalog violates [{first.rule}]: {first.message}", locus)
    return catalog


# --- validation -----------------------------------------------------------

def validate_catalog(catalog: Catalog) -> list[Violation]:
    """Check every structural invariant; returns a deterministic, sorted list."""
    out: list[Violation] = []

    def flag(table: str, attribute: str | None, rule: str, message: str) -> None:
        out.append(Violation(table=table, attribute=attribute, rule=rule, message=message))

    lowered: dict[str, str] = {}
    for name in catalog.tables:
        low = name.lower()
        if low in lowered:
            flag(name, None, "dup-table", f"table name collides with {lowered[low]!r} (case-insensitive)")
        else:
            lowered[low] = name

    for table in catalog.tables.values():
        seen: dict[str, str] = {}
        attr_names = {a.name for a in table.attributes}
        for attr in table.attributes:
            low = attr.name.lower()
            if low in seen:
                flag(table.name, attr.name, "dup-attribute", f"duplicate of {seen[low]!r} (case-insensitive)")
            else:
                seen[low] = attr.name
            if attr.kind == "foreign-key":
                if not attr.references:
                    flag(table.name, attr.name, "fk-missing-ref", "foreign-key attribute must name its referenced table")
                else:
                    target = catalog.table(attr.references)
                    if target is None:
                        flag(table.name, attr.name, "fk-dangling", f"references unknown table {attr.references!r}")
                    elif target.role == ROLE_FACT:
                        flag(table.name, attr.name, "fk-to-fact", f"references fact table {attr.references!r}")
            elif attr.references is not None:
                flag(table.name, attr.name, "ref-on-non-fk", "only foreign-key attributes may carry a reference")
            if attr.unit is not None and attr.kind != "number":
                flag(table.name, attr.name, "unit-on-non-number", f"unit on kind {attr.kind!r}")

        if table.role == ROLE_FACT:
            if not table.measures:
                flag(table.name, None, "fact-needs-measure", "fact table must declare at least one measure")
            if not table.dimension_refs:
                flag(table.name, None, "fact-needs-dimension", "fact table must reference at least one dimension")
            if table.natural_key:
                flag(table.name, None, "natural-key-on-fact", "natural keys apply to dimensions only")
            for ref in table.dimension_refs:
                target = catalog.table(ref)
                if target is None:
                    flag(table.name, None, "dangling-ref", f"dimension_ref to missing table {ref!r}")
                elif target.role == ROLE_FACT:
                    flag(table.name, None, "ref-to-fact", f"dimension_ref {ref!r} names a fact table")
            for measure in table.measures:
                attr = table.attribute(measure)
                if measure not in attr_names:
                    flag(table.name, measure, "unknown-measure", "measure names a missing attribute")
                elif attr is not None and attr.kind == "foreign-key":
                    flag(table.name, measure, "measure-is-foreign-key", "measures and foreign keys are disjoint")
                elif attr is not None and attr.kind != "number":
                    flag(table.name, measure, "measure-not-number", f"measure has kind {attr.kind!r}")
        else:
            if not table.natural_key:
                flag(table.name, None, "dimension-needs-natural-key", "dimension must declare a natural key")
            if table.measures:
                flag(table.name, None, "measures-on-dimension", "measures apply to fact tables only")
            if table.dimension_refs:
                flag(table.name, None, "dimension-refs-on-dimension", "dimension_refs apply to fact tables only")
            for part in table.natural_key:
                if part not in attr_names:
                    flag(table.name, part, "unknown-natural-key", "natural key names a missing attribute")
                elif (kind := table.attribute(part).kind) in NON_TEXT_KINDS:
                    flag(table.name, part, "natural-key-not-text", f"natural-key part has kind {kind!r}; keys are text")

    out.sort(key=lambda v: (v.table, v.rule, v.attribute or ""))
    return out
