"""Shared test fixtures: reference oracles and randomized snapshot builders.

The star-join oracle here is deliberately naive (literal nested loops and
re-stated filter semantics) so it stays independent of the engine it checks.
It reads rows the engine never decoded: the row lists ``write_store`` wrote
through the stdlib, or ``csv_view`` of a store's ``data.csv`` files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import tempfile
from contextlib import contextmanager
from math import fsum
from pathlib import Path

import agridw.store as store_module
from agridw.catalog import AttributeDef, Catalog, TableDef, catalog_digest
from agridw.etl import CompiledMapping
from agridw.store import EqFilter, QuerySpec, RangeFilter, Snapshot, open_store

# Mean crop yield (ton/ha) and percent vs group 3 for the 12 crops, groups 1-5.
GROUP_TABLE_ROWS = {
    "Barley S.": [(8.93, 36.9), (7.32, 12.2), (6.52, 0.0), (5.81, -10.9), (4.26, -34.8)],
    "Barley W.": [(13.04, 78.7), (8.29, 13.7), (7.30, 0.0), (6.40, -12.2), (5.16, -29.3)],
    "Beans S.": [(5.21, 37.3), (4.32, 13.9), (3.79, 0.0), (1.92, -49.3), (1.08, -71.4)],
    "Beans W.": [(6.15, 23.6), (5.51, 10.8), (4.97, 0.0), (4.52, -9.2), (3.40, -31.7)],
    "Grass": [(23.80, 67.7), (21.73, 53.1), (14.19, 0.0), (9.01, -36.5), (7.62, -46.3)],
    "Linseed S.": [(2.28, 75.5), (1.57, 20.9), (1.30, 0.0), (0.84, -35.7), (0.43, -67.1)],
    "Maize F.": [(47.00, 16.7), (44.67, 10.9), (40.27, 0.0), (32.63, -19.0), (21.62, -46.3)],
    "Oats W.": [(8.06, 15.1), (7.50, 7.1), (7.00, 0.0), (6.93, -1.0), (5.64, -19.4)],
    "Rape W.": [(4.59, 27.7), (4.00, 11.4), (3.59, 0.0), (3.15, -12.5), (2.36, -34.3)],
    "Rye W.": [(39.90, 41.4), (32.39, 14.7), (28.23, 0.0), (23.19, -17.8), (17.77, -37.0)],
    "Wheat S.": [(7.20, 27.9), (6.52, 15.8), (5.63, 0.0), (4.73, -16.0), (1.94, -65.6)],
    "Wheat W.": [(11.74, 25.9), (10.22, 9.6), (9.32, 0.0), (8.55, -8.3), (6.83, -26.7)],
}


def apply_mapping(row, spec, catalog):
    """Compile ``spec`` and transform one raw row: typed dict, or the first binding's RejectRecord."""
    return CompiledMapping(spec, catalog).apply(row)


# --- independent views of stored tables --------------------------------------

def csv_view(store_dir, catalog: Catalog) -> dict[str, tuple[dict, ...]]:
    """Each data.csv as the stdlib reader sees it, cells decoded by column kind."""
    decode = {"foreign-key": int, "number": float, "sk": int}
    out = {}
    for path in sorted(Path(store_dir).glob("*/data.csv")):
        table = catalog.table(path.parent.name)
        kinds = {"sk": "sk", **{a.name: a.kind for a in table.attributes}}
        records = csv.DictReader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
        out[table.name] = tuple(
            {col: decode.get(kinds[col], str)(cell) for col, cell in record.items() if cell != ""}
            for record in records
        )
    return out


def every_column(catalog: Catalog, table: str) -> list[str]:
    """A table's data.csv columns: ``sk`` first for a dimension, then its attributes."""
    table_def = catalog.table(table)
    return (["sk"] if table_def.role == "dimension" else []) + [a.name for a in table_def.attributes]


def write_store(store_dir, catalog: Catalog, tables) -> None:
    """Write ``tables`` (each table's row dicts, ``sk`` in each dimension row)
    as a version-2 store through the stdlib alone, the mirror of ``csv_view``:
    ``csv.writer`` data files, BLAKE2b digests and the manifest. A float is
    written as ``format(v, "f")``, so a value needs at most 6 fractional
    digits to read back. No key is checked against a table's rows."""
    store_dir = Path(store_dir)
    entries = {}
    for name, rows in tables.items():
        columns = every_column(catalog, name)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format(v, "f") if type(v) is float else v for v in map(row.get, columns)] for row in rows)
        data = out.getvalue().encode("utf-8")
        (store_dir / name).mkdir(parents=True)
        (store_dir / name / "data.csv").write_bytes(data)
        entries[name] = {"rows": len(rows), "digest": hashlib.blake2b(data, digest_size=8).hexdigest()}
    manifest = {"catalog_digest": catalog_digest(catalog), "tables": entries, "version": 2}
    (store_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def stored_snapshot(catalog: Catalog, tables) -> Snapshot:
    """The snapshot of a store ``write_store`` wrote from ``tables``, opened
    from a directory removed once the snapshot holds its bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        write_store(tmp, catalog, tables)
        return open_store(tmp, catalog).snapshot()


@contextmanager
def column_reads(monkeypatch):
    """Yield the ``(table, names)`` of each read ``_TableState.columns`` serves
    inside the block; ``Snapshot.rows`` fails there."""
    reads: list[tuple[str, list[str]]] = []
    columns = store_module._TableState.columns

    def refused(*args):
        raise AssertionError("read whole rows")

    with monkeypatch.context() as patch:
        patch.setattr(store_module._TableState, "columns",
                      lambda state, names: reads.append((state.table.name, list(names))) or columns(state, names))
        patch.setattr(Snapshot, "rows", refused)
        yield reads


# --- independent star-join oracle -------------------------------------------

def _oracle_filter_ok(filters, row) -> bool:
    for flt in filters:
        value = row.get(flt.attribute)
        if isinstance(flt, EqFilter):
            if value != flt.value:
                return False
        elif isinstance(flt, RangeFilter):
            if value is None:
                return False
            if flt.lo is not None and value < flt.lo:
                return False
            if flt.hi is not None and value > flt.hi:
                return False
    return True


def nested_loop_star_query(catalog: Catalog, tables, q: QuerySpec):
    """Reference semantics via literal nested loops over ``tables`` (each
    table's row dicts, ``sk`` in each dimension row; a table left out has no
    rows); returns (columns, rows)."""
    fact_def = catalog.table(q.fact)
    joined_rows = []
    for fact_row in tables.get(q.fact, ()):
        dims = {}
        keep = True
        for join in q.joins:
            fk_attr = fact_def.foreign_key_for(join.dimension)
            fk = fact_row.get(fk_attr.name)
            match = None
            if fk is not None:
                for dim_row in tables.get(join.dimension, ()):  # nested scan on purpose
                    if dim_row.get("sk") == fk and _oracle_filter_ok(join.filters, dim_row):
                        match = dim_row
                        break
            if match is None:
                keep = False
                break
            dims[join.dimension] = match
        if keep:
            joined_rows.append((fact_row, dims))

    def cell(name, fact_row, dims):
        if "." in name:
            dim_name, attr = name.split(".", 1)
            return dims[dim_name].get(attr)
        return fact_row.get(name)

    if not q.aggregates:
        columns = tuple(q.project)
        return columns, [tuple(cell(n, f, d) for n in q.project) for f, d in joined_rows]

    groups = {}
    for f, d in joined_rows:
        key = tuple(cell(n, f, d) for n in q.group_by)
        groups.setdefault(key, []).append(f)
    columns = tuple(q.group_by) + tuple(f"{a.op}({a.attribute})" for a in q.aggregates)
    out = []
    for key, members in groups.items():
        row = list(key)
        for agg in q.aggregates:
            values = [m.get(agg.attribute) for m in members if m.get(agg.attribute) is not None]
            if agg.op == "count":
                row.append(len(values))
            elif not values:
                row.append(None)
            elif agg.op == "sum":
                row.append(fsum(values))
            elif agg.op == "mean":
                row.append(fsum(values) / len(values))
            elif agg.op == "min":
                row.append(min(values))
            else:
                row.append(max(values))
        out.append(tuple(row))
    return columns, out


def sort_rows(rows):
    return sorted(rows, key=lambda row: tuple((v is None, 0 if v is None else v) for v in row))


def rows_equal(a, b, tol=1e-9) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
                    return False
            elif va != vb:
                return False
    return True


# --- randomized snapshots -----------------------------------------------------

_VOCAB = ("alpha", "beta", "gamma", "delta", "epsilon")


def random_mini_catalog(rng: random.Random, n_dims: int) -> Catalog:
    tables = {}
    dim_names = [f"D{i}" for i in range(1, n_dims + 1)]
    for name in dim_names:
        tables[name] = TableDef(
            name=name,
            role="dimension",
            attributes=(
                AttributeDef(name="ID", kind="natural-key-part", nullable=False),
                AttributeDef(name="Cat", kind="text"),
                AttributeDef(name="Val", kind="number"),
            ),
            natural_key=("ID",),
        )
    tables["Fact"] = TableDef(
        name="Fact",
        role="fact",
        attributes=tuple(
            AttributeDef(name=f"{d}Key", kind="foreign-key", references=d) for d in dim_names
        )
        + (
            AttributeDef(name="M1", kind="number"),
            AttributeDef(name="M2", kind="number"),
        ),
        measures=("M1", "M2"),
        dimension_refs=tuple(dim_names),
    )
    return Catalog(version="test", tables=tables)


def random_snapshot(rng: random.Random, max_facts: int = 1000, max_dims: int = 5):
    """A random snapshot and the row lists it was built from."""
    n_dims = rng.randint(1, max_dims)
    catalog = random_mini_catalog(rng, n_dims)
    dim_names = [f"D{i}" for i in range(1, n_dims + 1)]
    tables = {}
    sizes = {}
    for name in dim_names:
        n = rng.randint(1, 50)
        sizes[name] = n
        tables[name] = [
            {
                "sk": j + 1,
                "ID": f"{name.lower()}-{j + 1}",
                "Cat": rng.choice(_VOCAB),
                "Val": round(rng.uniform(-50, 50), 3) if rng.random() < 0.85 else None,
            }
            for j in range(n)
        ]
        for row in tables[name]:
            if row["Val"] is None:
                del row["Val"]
    n_facts = rng.randint(0, max_facts)
    facts = []
    for _ in range(n_facts):
        row = {}
        for name in dim_names:
            if rng.random() < 0.85:
                row[f"{name}Key"] = rng.randint(1, sizes[name])
        for measure in ("M1", "M2"):
            if rng.random() < 0.8:
                row[measure] = round(rng.uniform(-100, 100), 3)
        facts.append(row)
    tables["Fact"] = facts
    return stored_snapshot(catalog, tables), tables


def random_query(rng: random.Random, snapshot: Snapshot) -> QuerySpec:
    from agridw.store import Aggregate, DimensionJoin

    fact = snapshot.catalog.table("Fact")
    dim_names = list(fact.dimension_refs)
    joined = rng.sample(dim_names, k=rng.randint(0, len(dim_names)))
    joins = []
    for name in joined:
        filters = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                value = rng.choice(_VOCAB + ("nothing-matches",))
                filters.append(EqFilter(attribute="Cat", value=value))
            else:
                lo, hi = sorted((round(rng.uniform(-50, 50), 3), round(rng.uniform(-50, 50), 3)))
                filters.append(
                    RangeFilter(
                        attribute="Val",
                        lo=lo if rng.random() < 0.8 else None,
                        hi=hi if rng.random() < 0.8 else None,
                    )
                )
        joins.append(DimensionJoin(dimension=name, filters=tuple(filters)))

    if rng.random() < 0.5 and joined:
        group_by = tuple(f"{name}.Cat" for name in rng.sample(joined, k=rng.randint(1, len(joined))))
        aggregates = tuple(
            Aggregate(op=rng.choice(("count", "sum", "mean", "min", "max")), attribute=rng.choice(("M1", "M2")))
            for _ in range(rng.randint(1, 3))
        )
        return QuerySpec(fact="Fact", joins=tuple(joins), project=group_by, group_by=group_by, aggregates=aggregates)
    if rng.random() < 0.3:
        # global aggregate, no grouping
        aggregates = tuple(
            Aggregate(op=op, attribute=rng.choice(("M1", "M2")))
            for op in ("count", "sum", "mean")
        )
        return QuerySpec(fact="Fact", joins=tuple(joins), aggregates=aggregates)
    project = tuple(f"{name}.Cat" for name in joined) + ("M1", "M2")
    return QuerySpec(fact="Fact", joins=tuple(joins), project=project)
