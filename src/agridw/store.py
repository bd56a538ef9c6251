"""Directory-backed warehouse store: surrogate keys, snapshots, star queries.

Layout: one subdirectory per populated table holding ``data.csv`` (header +
rows, LF endings, numbers as decimal text with ≤6 fractional digits), plus a
top-level ``manifest.json`` recording the format version, the catalog digest
and per-table row counts and digests. Version 2 digests are BLAKE2b with an
8-byte digest over the exact ``data.csv`` bytes, maintained incrementally
because tables are append-only; no other version is read. Opening a store
checks each table's digest, header and row count, and parses no cell. Every
read decodes columns through ``_TableState.columns``, which frames records
with ``util.csv_records``, the reader ETL uses for its sources; a row is a
view over the columns. Writes go the other way: a ``Batch`` holds one list
per attribute, checked and rendered a column at a time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from copy import copy
from dataclasses import dataclass
from itertools import chain, count, repeat
from math import fsum, isfinite
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .catalog import NON_TEXT_KINDS, Catalog, TableDef, catalog_digest
from .errors import (
    CatalogMismatchError,
    DanglingKeyError,
    QueryError,
    StoreError,
    StoreLockError,
    StoreTypeError,
    UnknownAttributeError,
)
from .util import atomic_write_text, canonical_json, csv_field, csv_line, csv_records, fnv1a64, format_decimal

MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".lock"
DATA_NAME = "data.csv"
SK_COLUMN = "sk"
MANIFEST_VERSION = 2

AGGREGATE_OPS = ("count", "sum", "mean", "min", "max")

_DECODERS = {"surrogate-key": int, "foreign-key": int, "number": float}
_FLOAT_MAX = sys.float_info.max  # compared with, since isfinite raises OverflowError on an int beyond float range
# The bytes of a table whose cells are all of ``NON_TEXT_KINDS``: every byte
# ``format_decimal`` and ``str(int)`` emit, never a quote or a newline.
_KEY_AND_NUMBER_BODY = re.compile(rb"[-0-9.,\n]*")


def _blake2b64(data: bytes):
    return hashlib.blake2b(data, digest_size=8)


class Batch:
    """Rows to write, held as one list per attribute, each ``len(batch)``
    long, None where a value is absent. ``of_rows`` transposes row dicts
    and keeps them, so that a fault is reported in its own row's key order;
    a batch made from columns has every key in every row, in column order."""

    __slots__ = ("columns", "_count", "_rows")

    def __init__(self, columns: Mapping[str, Sequence], count: int, rows: Sequence[Mapping] | None = None):
        self.columns = columns
        self._count = count
        self._rows = rows

    @classmethod
    def of_rows(cls, rows: Sequence[Mapping]) -> "Batch":
        names = dict.fromkeys(chain.from_iterable(rows))
        return cls({name: [row.get(name) for row in rows] for name in names}, len(rows), rows)

    def __len__(self) -> int:
        return self._count

    def row(self, i: int) -> Mapping:
        return self._rows[i] if self._rows is not None else {name: column[i] for name, column in self.columns.items()}

    def first_holding(self, name: str) -> int:
        """The first row that holds the key ``name``, its value absent or not."""
        return 0 if self._rows is None else next(i for i, row in enumerate(self._rows) if name in row)


class _TableState:
    """One table held as its ``data.csv`` bytes: ``chunks`` is the header, or
    the verified file read at open, then each line or batch this process
    appended; the first ``written`` of them are on disk. Every read parses
    them with ``csv_records``, so a live table reads exactly as its reopen
    does, and a record that reader refuses fails every read of the table.

    ``where`` maps each ``data.csv`` column, in file order with ``sk`` first
    for dimensions, to its ``(position, kind, decoder)``; ``check`` and
    ``render`` (writes) and ``columns`` (every read, ``index`` too) look
    columns up in it.
    ``foreign_keys`` maps each foreign-key column to the table it references.
    ``count`` is the table's row count, checked against the bytes at open.
    """

    __slots__ = (
        "table", "where", "foreign_keys", "header", "digest_state",
        "chunks", "written", "count", "by_natural", "by_leading",
    )

    def __init__(self, table: TableDef):
        self.table = table
        sk = [(SK_COLUMN, "surrogate-key")] if table.role == "dimension" else []
        kinds = sk + [(a.name, a.kind) for a in table.attributes]
        where = self.where = {name: (i, kind, _DECODERS.get(kind, str)) for i, (name, kind) in enumerate(kinds)}
        self.foreign_keys = {a.name: a.references for a in table.attributes if a.kind == "foreign-key"}
        self.header = csv_line(where).encode("utf-8")
        self.digest_state = _blake2b64(self.header)
        self.chunks: list[bytes] = [self.header]
        self.written = 0
        self.count = 0
        # None until ``index`` has read the file
        self.by_natural: dict[tuple, int] | None = {}
        self.by_leading: dict[str, int] | None = {}

    def load(self, data: bytes, rows: object) -> None:
        """Hold the file bytes unparsed and hash them. Checks the header, the
        row count, counted as ``csv_records`` frames the records (a refused
        one counts once), and for a table of keys and numbers alone every byte."""
        self.digest_state = _blake2b64(data)
        self.chunks = [data]
        self.written = 1
        self.by_natural = self.by_leading = None
        name, start = self.table.name, len(self.header)
        if not data.startswith(self.header):
            raise StoreError(f"table {name!r}: unexpected header {data[:start]!r}")
        if all(kind in NON_TEXT_KINDS for _, kind, _ in self.where.values()):
            if _KEY_AND_NUMBER_BODY.fullmatch(data, start) is None:
                raise StoreError(f"table {name!r}: unreadable data file: a cell is not a key or a number")
        if data.find(b'"', start) < 0 and data.find(b"\r", start) < 0:  # no quoted cell: each "\n" ends a record
            found = data.count(b"\n", start) + (not data.endswith(b"\n"))
        else:
            with self._readable():
                found = sum(1 for _ in csv_records(str(memoryview(data)[start:], "utf-8")))
        if type(rows) is not int or rows != found:
            raise StoreError(f"table {name!r} row count mismatch")
        self.count = rows

    @contextmanager
    def _readable(self) -> Iterator[None]:
        """Undecodable bytes, a refused or short record or a cell its decoder
        refuses is a StoreError naming the table."""
        try:
            yield
        except (ValueError, IndexError) as exc:  # UnicodeDecodeError is a ValueError
            raise StoreError(f"table {self.table.name!r}: unreadable data file: {exc}") from exc

    def _records(self, maxsplit: int = -1) -> list[list[str]]:
        """The table's records as ``csv_records`` reads them, cut at
        ``maxsplit``; a refused record is a ValueError. Call inside ``_readable``."""
        data = b"".join(self.chunks)  # the file read at open itself, when nothing was appended
        text = str(memoryview(data)[len(self.header):], "utf-8")  # decoded without copying the bytes
        records = list(map(itemgetter(0), csv_records(text, ",", maxsplit)))
        if None in records:
            raise ValueError("a cell longer than csv.field_size_limit()")
        return records

    def index(self) -> None:
        """Build the natural-key indexes from the natural-key columns alone;
        the ``sk`` of a row is its position, and the first row of a key wins."""
        if self.by_natural is not None:
            return
        columns = self.columns(self.table.natural_key)
        # reversed, so that a key's first row is the one dict() keeps
        sks = range(self.count, 0, -1)
        self.by_natural = dict(zip(reversed(list(zip(*columns))), sks))
        self.by_leading = dict(zip(reversed(columns[0]), sks)) if columns else {}

    def columns(self, names: Sequence[str]) -> list[list]:
        """The named columns alone, each cell decoded and an absent one None.
        A read that reaches the last column checks the width of every record."""
        where = self.where
        for name in names:
            if name not in where:
                raise UnknownAttributeError(f"{self.table.name}.{name} does not exist")
        wanted = [where[name] for name in names]
        width = len(where)
        cut = max((i for i, _, _ in wanted), default=-1) + 1
        with self._readable():
            records = self._records(cut if cut < width else -1)  # uncut, so each record's width is exact
            if width == 1:  # a one-column row with no value is a blank line
                records = [record or [""] for record in records]
            if cut == width and set(map(len, records)) - {width}:
                found = next(len(record) for record in records if len(record) != width)
                raise ValueError(f"a record of {found} cells, expected {width}")
            columns = []
            for i, _, decode in wanted:
                cells = list(map(itemgetter(i), records))
                if "" in cells:  # an absent cell reads None
                    cells = [decode(text) if text else None for text in cells]
                elif decode is not str:
                    cells = list(map(decode, cells))
                columns.append(cells)
        return columns

    def frozen(self) -> "_TableState":
        """A copy holding the table's bytes as they are now: what this state
        appends later does not reach it."""
        view = copy(self)
        view.chunks = [b"".join(self.chunks)]  # the same bytes object when there is one chunk
        view.digest_state = self.digest_state.copy()
        return view

    def append(self, data: bytes, rows: int) -> None:
        self.digest_state.update(data)
        self.chunks.append(data)
        self.count += rows

    def refusal(self, name: str, column: Sequence, limits: Mapping[str, int]) -> StoreError | None:
        """The error the column ``name`` raises for some value of ``column``,
        or None when it takes them all; None is an absent value. A number must
        be finite, a foreign key an int in ``1..limits[name]``, anything else
        non-empty text no longer than ``csv.field_size_limit()``, since
        ``csv.reader`` could not read it back. The error for a column of one
        value is that value's; for a longer column it names one of them."""
        kind, table = self.where[name][1], self.table.name
        present = column if None not in column else [value for value in column if value is not None]
        types = set(map(type, present))
        if kind == "number":
            # a NaN may hide from min and max but fails isfinite, which meets
            # no int beyond float range once min and max are within it
            if bool in types or not all(issubclass(t, (int, float)) for t in types) or present and not (
                    -_FLOAT_MAX <= min(present) and max(present) <= _FLOAT_MAX and all(map(isfinite, present))):
                return StoreTypeError(f"{table}.{name}: expected a finite number")
        elif kind == "foreign-key":
            if bool in types or not all(issubclass(t, int) for t in types):
                return StoreTypeError(f"{table}.{name}: keys are integers")
            low, high = min(present, default=1), max(present, default=0)
            if low < 1 or high > limits[name]:
                value = low if low < 1 else high
                return DanglingKeyError(f"{table}.{name}={value} does not resolve in {self.foreign_keys[name]!r}")
        elif not all(issubclass(t, str) for t in types) or "" in present:
            return StoreTypeError(f"{table}.{name}: expected non-empty text")
        elif max(map(len, present), default=0) > csv.field_size_limit():
            return StoreTypeError(f"{table}.{name}: text longer than csv.field_size_limit() ({csv.field_size_limit()})")
        return None

    def check(self, batch: "Batch", limits: Mapping[str, int]) -> None:
        """Raise for the first faulty row of ``batch``, and for that row's
        first fault in its own key order. A row is faulty when it holds a key
        the table has no column for (a dimension row's ``sk`` too, which the
        store assigns), absent value or not; when a column refuses one of its
        values (``refusal``); or, in a dimension, when it lacks a natural-key
        part. Each column is checked once; a column with a fault, and the
        first faulty row alone, are then checked again a value at a time."""
        where, table, dimension = self.where, self.table.name, self.table.role == "dimension"
        faults = []
        for name, column in batch.columns.items():
            if name not in where or dimension and name == SK_COLUMN:
                faults.append(batch.first_holding(name))
            elif self.refusal(name, column, limits) is not None:
                faults.append(next(i for i, value in enumerate(column)
                                   if self.refusal(name, [value], limits) is not None))
        for part in self.table.natural_key:
            column = batch.columns.get(part)
            if column is None:
                faults.append(0 if len(batch) else None)
            elif None in column:
                faults.append(column.index(None))
        at = min((i for i in faults if i is not None), default=None)
        if at is None:
            return
        row = batch.row(at)
        if dimension and SK_COLUMN in row:
            raise StoreTypeError(f"{table}: the store assigns {SK_COLUMN!r}")
        for name, value in row.items():
            if name not in where:
                raise StoreTypeError(f"{table}: unknown attribute {name!r}")
            if (error := self.refusal(name, [value], limits)) is not None:
                raise error
        missing = next(part for part in self.table.natural_key if row.get(part) is None)
        raise StoreTypeError(f"{table}: natural key part {missing!r} is missing")

    def render(self, batch: "Batch", positions: Sequence[int] | None = None) -> bytes:
        """The ``data.csv`` lines of the rows of ``batch`` at ``positions``
        (every row when None), checked by ``check``, rendered a column at a
        time: numbers through ``format_decimal``, keys through ``str``, text
        quoted as ``csv_field`` quotes it. A dimension's rows get the ``sk``
        after the table's last."""
        size = len(batch) if positions is None else len(positions)
        cells = []
        for name, (_, kind, _) in self.where.items():
            column = batch.columns.get(name)
            if kind == "surrogate-key":
                cells.append(map(str, range(self.count + 1, self.count + size + 1)))
                continue
            if column is None:
                cells.append(repeat("", size))
                continue
            if positions is not None:
                column = [column[i] for i in positions]
            if kind == "number":
                render = format_decimal
            elif kind == "foreign-key":
                render = str
            else:  # text, quoted only when some value needs it
                joined = "".join(filter(None, column))
                render = csv_field if csv_field(joined) != joined else None
            if render is None:
                cells.append([value or "" for value in column] if None in column else column)
            elif None in column:
                cells.append([render(value) if value is not None else "" for value in column])
            else:
                cells.append(list(map(render, column)))
        return ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")

    @property
    def digest(self) -> str:
        return self.digest_state.hexdigest()


class Store:
    """One warehouse directory bound to a catalog. Not thread-safe for writes."""

    def __init__(self, path: Path, catalog: Catalog):
        for table in catalog.dimensions():  # natural keys are text: refused before anything is read or made
            for part in table.natural_key:
                if (attr := table.attribute(part)) is not None and attr.kind in NON_TEXT_KINDS:
                    raise StoreError(f"{table.name}.{part}: a natural-key part is text, not {attr.kind!r}")
        self.path = Path(path)
        self.catalog = catalog
        self.catalog_digest = catalog_digest(catalog)
        self._manifest: dict | None = None  # as on disk: last read or written
        self._tables: dict[str, _TableState] = {}
        self._load_existing()

    # -- persistence ------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    def _data_path(self, table: str) -> Path:
        return self.path / table / DATA_NAME

    def _load_existing(self) -> None:
        manifest_path = self._manifest_path()
        if not manifest_path.exists():
            self.path.mkdir(parents=True, exist_ok=True)
            self._write_manifest()
            return
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreError("unreadable manifest: not a JSON object")
        recorded = manifest.get("catalog_digest")
        if recorded != self.catalog_digest:
            raise CatalogMismatchError(
                f"store was created for catalog {recorded}, supplied catalog is {self.catalog_digest}"
            )
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise StoreError(f"unsupported manifest version {version!r}")
        tables = manifest.get("tables", {})
        if not isinstance(tables, dict):
            raise StoreError("unreadable manifest: its tables are not a JSON object")
        for name, entry in tables.items():
            table = self.catalog.table(name)
            if table is None:
                raise StoreError(f"manifest lists unknown table {name!r}")
            if not isinstance(entry, dict):
                raise StoreError(f"unreadable manifest: the entry of table {name!r} is not a JSON object")
            state = _TableState(table)
            try:
                data = self._data_path(name).read_bytes()
            except OSError as exc:
                raise StoreError(f"missing data file for table {name!r}: {exc}") from exc
            try:
                state.load(data, entry.get("rows"))  # hashes the bytes before it checks them
            finally:  # so a digest mismatch is the error reported, whatever load found
                if state.digest != entry.get("digest"):
                    raise StoreError(
                        f"table {name!r} digest mismatch: file {state.digest}, manifest {entry.get('digest')}"
                    )
            self._tables[name] = state
        self._manifest = manifest

    def _write_manifest(self) -> None:
        """Write the manifest unless the file already holds it: a flush that
        appended nothing rewrites nothing."""
        manifest = {
            "catalog_digest": self.catalog_digest,
            "tables": {
                name: {"rows": state.count, "digest": state.digest}
                for name, state in sorted(self._tables.items())
            },
            "version": MANIFEST_VERSION,
        }
        if manifest == self._manifest:
            return
        atomic_write_text(self._manifest_path(), canonical_json(manifest))
        self._manifest = manifest

    def flush(self) -> None:
        """Append the bytes not yet on disk, then rewrite the manifest if it changed."""
        for name, state in self._tables.items():
            if state.written == len(state.chunks):
                continue
            data_path = self._data_path(name)
            data_path.parent.mkdir(parents=True, exist_ok=True)
            # a table the manifest does not list yet replaces whatever file a dead writer left
            with open(data_path, "ab" if state.written else "wb") as handle:
                handle.write(b"".join(state.chunks[state.written:]))
            state.written = len(state.chunks)
        self._write_manifest()

    @contextmanager
    def exclusive_lock(self) -> Iterator[None]:
        """Advisory single-writer lock; raises StoreLockError if already held."""
        lock_path = self.path / LOCK_NAME
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockError(f"store {self.path} is locked by another writer") from None
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
            os.close(fd)
            yield
        finally:
            try:
                os.unlink(lock_path)
            except OSError:
                pass

    # -- writes -----------------------------------------------------------

    def row_count(self, table_name: str) -> int:
        state = self._tables.get(table_name)
        return state.count if state is not None else 0

    def _writable(self, table_name: str, role: str) -> tuple[_TableState, dict[str, int]]:
        """The state a write to a ``role`` table extends (registered by the first
        write that succeeds) and the row count each foreign key may reach."""
        table = self.catalog.table(table_name)
        if table is None or table.role != role:
            raise StoreError(f"{table_name!r} is not a {role} table")
        state = self._tables.get(table_name) or _TableState(table)
        return state, {name: self.row_count(ref) for name, ref in state.foreign_keys.items()}

    def upsert_dimensions(self, table_name: str, rows: Sequence[Mapping] | Batch) -> list[int]:
        """Insert or find each row by natural key and return its ``sk``; the
        first write of a key wins, within the batch and against the table, and
        keys stay dense. A foreign key must resolve against the table as it
        was before the batch, as in ``insert_facts``. Every row is checked,
        a duplicate too, and a faulty row rejects the whole batch; only the
        rows of new keys are rendered."""
        state, limits = self._writable(table_name, "dimension")
        batch = rows if isinstance(rows, Batch) else Batch.of_rows(rows)
        state.check(batch, limits)
        if not len(batch):
            return []
        state.index()
        parts = [batch.columns[part] for part in state.table.natural_key]
        keys = list(zip(*parts)) if parts else [()] * len(batch)
        sks = list(map(state.by_natural.get, keys))
        # the keys the table lacks, in the order the batch first holds them, each with the next sk
        added = dict(zip(dict.fromkeys(key for key, sk in zip(keys, sks) if sk is None), count(state.count + 1)))
        if added:
            first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # each key's first position
            positions = [first[key] for key in added] if len(added) < len(keys) else None  # None: every row
            state.append(state.render(batch, positions), len(added))
            state.by_natural.update(added)
            for key, sk in added.items():
                state.by_leading.setdefault(key[0], sk)
            self._tables[table_name] = state
            sks = [sk or added[key] for key, sk in zip(keys, sks)]
        return sks

    def upsert_dimension(self, table_name: str, row: Mapping) -> int:
        """``upsert_dimensions`` of one row."""
        return self.upsert_dimensions(table_name, [row])[0]

    def dimension_keys(self, table_name: str) -> Mapping[str, int]:
        """A read-only view of the table's ``sk`` by leading natural-key part;
        empty for a table never written. It follows later writes to a table
        already written."""
        state = self._tables.get(table_name)
        if state is None:
            return MappingProxyType({})
        state.index()
        return MappingProxyType(state.by_leading)

    def insert_facts(self, table_name: str, rows: Sequence[Mapping] | Batch) -> int:
        """Append a batch atomically; a mistyped row or a dangling key rejects
        the whole batch, and an empty batch registers no table."""
        state, limits = self._writable(table_name, "fact")
        batch = rows if isinstance(rows, Batch) else Batch.of_rows(rows)
        state.check(batch, limits)
        if len(batch):
            state.append(state.render(batch), len(batch))
            self._tables[table_name] = state
        return len(batch)

    # -- reads ------------------------------------------------------------

    def table_digest(self, table_name: str) -> str | None:
        state = self._tables.get(table_name)
        return state.digest if state else None

    def snapshot(self) -> "Snapshot":
        """The tables as they are now, held as their verified bytes and decoded
        a column at a time; a cell read that does not decode is a StoreError naming its table."""
        return Snapshot(self.catalog, {name: state.frozen() for name, state in self._tables.items()})


def open_store(path: str | Path, catalog: Catalog) -> Store:
    """Open or create a store directory bound to ``catalog``."""
    try:
        return Store(Path(path), catalog)
    except OSError as exc:
        raise StoreError(f"cannot open store at {path}: {exc}") from exc


# --- snapshots --------------------------------------------------------------

def _combined_digest(table_digests: Mapping[str, str]) -> str:
    payload = "".join(f"{name}:{table_digests[name]}\n" for name in sorted(table_digests))
    return format(fnv1a64(payload.encode("utf-8")), "016x")


class Snapshot:
    """Immutable view of the loaded warehouse at a load boundary, taken by
    ``Store.snapshot``: each table held as its ``data.csv`` bytes.
    ``columns`` decodes only the columns asked for and keeps them, so each
    cell is decoded at most once; ``rows`` and ``tables`` are views over
    every column."""

    def __init__(self, catalog: Catalog, states: Mapping[str, _TableState]):
        self.catalog = catalog
        self._states = dict(states)
        self.table_digests = {name: state.digest for name, state in self._states.items()}
        self._columns: dict[tuple[str, str], tuple] = {}

    @property
    def digest(self) -> str:
        return _combined_digest(self.table_digests)

    @property
    def tables(self) -> dict[str, tuple[Mapping, ...]]:
        """Every table's rows; decodes each column not read yet."""
        return dict(zip(self._states, map(self.rows, self._states)))

    def column_names(self, table_name: str) -> list[str]:
        """The table's ``data.csv`` columns, ``sk`` first for a dimension; none for a table never written."""
        state = self._states.get(table_name)
        return list(state.where) if state is not None else []

    def rows(self, table_name: str) -> tuple[Mapping, ...]:
        """The table's rows, each cell decoded and an absent one omitted; no rows for a table never written."""
        names = self.column_names(table_name)
        columns = _zipped(self.columns(table_name, names), self.row_count(table_name))
        return tuple({name: value for name, value in zip(names, row) if value is not None} for row in columns)

    def row_count(self, table_name: str) -> int:
        """The table's row count; 0 for a table never written."""
        state = self._states.get(table_name)
        return state.count if state is not None else 0

    def columns(self, table_name: str, names: Sequence[str]) -> list[Sequence]:
        """The named columns of a table, in row order, each cell decoded and an
        absent one None; empty columns for a table never written. Decodes only
        the columns not read before."""
        state = self._states.get(table_name)
        if state is None:
            return [()] * len(names)
        missing = [name for name in dict.fromkeys(names) if (table_name, name) not in self._columns]
        if missing:
            for name, column in zip(missing, state.columns(missing)):
                self._columns[table_name, name] = tuple(column)
        return [self._columns[table_name, name] for name in names]


# --- star queries ------------------------------------------------------------

@dataclass(frozen=True)
class EqFilter:
    attribute: str
    value: object


@dataclass(frozen=True)
class RangeFilter:
    """Closed interval; either bound may be None for half-open ranges."""

    attribute: str
    lo: object = None
    hi: object = None


@dataclass(frozen=True)
class DimensionJoin:
    dimension: str
    filters: tuple = ()


@dataclass(frozen=True)
class Aggregate:
    op: str
    attribute: str

    @property
    def column(self) -> str:
        return f"{self.op}({self.attribute})"


@dataclass(frozen=True)
class QuerySpec:
    fact: str
    joins: tuple = ()
    project: tuple = ()
    group_by: tuple = ()
    aggregates: tuple = ()


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]


def validate_query(catalog: Catalog, q: QuerySpec) -> tuple[list[str], list[tuple[str, str]]]:
    """Check ``q`` against ``catalog``; return the fact's foreign key for each
    join and the (table, column) each projected name reads."""
    fact = catalog.table(q.fact)
    if fact is None or fact.role != "fact":
        raise QueryError(f"{q.fact!r} is not a fact table")
    fks: list[str] = []
    for join in q.joins:
        dim = catalog.table(join.dimension)
        if dim is None or join.dimension not in fact.dimension_refs:
            raise QueryError(f"{join.dimension!r} is not a dimension of {fact.name!r}")
        fk = fact.foreign_key_for(join.dimension)
        if fk is None:
            raise QueryError(f"{fact.name!r} has no foreign key for {join.dimension!r}")
        fks.append(fk.name)
        for flt in join.filters:
            if dim.attribute(flt.attribute) is None:
                raise UnknownAttributeError(f"{join.dimension}.{flt.attribute} does not exist")
    projected: list[tuple[str, str]] = []
    for name in q.project:
        if "." in name:
            dim_name, attr = name.split(".", 1)
            if dim_name not in {join.dimension for join in q.joins}:
                raise QueryError(f"projection {name!r} requires joining {dim_name!r}")
            dim = catalog.table(dim_name)
            if dim is None or dim.attribute(attr) is None:
                raise UnknownAttributeError(f"{name!r} does not exist")
            projected.append((dim_name, attr))
        elif fact.attribute(name) is None:
            raise UnknownAttributeError(f"{q.fact}.{name} does not exist")
        else:
            projected.append((q.fact, name))
    for name in q.group_by:
        if name not in q.project:
            raise QueryError(f"group_by {name!r} must be projected")
    for agg in q.aggregates:
        if agg.op not in AGGREGATE_OPS:
            raise QueryError(f"unknown aggregate op {agg.op!r}")
        if agg.attribute not in fact.measures:
            raise UnknownAttributeError(f"aggregate over non-measure {agg.attribute!r}")
    return fks, projected


def _zipped(columns: Sequence[Sequence], n: int) -> list[tuple]:
    """The rows of ``columns``: ``n`` empty rows when there is no column."""
    return list(zip(*columns)) if columns else [()] * n


def star_query(snapshot: Snapshot, q: QuerySpec) -> ResultTable:
    """Filter joined dimensions, inner-join facts on surrogate keys, project,
    then group/aggregate. Facts lacking a key for a joined dimension drop out;
    the mean of an empty value set is absent and its count is 0. Reads only
    the columns the query names: filter columns give the ``sk`` (the 1-based
    row position) each dimension allows, and the fact's key columns the rows.
    """
    fks, projected = validate_query(snapshot.catalog, q)
    measured = [(q.fact, agg.attribute) for agg in q.aggregates]
    wanted: dict[str, list[str]] = {q.fact: list(fks)}
    for join in q.joins:
        wanted.setdefault(join.dimension, []).extend(flt.attribute for flt in join.filters)
    for table, column in (*projected, *measured):
        wanted[table].append(column)
    read = {(table, name): values for table, names in wanted.items()
            for name, values in zip(names, snapshot.columns(table, names))}

    positions: Sequence[int] = range(snapshot.row_count(q.fact))  # of the matching fact rows
    for join, fk in zip(q.joins, fks):
        sks: Sequence[int] = range(1, snapshot.row_count(join.dimension) + 1)
        for flt in join.filters:
            values = read[join.dimension, flt.attribute]
            if isinstance(flt, EqFilter):
                sks = [sk for sk in sks if values[sk - 1] == flt.value]
            else:  # None fails a range
                lo, hi = flt.lo, flt.hi
                sks = [
                    sk for sk in sks
                    if (v := values[sk - 1]) is not None and (lo is None or not v < lo) and (hi is None or not v > hi)
                ]
        allowed, keys = set(sks), read[q.fact, fk]
        positions = [i for i in positions if keys[i] in allowed]
    at = {q.fact: positions}  # each table's row for each matching fact row
    for join, fk in zip(q.joins, fks):
        keys = read[q.fact, fk]
        at[join.dimension] = [keys[i] - 1 for i in positions]
    picked = {source: list(map(read[source].__getitem__, at[source[0]])) for source in {*projected, *measured}}
    if not q.aggregates:
        return ResultTable(columns=tuple(q.project), rows=_zipped([picked[s] for s in projected], len(positions)))

    groups: dict[tuple, list[int]] = {}
    group_columns = [picked[projected[list(q.project).index(name)]] for name in q.group_by]
    for j, key in enumerate(_zipped(group_columns, len(positions))):
        groups.setdefault(key, []).append(j)

    columns = tuple(q.group_by) + tuple(a.column for a in q.aggregates)
    rows = []
    for key, members in groups.items():
        out = list(key)
        for agg, source in zip(q.aggregates, measured):
            values = [v for v in map(picked[source].__getitem__, members) if v is not None]
            if agg.op == "count":
                out.append(len(values))
            elif not values:
                out.append(None)
            elif agg.op == "sum":
                out.append(fsum(values))
            elif agg.op == "mean":
                out.append(fsum(values) / len(values))
            elif agg.op == "min":
                out.append(min(values))
            else:
                out.append(max(values))
        rows.append(tuple(out))
    return ResultTable(columns=columns, rows=rows)
