"""Low-level helpers: FNV-1a hashing, canonical JSON, decimal text, RFC 4180
records, atomic writes."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Iterator

_UMASK = os.umask(0o022)  # the mask can only be read by setting it, so it is set back at once
os.umask(_UMASK)

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit over ``data``."""
    h = _FNV64_OFFSET
    prime = _FNV64_PRIME
    mask = _MASK64
    for b in data:
        h = ((h ^ b) * prime) & mask
    return h


def fnv1a64_hex(data: bytes) -> str:
    return format(fnv1a64(data), "016x")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, LF, trailing newline."""
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def format_decimal(value: float) -> str:
    """Render a finite float with at most 6 fractional digits, round-half-even.

    Trailing zeros and a bare trailing point are stripped, so 8.93 -> "8.93",
    5.0 -> "5". Negative zero normalizes to "0".
    """
    text = f"{value:.6f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        return "0"
    return text


def csv_field(value: str) -> str:
    """RFC 4180 minimal quoting for a single comma-delimited field."""
    if '"' in value:
        return '"' + value.replace('"', '""') + '"'
    if "," in value or "\n" in value or "\r" in value:
        return '"' + value + '"'
    return value


def csv_line(values: Iterable[str]) -> str:
    return ",".join(map(csv_field, values)) + "\n"


def csv_records(text: str, delimiter: str = ",", maxsplit: int = -1) -> Iterator[tuple[list[str] | None, str]]:
    """Each record of ``text`` as ``csv.reader`` reads it, with its raw text
    less the line ends it closes with; a blank line is a record of no cells.

    A record ``csv.reader`` refuses (a cell longer than
    ``csv.field_size_limit()``) has None for cells and ends where RFC 4180
    ends it: at the first line end after an even count of ``"`` in its
    lines, or at the end of the text, so none of its lines is read as a
    record. With ``maxsplit`` a record may end in one cell holding the rest
    of its line, so only its first ``maxsplit`` cells are exact.
    """
    if '"' not in text and "\r" not in text:
        # No cell is quoted: each "\n" ends a record and each delimiter a
        # cell. Not splitlines, which also breaks at "\x0c", "\x85",
        # "\u2028" and other characters a cell may hold.
        lines = text.removesuffix("\n").split("\n") if text else []
        # a line no longer than the limit holds no cell csv.reader refuses
        if max(map(len, lines), default=0) <= csv.field_size_limit():
            records = map(str.split, lines, repeat(delimiter), repeat(maxsplit))
            if "" in lines:
                records = ([] if not line else record for line, record in zip(lines, records))
            return zip(records, lines)
    return _read_records(text, delimiter)


def _read_records(text: str, delimiter: str) -> Iterator[tuple[list[str] | None, str]]:
    lines = io.StringIO(text, newline="").readlines()  # split at "\r\n", "\r" and "\n" alone
    feed = iter(lines)
    reader = csv.reader(feed, delimiter=delimiter)
    start = skipped = 0  # ``start``: the index of the next record's first line
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error:
            record = None
            quotes = sum(line.count('"') for line in lines[start:reader.line_num + skipped])
            while quotes % 2 and (line := next(feed, None)) is not None:
                quotes += line.count('"')
                skipped += 1
        end = reader.line_num + skipped
        yield record, "".join(lines[start:end]).rstrip("\r\n")
        start = end


def atomic_write_bytes(path: Path, data: bytes) -> Path:
    """Write via a temp file in the same directory, then rename. The file gets
    the mode ``open`` gives a new file under the umask, not mkstemp's 0600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: Path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))
