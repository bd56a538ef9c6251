"""Low-level helpers: FNV-1a hashing, canonical JSON, decimal text, atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes, state: int = _FNV64_OFFSET) -> int:
    """FNV-1a 64-bit over ``data``; pass a previous result as ``state`` to stream."""
    h = state
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


def csv_field(value: str, delimiter: str = ",") -> str:
    """RFC 4180 minimal quoting for a single field."""
    if '"' in value:
        return '"' + value.replace('"', '""') + '"'
    if delimiter in value or "\n" in value or "\r" in value:
        return '"' + value + '"'
    return value


def csv_line(values: Iterable[str], delimiter: str = ",") -> str:
    return delimiter.join(csv_field(v, delimiter) for v in values) + "\n"


def atomic_write_bytes(path: Path, data: bytes) -> Path:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
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
