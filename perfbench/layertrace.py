"""Layer tracing from outside the program.

The tracer wraps agridw's public functions by patching each name where its
caller looks it up (``agridw.cli.open_store``, the ``read_source`` global in
``agridw.etl``, methods on ``Store``, ...). Each wrapped call becomes a span
with name, start, end, parent and op id, kept in memory and written out at
the end of the run. Functions called once per row (``CompiledMapping.apply``,
``Store.upsert_dimension``, the store's ``fnv1a64``, each step of a source
iterator) are folded: one record per (op, parent, name) with a call count,
so a traced op does not allocate a span per row. Self time is a call's
duration minus the time of the wrapped calls made inside it.

Counters are taken at the same boundaries (bytes hashed, rows inserted,
bytes appended by flush, ...), so ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter_ns

# (module path, attribute, span name, folded). A name on a class is patched
# on the class, so every instance's method lookup finds the wrapper.
PATCHES = (
    ("agridw.cli", "main", "cli.main", False),
    ("agridw.cli", "builtin_catalog", "catalog.builtin", False),
    ("agridw.cli", "catalog_digest", "catalog.digest", False),
    ("agridw.cli", "open_store", "store.open", False),
    ("agridw.cli", "load_mapping", "etl.load_mapping", False),
    ("agridw.cli", "run_pipeline", "etl.pipeline", False),
    ("agridw.cli", "write_reject_ledger", "report.emit", False),
    ("agridw.etl", "read_source", "etl.read", True),
    ("agridw.etl:CompiledMapping", "apply", "etl.map", True),
    ("agridw.store", "open_store", "store.open", False),
    ("agridw.store", "catalog_digest", "catalog.digest", False),
    ("agridw.store", "fnv1a64", "store.digest", True),
    ("agridw.store", "atomic_write_text", "store.manifest", False),
    ("agridw.store", "star_query", "store.star_query", False),
    ("agridw.store:Store", "upsert_dimension", "store.upsert", True),
    ("agridw.store:Store", "insert_facts", "store.insert", False),
    ("agridw.store:Store", "flush", "store.flush", False),
    ("agridw.store:Store", "snapshot", "store.snapshot", False),
    ("agridw.analytics", "extract_yield_records", "analytics.extract", False),
    ("agridw.analytics", "assign_groups", "analytics.assign", False),
    ("agridw.analytics", "mine_optima_from_records", "analytics.mine", False),
    ("agridw.analytics", "mine_optima", "analytics.mine_optima", False),
    ("agridw.report", "emit_findings", "report.emit", False),
    ("agridw.report", "write_run_metadata", "report.emit", False),
    ("agridw.synth", "generate", "synth.generate", False),
)

TOTAL, SELF = 1, 2  # fields of a per-op record [calls, total_ns, self_ns]

LAYERS = ("catalog", "synth", "etl", "store", "analytics", "report", "cli")
STORE_WRITE = ("store.upsert", "store.insert", "store.flush")

# Every metric the traced run reports, with its unit.
METRIC_UNITS = {
    "catalog.digest_ms": "ms",
    "synth.generate_ms": "ms",
    "synth.source_mb": "MB",
    "etl.read.self_ms": "ms",
    "etl.read.mb_per_s": "MB/s",
    "etl.map.self_ms": "ms",
    "etl.map.rows_per_s": "1/s",
    "etl.pipeline.self_ms": "ms",
    "etl.rows_read": "count",
    "etl.rows_rejected": "count",
    "store.upsert.self_ms": "ms",
    "store.upsert.calls": "count",
    "store.upsert.dedup_ratio": "ratio",
    "store.insert.self_ms": "ms",
    "store.insert.rows": "count",
    "store.flush.ms": "ms",
    "store.flush.calls": "count",
    "store.flush.bytes_written": "bytes",
    "store.manifest.writes": "count",
    "store.digest.ms": "ms",
    "store.digest.bytes_per_stored_byte": "ratio",
    "store.open.ms": "ms",
    "store.open.mb_per_s": "MB/s",
    "store.open.bytes_read": "bytes",
    "store.snapshot.ms": "ms",
    "store.star_query.ms": "ms",
    "store.star_query.rows_examined_per_row_returned": "ratio",
    "analytics.extract.ms": "ms",
    "analytics.extract.records_per_s": "1/s",
    "analytics.assign.ms": "ms",
    "analytics.assign.calls_per_op": "count",
    "analytics.mine.self_ms": "ms",
    "report.emit.ms": "ms",
    "cli.self_ms": "ms",
    **{f"share.{layer}_pct": "%" for layer in LAYERS if layer != "synth"},
    "share.store.open_pct": "%",
    "share.store.write_pct": "%",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.ops": "count",
}


def _data_file_sizes(store_path) -> dict[str, int]:
    """Size of each table's data.csv under a store directory."""
    sizes = {}
    with os.scandir(store_path) as entries:
        for entry in entries:
            if entry.is_dir():
                try:
                    sizes[entry.name] = os.stat(os.path.join(entry.path, "data.csv")).st_size
                except FileNotFoundError:
                    pass
    return sizes


class Tracer:
    """Records spans and boundary counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.folded: dict[tuple, list] = {}  # (op, parent, name) -> [calls, total_ns, self_ns]
        self.counters: dict = defaultdict(lambda: defaultdict(float))  # op -> counter -> value
        self.op_ns: dict = {}  # op -> wall time measured by the harness
        self.op = None
        self._stack: list[list] = []  # frames: [span id or None, name, child_ns]
        self._next_id = 0
        self._originals: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, folded: bool) -> list:
        span_id = None
        if not folded:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, name, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: int, end: int, folded: bool) -> None:
        self._stack.pop()
        duration = end - start
        self_ns = duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if folded:
            key = (self.op, parent[1] if parent else None, frame[1])
            rec = self.folded.get(key)
            if rec is None:
                self.folded[key] = [1, duration, self_ns]
            else:
                rec[0] += 1
                rec[1] += duration
                rec[2] += self_ns
        else:
            self.spans.append({
                "id": frame[0], "parent": parent[0] if parent else None, "op": self.op,
                "name": frame[1], "start_ns": start, "end_ns": end, "self_ns": self_ns,
            })

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[self.op][counter] += amount

    def _wrap(self, fn, name: str, folded: bool):
        tracer = self
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name, folded)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, start, perf_counter_ns(), folded)

        hook = _HOOKS.get(name)
        if hook is None:
            return traced

        def counted(*args, **kwargs):
            return hook(tracer, traced, fn, args, kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            return
        for target, attr, name, folded in PATCHES:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, folded))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def _per_op(self, ops) -> dict:
        """op -> name -> [calls, total_ns, self_ns]."""
        out = {op: {} for op in ops}
        for span in self.spans:
            if span["op"] in out:
                rec = out[span["op"]].setdefault(span["name"], [0, 0, 0])
                rec[0] += 1
                rec[1] += span["end_ns"] - span["start_ns"]
                rec[2] += span["self_ns"]
        for (op, _parent, name), (calls, total, self_ns) in self.folded.items():
            if op in out:
                rec = out[op].setdefault(name, [0, 0, 0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_ns
        return out

    def summary(self, ops, untraced_op_ms, setup_ops, source_bytes) -> dict:
        """Per-layer metrics from the traced ops.

        A per-op figure is the median over the traced ops that called the
        function (on ``query`` only every fifth request mines); a rate sums
        over the same ops. Store opens and snapshots that happen only in
        set-up (``query``) are taken from set-up, and so is synth.
        """
        ops, setup_ops = list(ops), list(setup_ops)
        per_op = self._per_op(ops + setup_ops)

        def calls(op, name):
            rec = per_op[op].get(name)
            return rec[0] if rec else 0

        def ms(op, *names, kind=SELF):
            return sum(per_op[op][n][kind] for n in names if n in per_op[op]) / 1e6

        def ctr(op, name):
            return self.counters.get(op, {}).get(name, 0.0)

        def users(name, fallback=False):
            scope = [op for op in ops if calls(op, name)]
            if not scope and fallback:
                scope = [op for op in setup_ops if calls(op, name)]
            return scope

        def med(name, value, fallback=False):
            scope = users(name, fallback)
            return median(value(op) for op in scope) if scope else 0.0

        def ratio(scope, num, den):
            total = sum(den(op) for op in scope)
            return sum(num(op) for op in scope) / total if total else 0.0

        m = {
            "catalog.digest_ms": med("catalog.digest", lambda op: ms(op, "catalog.digest")),
            "synth.generate_ms": median(
                [ms(op, "synth.generate", kind=TOTAL) for op in setup_ops] or [0.0]),
            "synth.source_mb": source_bytes / 1e6,
            "etl.read.self_ms": med("etl.read", lambda op: ms(op, "etl.read")),
            "etl.read.mb_per_s": ratio(
                users("etl.read"), lambda op: ctr(op, "read_bytes") / 1e6, lambda op: ms(op, "etl.read") / 1e3),
            "etl.map.self_ms": med("etl.map", lambda op: ms(op, "etl.map")),
            "etl.map.rows_per_s": ratio(
                users("etl.map"), lambda op: calls(op, "etl.map"), lambda op: ms(op, "etl.map") / 1e3),
            "etl.pipeline.self_ms": med("etl.pipeline", lambda op: ms(op, "etl.pipeline")),
            "etl.rows_read": med("etl.pipeline", lambda op: ctr(op, "rows_read")),
            "etl.rows_rejected": med("etl.pipeline", lambda op: ctr(op, "rows_rejected")),
            "store.upsert.self_ms": med("store.upsert", lambda op: ms(op, "store.upsert")),
            "store.upsert.calls": med("store.upsert", lambda op: calls(op, "store.upsert")),
            "store.upsert.dedup_ratio": ratio(
                users("store.upsert"), lambda op: ctr(op, "upsert_deduped"), lambda op: calls(op, "store.upsert")),
            "store.insert.self_ms": med("store.insert", lambda op: ms(op, "store.insert")),
            "store.insert.rows": med("store.insert", lambda op: ctr(op, "insert_rows")),
            "store.flush.ms": med("store.flush", lambda op: ms(op, "store.flush", kind=TOTAL)),
            "store.flush.calls": med("store.flush", lambda op: calls(op, "store.flush")),
            "store.flush.bytes_written": med("store.flush", lambda op: ctr(op, "flush_bytes")),
            "store.manifest.writes": med("store.manifest", lambda op: calls(op, "store.manifest")),
            "store.digest.ms": med("store.digest", lambda op: ms(op, "store.digest", kind=TOTAL)),
            "store.digest.bytes_per_stored_byte": ratio(
                ops, lambda op: ctr(op, "digest_bytes"), lambda op: ctr(op, "stored_bytes")),
            "store.open.ms": med("store.open", lambda op: ms(op, "store.open", kind=TOTAL), fallback=True),
            "store.open.mb_per_s": ratio(
                users("store.open", fallback=True), lambda op: ctr(op, "open_bytes") / 1e6,
                lambda op: ms(op, "store.open", kind=TOTAL) / 1e3),
            "store.open.bytes_read": med("store.open", lambda op: ctr(op, "open_bytes"), fallback=True),
            "store.snapshot.ms": med(
                "store.snapshot", lambda op: ms(op, "store.snapshot", kind=TOTAL), fallback=True),
            "store.star_query.ms": med("store.star_query", lambda op: ms(op, "store.star_query", kind=TOTAL)),
            "store.star_query.rows_examined_per_row_returned": ratio(
                users("store.star_query"), lambda op: ctr(op, "query_rows_examined"),
                lambda op: ctr(op, "query_rows_returned")),
            "analytics.extract.ms": med(
                "analytics.extract", lambda op: ms(op, "analytics.extract", kind=TOTAL)),
            "analytics.extract.records_per_s": ratio(
                users("analytics.extract"), lambda op: ctr(op, "extract_records"),
                lambda op: ms(op, "analytics.extract", kind=TOTAL) / 1e3),
            "analytics.assign.ms": med("analytics.assign", lambda op: ms(op, "analytics.assign", kind=TOTAL)),
            "analytics.assign.calls_per_op": med("analytics.assign", lambda op: calls(op, "analytics.assign")),
            "analytics.mine.self_ms": med(
                "analytics.mine", lambda op: ms(op, "analytics.mine", "analytics.mine_optima")),
            "report.emit.ms": med("report.emit", lambda op: ms(op, "report.emit", kind=TOTAL)),
            "cli.self_ms": med("cli.main", lambda op: ms(op, "cli.main")),
        }

        op_ms_total = sum(self.op_ns[op] for op in ops) / 1e6
        layer_ms = defaultdict(float)
        for op in ops:
            for name, rec in per_op[op].items():
                layer_ms[name.split(".", 1)[0]] += rec[SELF] / 1e6
        for layer in LAYERS:
            if layer != "synth":
                m[f"share.{layer}_pct"] = 100.0 * layer_ms[layer] / op_ms_total
        for name, parts in (("share.store.open_pct", ("store.open",)), ("share.store.write_pct", STORE_WRITE)):
            m[name] = 100.0 * sum(ms(op, *parts, kind=TOTAL) for op in ops) / op_ms_total

        root_ms = dict.fromkeys(ops, 0.0)
        for span in self.spans:
            if span["op"] in root_ms and span["parent"] is None:
                root_ms[span["op"]] += (span["end_ns"] - span["start_ns"]) / 1e6
        m["trace.unattributed_ms"] = median(self.op_ns[op] / 1e6 - root_ms[op] for op in ops)
        traced_p50 = median(self.op_ns[op] / 1e6 for op in ops)
        m["trace.overhead_pct"] = 100.0 * (traced_p50 / median(untraced_op_ms) - 1.0)
        m["trace.ops"] = len(ops)
        return m

    def write_spans(self, path: Path) -> Path:
        """One JSON object per line: spans first, then folded per-row calls."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for (op, parent, name), (calls, total, self_ns) in self.folded.items():
                handle.write(json.dumps({
                    "op": op, "parent_name": parent, "name": name,
                    "calls": calls, "total_ns": total, "self_ns": self_ns,
                }) + "\n")
        return path


# --- boundary counters ----------------------------------------------------------
# Each hook runs the traced call (or, for a generator, the original) and
# counts at its boundary.

def _count_open(tracer, traced, fn, args, kwargs):
    store = traced(*args, **kwargs)
    tracer.count("open_bytes", sum(_data_file_sizes(store.path).values()))
    return store


def _count_read(tracer, traced, fn, args, kwargs):
    src = args[0] if args else kwargs["src"]
    tracer.count("read_bytes", os.path.getsize(src.path))
    rows = fn(*args, **kwargs)

    def stepped():
        # The work happens while the caller iterates: time each step as one
        # folded etl.read call under whatever span is iterating.
        while True:
            frame = tracer._enter("etl.read", True)
            start = perf_counter_ns()
            try:
                item = next(rows)
            except StopIteration:
                return
            finally:
                tracer._exit(frame, start, perf_counter_ns(), True)
            yield item

    return stepped()


def _count_pipeline(tracer, traced, fn, args, kwargs):
    report = traced(*args, **kwargs)
    tracer.count("rows_read", report.total_read)
    tracer.count("rows_rejected", report.total_rejected)
    tracer.count("upsert_deduped", sum(s.upserts_deduped for s in report.tables.values()))
    return report


def _count_insert(tracer, traced, fn, args, kwargs):
    tracer.count("insert_rows", len(args[2]))
    return traced(*args, **kwargs)


def _count_flush(tracer, traced, fn, args, kwargs):
    store = args[0]
    before = _data_file_sizes(store.path)
    result = traced(*args, **kwargs)
    after = _data_file_sizes(store.path)
    tracer.count("flush_bytes", sum(size - before.get(name, 0) for name, size in after.items()))
    return result


def _count_digest(tracer, traced, fn, args, kwargs):
    tracer.count("digest_bytes", len(args[0]))
    return traced(*args, **kwargs)


def _count_star_query(tracer, traced, fn, args, kwargs):
    snapshot, spec = args[0], args[1]
    result = traced(*args, **kwargs)
    examined = len(snapshot.rows(spec.fact)) + sum(len(snapshot.rows(j.dimension)) for j in spec.joins)
    tracer.count("query_rows_examined", examined)
    tracer.count("query_rows_returned", len(result.rows))
    return result


def _count_extract(tracer, traced, fn, args, kwargs):
    records = traced(*args, **kwargs)
    tracer.count("extract_records", len(records))
    return records


_HOOKS = {
    "store.open": _count_open,
    "etl.read": _count_read,
    "etl.pipeline": _count_pipeline,
    "store.insert": _count_insert,
    "store.flush": _count_flush,
    "store.digest": _count_digest,
    "store.star_query": _count_star_query,
    "analytics.extract": _count_extract,
}
