"""The four benchmark workloads.

Each workload builds its inputs from ``agridw.synth`` with the workload seed
(``setup``), restores its state before each op without timing it
(``prepare``), runs one timed op (``op``) and checks the op's output against
oracles independent of the engine (``check``, untimed). All calls go through
module attributes (``cli.main``, ``store.star_query``, ...), so the tracer's
patches see them.

Sizes: ``full`` is what the benchmark measures; ``smoke`` is a tiny variant
for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import agridw.analytics as analytics
import agridw.cli as cli
import agridw.store as store
import agridw.synth as synth
from agridw.analytics import RULE_RELATIVE_GAP, RULE_WELCH_T, SignificanceRule
from agridw.catalog import builtin_catalog
from agridw.etl import run_pipeline
# Bound by name, so the tracer's patch of ``agridw.store.open_store`` sees only
# the reopen in the query set-up, not the creation of each base store.
from agridw.store import open_store

import oracles

CROP_NAMES = (
    "Spring Barley", "Winter Barley", "Spring Dried Beans", "Winter Dried Beans",
    "Grass", "Spring Linseed", "Forage Maize", "Winter Oats", "Winter Rape",
    "Winter Rye", "Spring Wheat", "Winter Wheat",
)
SOURCES = ("crops", "fields", "soil", "fieldfact")
DIMENSIONS = ("Crop", "Field", "Soil")
DELTA_CROPS = 2
DELTA_SEED_OFFSET = 1_000_003
MINING_EVERY = 5  # query: every fifth request mines, the rest are star queries
MINING_RULES = {
    "gap:0.20": SignificanceRule(kind=RULE_RELATIVE_GAP, threshold=0.20),
    "welch:0.05": SignificanceRule(kind=RULE_WELCH_T, alpha=0.05),
}
ANALYZE_RULE = "gap:0.20"


@dataclass(frozen=True)
class Sizes:
    ingest: int  # records per crop loaded by each ingest op
    base: int  # records per crop in the base store (append, analyze, query)
    delta: int  # records per crop appended by each append op


SIZES = {
    "full": Sizes(ingest=250, base=500, delta=50),
    "smoke": Sizes(ingest=50, base=50, delta=10),
}


def recovery_config(records_per_crop: int, seed: int, crops: int = len(CROP_NAMES)) -> synth.SynthConfig:
    """The acceptance suite's recovery shape: one planted factor per crop,
    optimum at 25% or 70% of its range, scale half the range, noise 0.05*base."""
    base = 10.0
    specs = []
    for i, name in enumerate(CROP_NAMES[:crops]):
        factor = oracles.FACTORS[i % len(oracles.FACTORS)]
        lo, hi = synth.FACTOR_BOUNDS[factor]
        position = 0.25 if i < 6 else 0.70
        effect = synth.FactorEffect(optimum=round(lo + position * (hi - lo), 2), weight=0.5,
                                    scale=(hi - lo) / 2.0)
        specs.append(synth.CropSpec(name, base, {factor: effect}))
    return synth.SynthConfig(crops=tuple(specs), records_per_crop=records_per_crop,
                             noise_sd=0.05 * base, seed=seed)


class Generated:
    """Synth sources on disk plus the records and truth they came from."""

    def __init__(self, config: synth.SynthConfig, out: Path):
        self.config = config
        self.result = synth.generate(config, out)
        self.source_bytes = sum(self.result.sources[name].stat().st_size for name in SOURCES)

    def ingest_args(self) -> list[str]:
        args = []
        for name in SOURCES:
            args += ["--source", str(self.result.sources[name]), "--mapping", str(self.result.mappings[name])]
        return args

    def row_counts(self) -> dict[str, int]:
        records = self.config.records_per_crop * len(self.config.crops)
        return {"Crop": len(self.config.crops), "Field": records, "Soil": records, "FieldFact": records}

    def records(self):
        return synth.generate_records(self.config)

    def expected(self):
        return synth.expected_findings(self.result.truth, self.config)


def build_store(gen: Generated, path: Path) -> None:
    pairs = synth.source_mapping_pairs(gen.result)
    catalog = builtin_catalog()
    run_pipeline(pairs, catalog, open_store(path, catalog))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI command; its diagnostics are captured, not printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _cli_failure(code: int, err: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    return None


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work, self.seed, self.sizes = work, seed, sizes
        self.source_bytes = 0  # the sources behind the store the ops use
        self.bytes_ratio = 0.0  # store bytes per source byte, set by set-up or check
        self.stored_bytes = 0  # data.csv bytes of the store the last op used

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed: build oracles after set-up."""

    def prepare(self, i: int) -> None:
        """Untimed: restore the state op ``i`` starts from."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        raise NotImplementedError

    def warmup_ops(self) -> list[int]:
        return [-1]


class Ingest(Workload):
    """Bulk load of fresh sources into an empty store, through the CLI."""

    name = "ingest"

    def setup(self):
        self.gen = Generated(recovery_config(self.sizes.ingest, self.seed), self.work / "gen")
        self.args = self.gen.ingest_args()
        self.source_bytes = self.gen.source_bytes
        self.store = self.work / "store"
        self.manifest = None

    def prepare(self, i):
        shutil.rmtree(self.store, ignore_errors=True)

    def op(self, i):
        return run_cli(["ingest", *self.args, "--store", str(self.store)])

    def check(self, i, result):
        failure = _cli_failure(*result)
        if failure:
            return failure
        path = self.store
        if oracles.ledger_rows(path / "reject_ledger.csv") != 0:
            return "reject ledger is not empty"
        for table, rows in self.gen.row_counts().items():
            if oracles.data_rows(path, table) != rows:
                return f"{table}: {oracles.data_rows(path, table)} rows, expected {rows}"
        manifest = oracles.manifest_tables(path)
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            return "table digests differ from the first op's"
        self.stored_bytes = oracles.data_bytes(path)
        self.bytes_ratio = oracles.dir_bytes(path) / self.source_bytes
        return None


class _BaseStore(Workload):
    """Workloads over a base store of len(CROP_NAMES) x sizes.base records."""

    def setup(self):
        self.base = self.work / "base"
        shutil.rmtree(self.base, ignore_errors=True)
        self.gen = Generated(recovery_config(self.sizes.base, self.seed), self.work / "gen")
        build_store(self.gen, self.base)
        self.source_bytes = self.gen.source_bytes
        self.base_bytes = oracles.dir_bytes(self.base)
        self.stored_bytes = oracles.data_bytes(self.base)
        self.bytes_ratio = self.base_bytes / self.source_bytes


class Append(_BaseStore):
    """Incremental load of a small delta into a grown store, through the CLI.

    The delta comes from another seed but reuses the first crops and record
    ids, so its Crop/Field/Soil rows all collide with the base (dedup, first
    write wins) and only its facts append.
    """

    name = "append"

    def setup(self):
        super().setup()
        config = recovery_config(self.sizes.delta, self.seed + DELTA_SEED_OFFSET, crops=DELTA_CROPS)
        self.delta = Generated(config, self.work / "gen-delta")
        self.args = self.delta.ingest_args()
        self.store = self.work / "store"
        self.manifest = None
        self.reopened = False

    def prepare_checks(self):
        self.base_rows = {t: oracles.data_rows(self.base, t) for t in (*DIMENSIONS, "FieldFact")}
        if self.base_rows != self.gen.row_counts():
            raise RuntimeError(f"base store rows {self.base_rows} != {self.gen.row_counts()}")

    def prepare(self, i):
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.base, self.store)

    def op(self, i):
        return run_cli(["ingest", *self.args, "--store", str(self.store)])

    def check(self, i, result):
        failure = _cli_failure(*result)
        if failure:
            return failure
        if oracles.ledger_rows(self.store / "reject_ledger.csv") != 0:
            return "reject ledger is not empty"
        grown = self.base_rows["FieldFact"] + self.delta.row_counts()["FieldFact"]
        if oracles.data_rows(self.store, "FieldFact") != grown:
            return f"FieldFact has {oracles.data_rows(self.store, 'FieldFact')} rows, expected {grown}"
        for table in DIMENSIONS:
            if oracles.data_rows(self.store, table) != self.base_rows[table]:
                return f"{table} changed size: dimension rows did not deduplicate"
        manifest = oracles.manifest_tables(self.store)
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            return "table digests differ from the first op's"
        if not self.reopened:
            # Every op writes the same bytes (digests above), so one reopen
            # verifies them all.
            reopened = open_store(self.store, builtin_catalog())
            if reopened.row_count("FieldFact") != grown:
                return "reopened store lost rows"
            self.reopened = True
        self.stored_bytes = oracles.data_bytes(self.store)
        self.bytes_ratio = (oracles.dir_bytes(self.store) - self.base_bytes) / self.delta.source_bytes
        return None


class Analyze(_BaseStore):
    """Cold `analyze mine` over the base store, through the CLI."""

    name = "analyze"

    def prepare_checks(self):
        self.oracle = oracles.FindingsOracle(self.gen.records(), self.gen.expected(), ANALYZE_RULE)
        self.out = self.work / "out"

    def prepare(self, i):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i):
        return run_cli(["analyze", "mine", "--store", str(self.base), "--out", str(self.out),
                        "--rule", ANALYZE_RULE])

    def check(self, i, result):
        failure = _cli_failure(*result)
        if failure:
            return failure
        return self.oracle.check(oracles.findings_from_json(self.out / "findings.json"))


class Query(_BaseStore):
    """Warm exploration of one snapshot: star queries with every fifth request
    mining optima, alternating the gap and Welch rules."""

    name = "query"

    def setup(self):
        super().setup()
        self.snapshot = store.open_store(self.base, builtin_catalog()).snapshot()

    def prepare_checks(self):
        records = self.gen.records()
        expected = self.gen.expected()
        self.miners = {rule: oracles.FindingsOracle(records, expected, rule) for rule in MINING_RULES}
        self.view = oracles.fact_view(records)
        rng = random.Random(self.seed)
        self.pool = [_query(rng, dims, aggregate) for dims, aggregate in QUERY_SHAPES]
        self.order: list[int] = []  # pool indices of the star requests so far
        self.first_rows: dict[int, list] = {}

    def _request(self, i):
        """(kind, argument) of request ``i``; warm-up requests are negative.

        Star requests walk the pool in a fresh seeded order per pass, so
        every shape runs equally often whatever the seed.
        """
        if i < 0:
            return ("mine", "gap:0.20") if i == -1 else ("query", 0)
        if i % MINING_EVERY == MINING_EVERY - 1:
            return "mine", tuple(MINING_RULES)[(i // MINING_EVERY) % len(MINING_RULES)]
        n = i - i // MINING_EVERY  # star requests before this one
        while len(self.order) <= n:
            order = list(range(len(self.pool)))
            random.Random(self.seed * 7919 + len(self.order)).shuffle(order)
            self.order += order
        return "query", self.order[n]

    def warmup_ops(self):
        return [-1, -2]

    def prepare(self, i):
        self._request(i)

    def op(self, i):
        kind, arg = self._request(i)
        if kind == "mine":
            return analytics.mine_optima(self.snapshot, MINING_RULES[arg])
        return store.star_query(self.snapshot, self.pool[arg])

    def check(self, i, result):
        kind, arg = self._request(i)
        if kind == "mine":
            return self.miners[arg].check(oracles.findings_from_objects(result))
        if arg in self.first_rows:
            if result.rows != self.first_rows[arg]:
                return f"query {arg}: result differs from its first run"
            return None
        spec = self.pool[arg]
        want_columns = tuple(spec.group_by) + tuple(a.column for a in spec.aggregates) if spec.aggregates \
            else tuple(spec.project)
        if tuple(result.columns) != want_columns:
            return f"query {arg}: columns {result.columns} != {want_columns}"
        if not oracles.same_rows(result.rows, oracles.star_result(self.view, spec)):
            return f"query {arg}: rows differ from the dict-join oracle"
        self.first_rows[arg] = result.rows
        return None


# Star-query shapes: joined dimensions and whether the query aggregates
# (grouped count/mean/min/max) or projects. The shapes are fixed so the cost
# mix is the same for every seed; the seed picks the filter values.
QUERY_SHAPES = (
    ((), True), ((), False),
    (("Crop",), True), (("Crop",), False),
    (("Soil",), True), (("Soil",), False),
    (("Field",), True), (("Field",), False),
    (("Crop", "Soil"), True), (("Crop", "Soil"), False),
    (("Crop", "Field"), True), (("Soil", "Field"), False),
)
PH_WIDTH = 1.0  # a quarter of the generated pH range


def _query(rng: random.Random, dims: tuple, aggregate: bool) -> store.QuerySpec:
    """FieldFact joined to ``dims``: CropName equality, PH range, Field unfiltered."""
    joins, project = [], ["YieldValue"]
    for dim in dims:
        if dim == "Crop":
            joins.append(store.DimensionJoin("Crop", (store.EqFilter("CropName", rng.choice(CROP_NAMES)),)))
            project.append("Crop.CropName")
        elif dim == "Soil":
            lo_bound, hi_bound = synth.FACTOR_BOUNDS["soil_ph"]
            lo = round(rng.uniform(lo_bound, hi_bound - PH_WIDTH), 2)
            joins.append(store.DimensionJoin("Soil", (store.RangeFilter("PH", lo, lo + PH_WIDTH),)))
            project.append("Soil.PH")
        else:
            joins.append(store.DimensionJoin("Field"))
            project.append("Field.FieldID")
    if not aggregate:
        return store.QuerySpec(fact="FieldFact", joins=tuple(joins), project=tuple(project))
    group_by = ("Crop.CropName",) if "Crop" in dims else ()
    attr = "HerbicideQty" if "Soil" in dims else "YieldValue"
    aggregates = tuple(store.Aggregate(op, attr) for op in ("count", "mean", "min", "max"))
    return store.QuerySpec(fact="FieldFact", joins=tuple(joins), project=group_by,
                           group_by=group_by, aggregates=aggregates)


WORKLOADS = {cls.name: cls for cls in (Ingest, Append, Analyze, Query)}
