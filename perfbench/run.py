"""agridw benchmark: one closed-loop workload per process, one client.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (generating sources, building the base store, taking the snapshot)
runs SETUP_REPEATS times and is reported as ``setup_s``; then untimed
warm-up ops, then ops back to back for ``--seconds``. State restores
(including a full garbage collection) and output checks sit outside each
op's timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
traced and untraced ops and prints the per-layer metrics instead, writing
the spans and the per-layer summary under ``.perfbench/out/``. The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops above it
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "store_bytes_per_source_byte": "ratio",
}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@contextmanager
def traced_as(tracer, op):
    """Install the tracer's wrappers for one op (or set-up); no-op untraced."""
    if tracer is None:
        yield
        return
    tracer.op = op
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def run(workload: str, seed: int, seconds: float, trace: bool, sizes_name: str = "full",
        out_root: Path = ROOT / ".perfbench") -> dict:
    """One benchmark run; returns the report with its metrics."""
    import layertrace
    import workloads

    sizes = workloads.SIZES[sizes_name]
    work = out_root / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = layertrace.Tracer() if trace else None
    try:
        wl = workloads.WORKLOADS[workload](work, seed, sizes)
        setup_s = []
        for k in range(SETUP_REPEATS):
            gc.collect()
            with traced_as(tracer, f"setup{k}"):
                started = perf_counter()
                wl.setup()
                setup_s.append(perf_counter() - started)
        wl.prepare_checks()
        warmup_errors = []
        for i in wl.warmup_ops():
            wl.prepare(i)
            error = wl.check(i, wl.op(i))
            if error:
                warmup_errors.append(f"warm-up op {i}: {error}")

        op_ms, untraced_ms, ratios, errors = [], [], [], []
        deadline = perf_counter() + seconds
        i = 0
        min_ops = 2 if tracer else 1  # a traced run needs an untraced op to compare
        while i < min_ops or perf_counter() < deadline:
            wl.prepare(i)
            # Every op meets the same collector state and pays only for
            # collecting its own objects, not for an earlier op's garbage.
            gc.collect()
            traced = tracer is not None and i % 2 == 0
            result, error = None, None
            with traced_as(tracer if traced else None, i):
                started = perf_counter_ns()
                try:
                    result = wl.op(i)
                except Exception as exc:  # a failed op is counted, not fatal
                    error = f"raised {exc!r}"
                elapsed = perf_counter_ns() - started
            if traced:
                tracer.op_ns[i] = elapsed
            if error is None:
                try:
                    error = wl.check(i, result)
                except Exception as exc:
                    error = f"check raised {exc!r}"
            if error is None:
                ratios.append(wl.bytes_ratio)
                if traced:
                    tracer.counters[i]["stored_bytes"] = wl.stored_bytes
            else:
                errors.append(f"op {i}: {error}")
            (op_ms if tracer is None or traced else untraced_ms).append(elapsed / 1e6)
            i += 1

        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "sizes": sizes_name,
            "attempted": i, "failed": len(errors), "errors": (warmup_errors + errors)[:5],
            "correct": not warmup_errors and not errors,
            "ops_timed": len(op_ms), "setup_runs": len(setup_s),
        }
        if tracer is None:
            tail_ms, tail_pct = tail(op_ms)
            report["tail_percentile"] = tail_pct
            metrics = {
                "setup_s": median(setup_s),
                "op_ms.p50": median(op_ms),
                "op_ms.tail": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "store_bytes_per_source_byte": median(ratios) if ratios else wl.bytes_ratio,
            }
            units = END_TO_END_UNITS
        else:
            setup_ops = [f"setup{k}" for k in range(SETUP_REPEATS)]
            metrics = tracer.summary(tracer.op_ns, untraced_ms, setup_ops, wl.source_bytes)
            units = layertrace.METRIC_UNITS
            out = out_root / "out"
            stem = f"{workload}-seed{seed}"
            report["span_file"] = str(tracer.write_spans(out / f"{stem}-spans.jsonl"))
            layers = out / f"{stem}-layers.json"
            layers.write_text(json.dumps({**report, "metrics": metrics}, indent=2) + "\n")
            report["layer_file"] = str(layers)
        report["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict, trace: bool) -> None:
    print(
        f"perfbench workload={report['workload']} seed={report['seed']} seconds={report['seconds']}"
        f" trace={int(trace)} sizes={report['sizes']} load=closed-loop clients=1"
        f" flush=page-cache(no fsync) python={platform.python_version()}"
        f" nproc={os.cpu_count()} git={git_sha(ROOT)}"
    )
    for name, metric in report["metrics"].items():
        note = ""
        if name == "op_ms.p50":
            note = f"  ({report['ops_timed']} ops)"
        elif name == "op_ms.tail":
            note = f"  (p{report['tail_percentile']:.1f} of {report['ops_timed']} ops)"
        elif name == "setup_s":
            note = f"  (median of {report['setup_runs']} set-ups)"
        print(f"  {name:<50} {metric['value']:>14.4f} {metric['unit']}{note}")
    rate = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"  {'error_rate':<50} {rate:>14.4f} ratio  ({report['failed']} of {report['attempted']} ops)")
    for error in report["errors"]:
        print(f"  error: {error}", file=sys.stderr)
    if trace:
        print(f"  spans: {report['span_file']}  layers: {report['layer_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("ingest", "append", "analyze", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "agridw" / "__init__.py").is_file():
        print(f"perfbench: no agridw package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), "smoke" if args.smoke else "full")
    print_report(report, bool(args.trace))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
