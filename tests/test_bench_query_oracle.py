"""The benchmark's workloads run and agree with their own oracles.

``perfbench/run.py --smoke`` runs a workload's ops on tiny sizes and checks
each result against oracles that never call the engine (for ``query``, a dict
join of the synth records and findings recomputed from them); the last stdout
line is its JSON result. A workload the engine breaks fails here, not only in
a full benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _smoke(workload: str) -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0


def test_query_workload_results_match_the_bench_oracles():
    _smoke("query")


@pytest.mark.parametrize("workload", ["ingest", "append", "analyze"])
def test_smoke_workload_runs_correct(workload):
    _smoke(workload)
