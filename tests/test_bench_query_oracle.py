"""The benchmark's query workload agrees with its own oracles.

``perfbench/run.py --smoke`` runs the star queries and the mining ops of the
``query`` workload on a tiny store and checks each result against oracles
that never call the engine (a dict join of the synth records, and findings
recomputed from them); the last stdout line is its JSON result.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_query_workload_results_match_the_bench_oracles():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1", "--seconds", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
