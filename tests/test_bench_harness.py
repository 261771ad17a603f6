"""The benchmark harness's traced run of every workload exits 0 and reports
its operations correct.  Only a traced run resolves each wrapped method in
its class's own namespace, calls the CLI in-process and requires the layer
self times to cover the traced wall time, so a rename or an alias removed
in the library shows here.  The harness is read, never edited."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["circuit-index2", "multibody-forms", "tv-index1"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
