"""The benchmark harness still runs against the library: one short
traced run of each workload, whose outputs it checks itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["isometry-stream", "catalogue-scan", "cli-oneshot"])
def test_traced_run_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
