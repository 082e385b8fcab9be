"""Smoke tests for the ``jobs/`` entrypoints: each parses its options and
imports what it uses, so ``--help`` exits 0 without running a job or
writing a result."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = (
    "efficiency_sweep", "scalability_sweep", "stream_pipeline",
    "table3_stats", "table5_user_study", "table6_quant",
)


def _run(job: str, *args: str) -> subprocess.CompletedProcess:
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "jobs", f"{job}.py"), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.mark.parametrize("job", JOBS)
def test_job_help(job):
    proc = _run(job, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--scale" in proc.stdout


def test_scalability_sweep_refuses_several_datasets():
    proc = _run("scalability_sweep", "--scale", "test", "--datasets", "aminer", "reddit")
    assert proc.returncode == 2
    assert "single --datasets" in proc.stderr
