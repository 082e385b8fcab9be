"""How the tree runs from ``src``: each ``jobs/`` entrypoint parses its
options and imports what it uses, so ``--help`` exits 0 without running a
job or writing a result; the Spark-free harness modules import without
pyspark; the batch stream core generates, ingests and queries a stream
with numpy alone; and the root conftest sizes the Spark driver heap by
one rule."""
import os
import subprocess
import sys

import pytest

import conftest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = (
    "efficiency_sweep", "scalability_sweep", "stream_pipeline",
    "table3_stats", "table5_user_study", "table6_quant",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env,
    )


def _run(job: str, *args: str) -> subprocess.CompletedProcess:
    return _python(os.path.join(ROOT, "jobs", f"{job}.py"), *args)


@pytest.mark.parametrize("job", JOBS)
def test_job_help(job):
    proc = _run(job, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--scale" in proc.stdout


def test_scalability_sweep_refuses_several_datasets():
    proc = _run("scalability_sweep", "--scale", "test", "--datasets", "aminer", "reddit")
    assert proc.returncode == 2
    assert "single --datasets" in proc.stderr


def test_spark_free_modules_import_without_pyspark():
    proc = _python("-c", (
        "import sys, repro.eval.config, repro.eval.efficiency; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark'))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_STREAM_CORE_RUN = """
import sys
from repro.baselines import celf, sieve_streaming, topk_representative
from repro.core import SIRStream, build_elements, mttd, mtts
from repro.corpus import REDDIT, generate_queries, generate_stream
import repro.topics

stream = generate_stream(REDDIT, n_elements=300, z=10, duration=240, seed=3)
st = SIRStream(T=120, L=15, lam=REDDIT.lam, eta=REDDIT.eta)
st.load(build_elements(stream))
st.run_all()
q = generate_queries(stream, 1, seed=3, t_min=120)[0]
for answer in (mtts, mttd, celf, sieve_streaming, topk_representative):
    assert answer(st, q, 5).eids, answer.__name__
heavy = {"pandas", "pyarrow", "pyspark", "duckdb"}
print(sorted({m.split(".")[0] for m in sys.modules} & heavy))
df = stream.elems_pdf()
print(type(df).__module__.split(".")[0], type(df).__name__, len(df) == stream.n)
"""


def test_stream_core_imports_numpy_only():
    """Generating, ingesting and querying a stream loads none of pandas,
    pyarrow, pyspark or duckdb; the ``*_pdf`` table views load pandas."""
    proc = _python("-c", _STREAM_CORE_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "pandas DataFrame True"]


def test_driver_mem_rule(monkeypatch):
    """Unset: half of MemTotal in GiB, clamped to 2–8; unreadable: 2g."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    with open("/proc/meminfo") as f:
        kib = int(next(ln for ln in f if ln.startswith("MemTotal:")).split()[1])
    assert conftest._driver_mem() == f"{min(max(kib // 2**21, 2), 8)}g"

    def unreadable(*args, **kwargs):
        raise OSError("no /proc/meminfo")

    monkeypatch.setattr(conftest, "open", unreadable, raising=False)
    assert conftest._driver_mem() == "2g"
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert conftest._driver_mem() == "3g"
