import os
import sys


def _driver_mem() -> str:
    """The Spark driver JVM's heap: ``SPARK_DRIVER_MEM`` if set, else half
    of the machine's ``MemTotal`` clamped to 2–8 GiB, or 2g if
    /proc/meminfo cannot be read: the rule ROADMAP's tier-1 command applies.

    spark.driver.memory is read at JVM launch, not from SparkConf, so it
    must be in PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere —
    this runs at conftest import, which pytest loads before any test module.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next((int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:")), 0)
    except OSError:
        return "2g"
    return f"{min(max(kib // (2 << 20), 2), 8)}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow) are set here.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
