"""Table 6 regeneration benchmark: quantitative coverage/influence.

Runs the quantitative harness (random workload queries × 5 methods ×
Spark metric pipelines) once per dataset, attaches the table via
extra_info, and asserts the paper's shape: k-SIR best coverage and best
influence, with only the influence-aware methods (k-SIR, Sumblr)
scoring high influence.
"""
import pytest

from repro.corpus import generate_queries
from repro.eval.common import METHODS
from repro.eval.config import DEFAULTS
from repro.eval.table6 import table6_quantitative


@pytest.mark.parametrize("fixture", ["bench_aminer", "bench_reddit", "bench_twitter"])
def test_table6(benchmark, fixture, request, spark):
    stream, state = request.getfixturevalue(fixture)
    queries = generate_queries(stream, 40, seed=11, t_min=DEFAULTS.T)
    df = benchmark.pedantic(
        lambda: table6_quantitative(spark, stream, state, queries),
        rounds=1,
        iterations=1,
    )
    cov = df[df.metric == "Coverage"].iloc[0]
    inf = df[df.metric == "Influence"].iloc[0]
    assert cov["k-SIR"] == max(cov[m] for m in METHODS)
    assert inf["k-SIR"] == max(inf[m] for m in METHODS)
    # influence-agnostic methods trail the influence-aware pair
    assert min(inf["k-SIR"], inf["Sumblr"]) >= max(inf["TF-IDF"], inf["DIV"]) - 0.05
    for _, row in df.iterrows():
        benchmark.extra_info[f"{row['metric']}"] = {m: row[m] for m in METHODS}
