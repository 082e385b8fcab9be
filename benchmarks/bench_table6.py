"""Table 6 at bench scale: quantitative coverage/influence.

Runs the quantitative harness (random workload queries × 5 methods ×
Spark metric pipelines) once per dataset and asserts the paper's shape: k-SIR best coverage and best
influence, with only the influence-aware methods (k-SIR, Sumblr)
scoring high influence.
"""
import pytest

from repro.corpus import generate_queries
from repro.eval.common import METHODS
from repro.eval.config import DEFAULTS
from repro.eval.table6 import table6_quantitative


@pytest.mark.parametrize("name", ["aminer", "reddit", "twitter"])
def test_table6(bench, name, spark):
    stream, state, _ = bench(name)
    queries = generate_queries(stream, 40, seed=11, t_min=DEFAULTS.T)
    df = table6_quantitative(spark, stream, state, queries)
    cov = df[df.metric == "Coverage"].iloc[0]
    inf = df[df.metric == "Influence"].iloc[0]
    assert cov["k-SIR"] == max(cov[m] for m in METHODS)
    assert inf["k-SIR"] == max(inf[m] for m in METHODS)
    # influence-agnostic methods trail the influence-aware pair
    assert min(inf["k-SIR"], inf["Sumblr"]) >= max(inf["TF-IDF"], inf["DIV"]) - 0.05
