"""End-to-end table harnesses at test scale: the paper's *shapes*.

Table 3: generated statistics track the profiles.  Table 5 proxy and
Table 6: k-SIR wins coverage and influence; only influence-aware methods
(k-SIR, Sumblr) score high influence.  Efficiency harness: MTTD within
1 % of CELF, Top-k Representative cheapest but worst, update accounting
sane.
"""
import pytest

from repro.corpus import PROFILES, generate_queries, generate_stream
from repro.eval.common import METHODS
from repro.eval.config import DEFAULTS
from repro.eval.efficiency import (
    ALGORITHMS, bench_queries, sweep_epsilon, sweep_scalability, update_time,
)
from repro.eval.table3 import table3_frame
from repro.eval.table5 import table5_user_study, topical_queries
from repro.eval.table6 import table6_quantitative

from stream_fixtures import SMALL_T


def test_table3_stats(spark, small_stream):
    df = table3_frame(spark, [small_stream])
    row = df.iloc[0]
    assert row["dataset"] == "twitter"
    assert row["n_elements"] == 800
    assert row["avg_length"] == pytest.approx(small_stream.profile.avg_len, rel=0.3)
    assert row["avg_references"] == pytest.approx(small_stream.profile.avg_refs, rel=0.35)
    assert 0 < row["vocab_size"] <= row["vocab_model"]


def test_table4_defaults_match_paper():
    assert DEFAULTS.eps == 0.1 and DEFAULTS.eps_grid == (0.1, 0.2, 0.3, 0.4, 0.5)
    assert DEFAULTS.k == 10 and DEFAULTS.k_grid == (5, 10, 15, 20, 25)
    assert DEFAULTS.z == 50 and DEFAULTS.z_grid == (50, 100, 150, 200, 250)
    assert DEFAULTS.T == 24 * 60 and DEFAULTS.L == 15
    assert DEFAULTS.T_grid[0] == 6 * 60 and DEFAULTS.T_grid[-1] == 30 * 60


def test_topical_queries(small_stream, small_state):
    qs = topical_queries(small_stream, n=10, ts=small_state.t)
    assert 1 <= len(qs) <= 10
    for q in qs:
        assert len(q.keywords) == 4
        assert q.weights.sum() == pytest.approx(1.0)


def test_table5_shape(spark, small_stream, small_state):
    df = table5_user_study(spark, small_stream, small_state, n_queries=10, k=5)
    assert list(df["aspect"]) == ["Represent.", "Impact"]
    assert set(METHODS) <= set(df.columns)
    rep = df[df.aspect == "Represent."].iloc[0]
    imp = df[df.aspect == "Impact"].iloc[0]
    for m in METHODS:
        assert 1.0 <= rep[m] <= 5.0 and 1.0 <= imp[m] <= 5.0
    # reproducible part of the paper's shape (see EXPERIMENTS.md):
    # k-SIR wins impact outright and beats the summariser baseline on
    # representativeness; the proxy over-rewards keyword methods on
    # representativeness because synthetic topics are keyword-
    # identifiable (no lexical variation)
    assert imp["k-SIR"] == max(imp[m] for m in METHODS)
    assert rep["k-SIR"] > rep["Sumblr"]


def test_table6_shape(spark, small_stream, small_state, small_queries):
    df = table6_quantitative(spark, small_stream, small_state, small_queries, k=5)
    cov = df[df.metric == "Coverage"].iloc[0]
    inf = df[df.metric == "Influence"].iloc[0]
    # k-SIR achieves the best information coverage ...
    assert cov["k-SIR"] == max(cov[m] for m in METHODS)
    # ... and the influence-aware methods dominate influence
    others = max(inf[m] for m in ("TF-IDF", "DIV", "REL"))
    assert inf["k-SIR"] >= others
    assert inf["k-SIR"] == max(inf[m] for m in METHODS)


def test_bench_queries_frame(small_state, small_queries):
    df = bench_queries(small_state, small_queries[:6], k=10)
    assert list(df["algorithm"]) == list(ALGORITHMS)
    assert (df["avg_ms"] > 0).all()
    by = df.set_index("algorithm")
    assert by.loc["MTTD", "score_vs_celf"] >= 0.99  # paper: ≥99 % of CELF
    assert by.loc["MTTS", "score_vs_celf"] >= 0.90
    assert by.loc["Top-k Repr", "avg_score"] <= by.loc["MTTD", "avg_score"]
    # MTTS/MTTD prune evaluations; CELF evaluates ≥ every active element
    assert by.loc["CELF", "eval_ratio"] >= 1.0
    assert by.loc["MTTD", "eval_ratio"] < by.loc["CELF", "eval_ratio"]


def test_sweep_epsilon_quality_declines(small_state, small_queries):
    df = sweep_epsilon(small_state, small_queries[:4], k=10, eps_grid=(0.1, 0.5))
    mtts = df[df.algorithm == "MTTS"].set_index("eps")
    # theory: quality at ε=0.5 within (1/2−ε) but ≥ 95 % loss bound holds loosely
    assert mtts.loc[0.5, "avg_score"] <= mtts.loc[0.1, "avg_score"] + 1e-9
    mttd = df[df.algorithm == "MTTD"].set_index("eps")
    # at 800-element test scale the ε=0.5 rounds are very coarse; the
    # paper's ≤5 % claim is asserted at bench scale (bench_quality.py)
    assert mttd.loc[0.5, "score_vs_celf"] >= 0.80


def test_sweep_scalability_covers_table4_grid():
    """Figs 12–13 sweep exactly the Table-4 z and T grids, each at the
    other axis' default, with CELF, MTTS and MTTD at every point."""
    df = sweep_scalability(PROFILES["reddit"], n_elements=300, seed=0)
    points = df.groupby(["axis", "z", "T"], sort=False)["algorithm"].apply(sorted)
    z_rows = [(z, T) for (axis, z, T) in points.index if axis == "z"]
    T_rows = [(z, T) for (axis, z, T) in points.index if axis == "T"]
    assert z_rows == [(z, DEFAULTS.T) for z in DEFAULTS.z_grid]
    assert T_rows == [(DEFAULTS.z, T) for T in DEFAULTS.T_grid]
    assert all(algs == ["CELF", "MTTD", "MTTS"] for algs in points)


def test_update_time_accounting(small_state):
    d = update_time(small_state)
    assert d["n_elements"] == 800
    assert d["update_us_per_element"] > 0


def test_table3_multi_profile(spark):
    streams = [
        generate_stream(PROFILES[p], n_elements=400, z=8, duration=300, seed=2)
        for p in ("aminer", "reddit", "twitter")
    ]
    df = table3_frame(spark, streams)
    assert list(df["dataset"]) == ["aminer", "reddit", "twitter"]
    # relative shape of Table 3: AMiner longest docs & most refs
    assert df.iloc[0]["avg_length"] > df.iloc[1]["avg_length"] > df.iloc[2]["avg_length"]
    assert df.iloc[0]["avg_references"] > df.iloc[1]["avg_references"]
