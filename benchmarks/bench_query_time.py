"""Per-query processing time of each algorithm (Figures 7/9, Section 5.3).

One pytest-benchmark per (dataset, algorithm): the mean time to answer a
k-SIR query at the defaults (k = 10, ε = 0.1) over the bench window
snapshot.  The MTTS/MTTD vs CELF/SieveStreaming ratios here are the
repo's reproduction of the paper's speedup claims; EXPERIMENTS.md
records a concrete run next to the paper's 124×/390×.
"""
import itertools

import pytest

from repro.eval.efficiency import ALGORITHMS, run_algorithm

K, EPS = 10, 0.1


def _bench(benchmark, state, queries, alg):
    it = itertools.cycle(queries)
    result = benchmark(lambda: run_algorithm(alg, state, next(it), K, EPS))
    assert result.value >= 0


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_query_time_reddit(benchmark, bench_reddit, reddit_queries, alg):
    _, state = bench_reddit
    benchmark.extra_info["n_active"] = state.window.n_active
    _bench(benchmark, state, reddit_queries, alg)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_query_time_aminer(benchmark, bench_aminer, aminer_queries, alg):
    _, state = bench_aminer
    benchmark.extra_info["n_active"] = state.window.n_active
    _bench(benchmark, state, aminer_queries, alg)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_query_time_twitter(benchmark, bench_twitter, twitter_queries, alg):
    _, state = bench_twitter
    benchmark.extra_info["n_active"] = state.window.n_active
    _bench(benchmark, state, twitter_queries, alg)
