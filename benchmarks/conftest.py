"""Benchmark fixtures: SF≈0.1-scale streams shared across bench modules.

Sizes are chosen so the whole ``pytest benchmarks/ --benchmark-only``
run finishes in minutes while active windows are large enough (≈10⁴
elements) for the paper's efficiency shape — ranked-list pruning vs
full-scan baselines — to be visible.  The ``jobs/`` entrypoints run the
same harnesses at larger scale.
"""
import pytest

from repro.corpus import PROFILES, generate_queries, generate_stream
from repro.eval.common import build_state
from repro.eval.config import DEFAULTS

# per-profile element counts; z, span, T and L are the Table-4 DEFAULTS
BENCH = {"aminer": 12_000, "reddit": 30_000, "twitter": 30_000}


def _make(name: str):
    stream = generate_stream(
        PROFILES[name], n_elements=BENCH[name], z=DEFAULTS.z,
        duration=DEFAULTS.duration, seed=0,
    )
    return stream, build_state(stream, DEFAULTS.T, DEFAULTS.L)


@pytest.fixture(scope="session")
def bench_reddit():
    return _make("reddit")


@pytest.fixture(scope="session")
def bench_aminer():
    return _make("aminer")


@pytest.fixture(scope="session")
def bench_twitter():
    return _make("twitter")


@pytest.fixture(scope="session")
def reddit_queries(bench_reddit):
    stream, _ = bench_reddit
    return generate_queries(stream, 20, seed=3, t_min=DEFAULTS.T)


@pytest.fixture(scope="session")
def aminer_queries(bench_aminer):
    stream, _ = bench_aminer
    return generate_queries(stream, 20, seed=3, t_min=DEFAULTS.T)


@pytest.fixture(scope="session")
def twitter_queries(bench_twitter):
    stream, _ = bench_twitter
    return generate_queries(stream, 20, seed=3, t_min=DEFAULTS.T)
