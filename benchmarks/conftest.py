"""Bench-scale checks of the paper's shapes: one stream per profile.

``pytest benchmarks/ -q`` asserts the shapes of Tables 3, 5 and 6 and of
the quality claims of Figs 8/10 on SF≈0.1 streams, whose active windows
(≈10⁴ elements) are large enough for ranked-list pruning to show.  It
times nothing: the ``jobs/`` entrypoints regenerate the tables and the
query/update times (via ``results/``), and perfbench times the layers.
"""
import functools

import pytest

from repro.corpus import PROFILES, generate_queries, generate_stream
from repro.eval.common import build_state
from repro.eval.config import DEFAULTS

# per-profile element counts; z, span, T and L are the Table-4 DEFAULTS
BENCH = {"aminer": 12_000, "reddit": 30_000, "twitter": 30_000}


@pytest.fixture(scope="session")
def bench():
    """Profile name → (stream, state, 20 queries), each built once per session."""

    @functools.cache
    def make(name: str):
        stream = generate_stream(
            PROFILES[name], n_elements=BENCH[name], z=DEFAULTS.z,
            duration=DEFAULTS.duration, seed=0,
        )
        state = build_state(stream, DEFAULTS.T, DEFAULTS.L)
        return stream, state, generate_queries(stream, 20, seed=3, t_min=DEFAULTS.T)

    return make
