"""Top-k Relevance Query baseline (REL) [Zhang et al., TOIS'17].

Topic-based search: returns the k active elements whose topic vectors
have the highest cosine similarity to the query vector — relevance
only, no representativeness, which is the gap the k-SIR query closes.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.query import check_k
from repro.core.state import SIRStream

__all__ = ["rel_topk", "topic_cosine"]


def topic_cosine(tp: dict[int, float], topics: np.ndarray, weights: np.ndarray) -> float:
    """Cosine similarity between a sparse element topic vector and x."""
    dot = sum(float(x) * tp.get(int(i), 0.0) for i, x in zip(topics, weights))
    if dot == 0.0:
        return 0.0
    en = math.sqrt(sum(v * v for v in tp.values()))
    qn = math.sqrt(sum(float(x) ** 2 for x in weights))
    return dot / (en * qn)


def rel_topk(state: SIRStream, query, k: int) -> list[int]:
    """k most topic-cosine-relevant active elements to ``query``."""
    check_k(k)
    w = state.window
    scored = sorted(
        (
            (topic_cosine(w.store[eid].tp, query.topics, query.weights), -eid)
            for eid in w.active
        ),
        reverse=True,
    )
    return [-neid for s, neid in scored[:k] if s > 0]
