"""CELF [Leskovec et al., KDD'07]: lazy greedy submodular maximisation.

The strongest-quality batch baseline: (1 − 1/e)-approximate (identical
output to the naive greedy), but evaluates every active element at least
once per query — exactly the cost the paper's ranked-list algorithms
avoid.
"""
from __future__ import annotations

import heapq

from repro.core.query import QueryResult, parse_query
from repro.core.scoring import CoverageState, singleton_delta
from repro.core.state import SIRStream

__all__ = ["celf"]


def celf(state: SIRStream, query, k: int) -> QueryResult:
    """Lazy greedy over all of A_t with a stale-gain priority queue.

    Heap entries carry the |S| they were evaluated against; a popped
    entry whose stamp matches the current |S| is exact and can be taken
    immediately (by submodularity all other stale gains only shrink).
    """
    topics, weights = parse_query(query, k)
    w = state.window
    cov = CoverageState(w, topics, weights, state.lam, state.eta)
    n_eval = 0
    # Index-less: singleton scores are computed from raw element data,
    # which is the O(l·d)-per-element cost the paper charges CELF with.
    heap: list[tuple[float, int, int]] = []
    for eid in w.active:
        d = singleton_delta(w.store[eid], w, topics, weights, state.lam, state.eta)
        n_eval += 1
        if d > 0:
            heap.append((-d, eid, 0))
    heapq.heapify(heap)
    while heap and len(cov.S) < k:
        negg, eid, stamp = heapq.heappop(heap)
        if stamp == len(cov.S):
            if -negg <= 0:
                break
            cov.add(w.store[eid])
        else:
            g = cov.gain(w.store[eid])
            n_eval += 1
            if g > 0:
                heapq.heappush(heap, (-g, eid, len(cov.S)))
    return QueryResult.of(cov, n_eval, 0)
