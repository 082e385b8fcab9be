"""Top-k Representative baseline (Section 5.1).

Returns the k active elements with the highest singleton
representativeness scores δ(e,x), retrieved from the ranked lists with
threshold pruning.  Only 1/k-approximate for k-SIR: word and influence
overlaps between the selected elements are ignored, which is exactly
the quality gap the paper's Figure 10 exhibits.
"""
from __future__ import annotations

import heapq

from repro.core.query import QueryResult, parse_query
from repro.core.ranked_lists import Traversal
from repro.core.scoring import CoverageState
from repro.core.state import SIRStream

__all__ = ["topk_representative"]


def topk_representative(state: SIRStream, query, k: int) -> QueryResult:
    """Threshold-pruned top-k by δ(e,x) over the ranked lists."""
    topics, weights = parse_query(query, k)
    w = state.window
    trav = Traversal(state.rl, topics, weights)
    best: list[tuple[float, int]] = []  # min-heap of (δ, eid), size ≤ k
    n_eval = 0
    while (eid := trav.next_above(best[0][0] if len(best) == k else 0.0)) is not None:
        d = w.delta_x(eid, topics, weights)
        n_eval += 1
        if len(best) < k:
            heapq.heappush(best, (d, eid))
        elif d > best[0][0]:
            heapq.heapreplace(best, (d, eid))
    # Report the true set score f(S,x) so quality is comparable
    cov = CoverageState(w, topics, weights, state.lam, state.eta)
    for _, eid in sorted(best, reverse=True):
        cov.add(w.store[eid])
    return QueryResult.of(cov, n_eval, trav.n_retrieved)
