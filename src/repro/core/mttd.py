"""MULTI-TOPIC THRESHOLDDESCEND (Algorithm 3).

Maintains a single candidate S and an element buffer E′.  Rounds with
geometrically descending threshold τ retrieve from the ranked lists
every element whose upper-bound score can still reach τ, then greedily
admit buffered elements whose (lazily re-evaluated) marginal gain
reaches τ.  Terminates when |S| = k or τ falls below the lower bound
τ′ = f(S,x)·ε/k, yielding a (1 − 1/e − ε)-approximation (Theorem 3).

The buffer is a max-heap of *stale* marginal gains: by submodularity a
stored Δ_e only over-estimates the true Δ(e|S), so popping the stored
maximum and re-evaluating (CELF-style lazy greedy) is exact.
"""
from __future__ import annotations

import heapq

from repro.core.query import _EPS, QueryResult, parse_query
from repro.core.ranked_lists import Traversal
from repro.core.scoring import CoverageState
from repro.core.state import SIRStream

__all__ = ["mttd"]


def mttd(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """Process k-SIR query ``query`` (.topics/.weights) over ``state``."""
    topics, weights = parse_query(query, k, eps)
    w = state.window
    trav = Traversal(w.rl, topics, weights)
    cov = CoverageState(w, topics, weights)
    buf: list[tuple[float, int]] = []  # (−Δ_e, eid), Δ_e a stale upper bound
    tau = trav.upper_bound()
    tau_term = 0.0
    n_eval = 0

    while tau >= tau_term and tau > _EPS:
        # retrieve(τ): pull every element whose UB can still reach τ
        while (eid := trav.next_above(tau)) is not None:
            heapq.heappush(buf, (-w.delta_x(eid, topics, weights), eid))
        # evaluation round: admit while some buffered Δ_e can reach τ
        while buf and -buf[0][0] >= tau:
            _, eid = heapq.heappop(buf)
            e = w.store[eid]
            view = cov.view(e)
            g = cov.gain(e, view)
            n_eval += 1
            if g >= tau:
                cov.add(e, view)
                if len(cov.S) == k:
                    return QueryResult.of(cov, n_eval, trav.n_retrieved)
            elif g > _EPS:
                heapq.heappush(buf, (-g, eid))
            # g ≈ 0: drop — submodularity says it can never gain again
        tau_term = cov.value * eps / k
        tau *= 1.0 - eps

    return QueryResult.of(cov, n_eval, trav.n_retrieved)
