"""MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2).

A thresholding sieve over the ranked lists: candidates S_φ for a
geometric progression of OPT estimates φ = (1+ε)^j each admit an element
whose marginal gain reaches φ/2k; elements are fed in decreasing
x_i·δ_i(e) order via the ranked-list traversal, and the scan terminates
as soon as the unevaluated upper bound UB(x) drops below the minimum
admission threshold TH.  Guarantees a (1/2 − ε)-approximation
(Theorem 2) while evaluating each active element at most once.
"""
from __future__ import annotations

import math

from repro.core.query import Phi, QueryResult, parse_query
from repro.core.ranked_lists import Traversal
from repro.core.scoring import CoverageState
from repro.core.state import SIRStream

__all__ = ["mtts", "QueryResult"]


def mtts(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """Process k-SIR query ``query`` (.topics/.weights) over ``state``."""
    topics, weights = parse_query(query, k, eps)
    w = state.window
    trav = Traversal(w.rl, topics, weights)
    phi = Phi(k, eps, lambda: CoverageState(w, topics, weights))
    th = 0.0
    n_eval = 0
    while (eid := trav.next_above(th)) is not None:
        e = w.store[eid]
        dex = w.delta_x(eid, topics, weights)
        n_eval += 1
        phi.observe(dex)
        for j in sorted(phi.cands):  # ascending thresholds: break at first fail
            t_j = phi.guess(j) / (2.0 * k)
            if dex < t_j:
                break  # δ(e,x) < φ/2k for this and every larger φ
            cand = phi.cands[j]
            if len(cand.S) < k and cand.gain(e) >= t_j:
                cand.add(e)
        unfilled = [j for j, c in phi.cands.items() if len(c.S) < k]
        th = phi.guess(min(unfilled)) / (2.0 * k) if unfilled else math.inf
        if phi.cands and not unfilled:
            break  # every candidate full: no element can be admitted
    return QueryResult.of(phi.best(), n_eval, trav.n_retrieved)
