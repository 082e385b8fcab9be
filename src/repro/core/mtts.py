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


def _open(phi: Phi, k: int) -> list[tuple[float, CoverageState]]:
    """(t_j = φ_j/2k, S_φj) for every candidate not yet full, ascending in j."""
    return [(phi.guess(j) / (2.0 * k), c) for j, c in sorted(phi.cands.items()) if len(c.S) < k]


def mtts(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """Process k-SIR query ``query`` (.topics/.weights) over ``state``."""
    topics, weights = parse_query(query, k, eps)
    w = state.window
    trav = Traversal(w.rl, topics, weights)
    phi = Phi(k, eps, lambda: CoverageState(w, topics, weights))
    opened: list[tuple[float, CoverageState]] = []  # rebuilt when Φ changes or a candidate fills
    th = 0.0
    n_eval = 0
    while (eid := trav.next_above(th)) is not None:
        e = w.store[eid]
        dex = w.delta_x(eid, topics, weights)
        n_eval += 1
        m = phi.m
        phi.observe(dex)
        if phi.m != m:
            opened = _open(phi, k)
        view = None  # e's query view, built once and shared by every candidate
        filled = False
        for t_j, cand in opened:  # ascending thresholds: break at first fail
            if dex < t_j:
                break  # δ(e,x) < φ/2k for this and every larger φ
            if view is None:
                view = cand.view(e)
            if cand.gain(e, view) >= t_j:
                cand.add(e, view)
                filled = filled or len(cand.S) == k
        if filled:
            opened = [(t_j, c) for t_j, c in opened if len(c.S) < k]
        th = opened[0][0] if opened else math.inf
        if phi.cands and not opened:
            break  # every candidate full: no element can be admitted
    return QueryResult.of(phi.best(), n_eval, trav.n_retrieved)
