"""SieveStreaming [Badanidiyuru et al., KDD'14].

The streaming baseline: a single pass over *all* active elements in
arbitrary order, maintaining candidates for a geometric progression of
OPT guesses; (1/2 − ε)-approximate.  Unlike MTTS it has no ranked-list
ordering, so it cannot terminate early — every active element is
evaluated.
"""
from __future__ import annotations

from repro.core.query import Phi, QueryResult, parse_query
from repro.core.scoring import CoverageState, singleton_delta
from repro.core.state import SIRStream

__all__ = ["sieve_streaming"]


def sieve_streaming(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """One pass over A_t with the classic sieve admission rule
    Δ(e|S_v) ≥ (v/2 − f(S_v)) / (k − |S_v|)."""
    topics, weights = parse_query(query, k, eps)
    w = state.window
    phi = Phi(k, eps, lambda: CoverageState(w, topics, weights, state.lam, state.eta))
    n_eval = 0
    for eid in sorted(w.active):  # arbitrary but deterministic order
        e = w.store[eid]
        d = singleton_delta(e, w, topics, weights, state.lam, state.eta)
        n_eval += 1
        if d <= 0:
            continue
        phi.observe(d)
        for j, cand in phi.cands.items():
            if len(cand.S) >= k:
                continue
            need = (phi.guess(j) / 2.0 - cand.value) / (k - len(cand.S))
            if cand.gain(e) >= need:
                cand.add(e)
    return QueryResult.of(phi.best(), n_eval, 0)
