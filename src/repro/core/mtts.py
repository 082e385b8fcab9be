"""MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2).

A thresholding sieve over the ranked lists: candidates S_φ for a
geometric progression of OPT estimates φ = (1+ε)^j each admit an element
whose marginal gain reaches φ/2k; elements are fed in decreasing
x_i·δ_i(e) order via the ranked-list traversal, and the scan terminates
as soon as the unevaluated upper bound UB(x), or the tighter sum of the
m heaviest list heads (``Traversal.next_above``), drops below the minimum
admission threshold TH.  An element left unretrieved has δ(e,x) < TH
≤ m_Φ, so it could have changed neither Φ nor TH: the answer is Alg. 2's.
Guarantees a (1/2 − ε)-approximation (Theorem 2) while evaluating each
active element at most once.

Guesses that admitted the same elements in the same order share one
coverage state, and :meth:`~repro.core.query.Phi.offer` scores e once
per distinct state; MTTS supplies only its admission threshold φ_j/2k
and the cap δ(e,x) ≥ Δ(e|S), past which no guess can admit e.
"""
from __future__ import annotations

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

    def need(j: int, cand: CoverageState) -> float:
        return phi.guess(j) / (2.0 * k)

    th, j0 = 0.0, None  # TH = need of the lowest open guess j0
    n_eval = 0
    while (eid := trav.next_above(th)) is not None:
        dex = w.delta_x(eid, topics, weights)
        n_eval += 1
        phi.observe(dex)
        phi.offer(w.store[eid], need, dex)
        if not phi.runs:
            break  # every candidate full: no element can be admitted
        if phi.runs[0][1][0] != j0:
            j0 = phi.runs[0][1][0]
            th = need(j0, phi.runs[0][0])
    return QueryResult.of(phi.best(), n_eval, trav.n_retrieved)
