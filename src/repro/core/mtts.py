"""MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2).

A thresholding sieve over the ranked lists: candidates S_φ for a
geometric progression of OPT estimates φ = (1+ε)^j each admit an element
whose marginal gain reaches φ/2k; elements are fed in decreasing
x_i·δ_i(e) order via the ranked-list traversal, and the scan terminates
as soon as the unevaluated upper bound UB(x) drops below the minimum
admission threshold TH.  Guarantees a (1/2 − ε)-approximation
(Theorem 2) while evaluating each active element at most once.

Guesses that admitted the same elements in the same order share one
coverage state (:class:`~repro.core.query.Phi`), so Δ(e|S) is computed
once per distinct S: the open candidates are walked in ascending t_j,
each state's gain is taken on its first member and reused for the rest,
and the members that admit e — a prefix, since their t_j rise — are
moved together by ``Phi.admit``.
"""
from __future__ import annotations

import math

from repro.core.query import Phi, QueryResult, parse_query
from repro.core.ranked_lists import Traversal
from repro.core.scoring import CoverageState
from repro.core.state import SIRStream

__all__ = ["mtts", "QueryResult"]


def _open(phi: Phi, k: int) -> list[tuple[float, int]]:
    """(t_j = φ_j/2k, j) for every candidate not yet full, ascending in j."""
    return [(phi.guess(j) / (2.0 * k), j) for j, c in sorted(phi.cands.items()) if len(c.S) < k]


def mtts(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """Process k-SIR query ``query`` (.topics/.weights) over ``state``."""
    topics, weights = parse_query(query, k, eps)
    w = state.window
    trav = Traversal(w.rl, topics, weights)
    phi = Phi(k, eps, lambda: CoverageState(w, topics, weights))
    opened: list[tuple[float, int]] = []  # rebuilt when Φ changes or a candidate fills
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
        gains: dict[CoverageState, float] = {}  # Δ(e|S), once per distinct state
        admits: dict[CoverageState, int] = {}  # how many of a state's members admit e
        for t_j, j in opened:  # ascending thresholds: break at first fail
            if dex < t_j:
                break  # δ(e,x) < φ/2k for this and every larger φ
            cand = phi.cands[j]
            g = gains.get(cand)
            if g is None:
                if view is None:
                    view = cand.view(e)
                g = gains[cand] = cand.gain(e, view)
            if g >= t_j:
                admits[cand] = admits.get(cand, 0) + 1
        filled = False
        for cand, n in admits.items():
            filled |= len(phi.admit(cand, n, e, view).S) == k
        if filled:
            opened = [(t_j, j) for t_j, j in opened if len(phi.cands[j].S) < k]
        th = opened[0][0] if opened else math.inf
        if phi.cands and not opened:
            break  # every candidate full: no element can be admitted
    return QueryResult.of(phi.best(), n_eval, trav.n_retrieved)
