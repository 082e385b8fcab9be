"""Keyword-based effectiveness baselines (Section 5.1).

* ``tfidf_topk`` — Top-k Keyword Query: log-normalised TF-IDF vectors,
  cosine similarity between query keywords and elements.
* ``div_topk`` — Diversity-aware Top-k Keyword Query [Chen & Cong,
  SIGMOD'15]: greedy maximisation of
  score(q,S) = λ·Σ_{e∈S} rel(q,e) + (1−λ)·div(S) with λ = 0.3, where
  div(S) is the average pairwise TF-IDF dissimilarity.

Both operate over the current active set A_t of a
:class:`~repro.core.state.SIRStream`; documents are bags of integer
word ids, so "TF-IDF" is computed over ids directly.
"""
from __future__ import annotations

import math
import weakref

import numpy as np

from repro.core.state import SIRStream

__all__ = ["tfidf_topk", "div_topk"]

#: DIV's relevance/diversity trade-off λ, following [9]
_DIV_LAM = 0.3
#: most recent keyword-matching elements DIV's greedy considers
_DIV_CANDIDATES = 200


# state → ((t, n_ingested), index); a weak key is the state itself, so a
# new state that reuses a dead one's id() never hits its index
_TFIDF_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tfidf(state: SIRStream) -> tuple[dict[int, dict[int, float]], dict[int, float]]:
    """Log-normalised TF-IDF vectors (L2-normalised) of active elements.

    Memoised per state snapshot: query batches at one snapshot (the
    evaluation harnesses) reuse one index instead of rebuilding it per
    query.
    """
    version = (state.t, state.n_ingested)
    hit = _TFIDF_CACHE.get(state)
    if hit is not None and hit[0] == version:
        return hit[1]
    w = state.window
    df: dict[int, int] = {}
    for eid in w.active:
        for word in w.store[eid].words:
            df[int(word)] = df.get(int(word), 0) + 1
    n = max(1, len(w.active))
    idf = {word: math.log(n / (1 + d)) + 1.0 for word, d in df.items()}
    vecs: dict[int, dict[int, float]] = {}
    for eid in w.active:
        e = w.store[eid]
        v = {
            int(word): (1.0 + math.log(f)) * idf[int(word)]
            for word, f in zip(e.words, e.freqs)
        }
        norm = math.sqrt(sum(x * x for x in v.values()))
        if norm > 0:
            v = {word: x / norm for word, x in v.items()}
        vecs[eid] = v
    _TFIDF_CACHE.clear()  # keep at most one snapshot cached
    _TFIDF_CACHE[state] = (version, (vecs, idf))
    return vecs, idf


def _query_vec(keywords: np.ndarray, idf: dict[int, float]) -> dict[int, float]:
    v = {int(word): idf.get(int(word), 0.0) for word in keywords}
    norm = math.sqrt(sum(x * x for x in v.values()))
    return {word: x / norm for word, x in v.items()} if norm > 0 else {}


def _cos(a: dict[int, float], b: dict[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(x * b.get(word, 0.0) for word, x in a.items())


def tfidf_topk(state: SIRStream, keywords: np.ndarray, k: int) -> list[int]:
    """k most TF-IDF-cosine-relevant active elements to ``keywords``."""
    vecs, idf = _tfidf(state)
    q = _query_vec(keywords, idf)
    scored = sorted(
        ((_cos(q, v), -eid) for eid, v in vecs.items()), reverse=True
    )
    return [-neid for s, neid in scored[:k] if s > 0]


def div_topk(state: SIRStream, keywords: np.ndarray, k: int) -> list[int]:
    """Greedy diversity-aware top-k (λ = 0.3 following [9]).

    Candidates follow the publish/subscribe semantics of [9]: every
    active element containing at least one query keyword (most recent
    ``_DIV_CANDIDATES`` if more match).  The greedy then trades relevance
    against pairwise diversity within that pool — so, as the paper
    observes of DIV, marginally-matching off-topic elements can enter
    the result.
    """
    vecs, idf = _tfidf(state)
    q = _query_vec(keywords, idf)
    rel = {eid: _cos(q, v) for eid, v in vecs.items()}
    kw = set(int(x) for x in keywords)
    w = state.window
    cand = [
        eid for eid in rel
        if rel[eid] > 0 and kw.intersection(int(x) for x in w.store[eid].words)
    ]
    cand = sorted(cand, key=lambda eid: (-w.store[eid].ts, eid))[:_DIV_CANDIDATES]
    cand.sort()
    S: list[int] = []
    sum_rel = 0.0
    sum_dis = 0.0  # Σ pairwise (1 − cos)
    best_val = 0.0
    while cand and len(S) < k:
        best, best_obj, best_dis = None, -math.inf, 0.0
        for eid in cand:
            dis = sum(1.0 - _cos(vecs[eid], vecs[s]) for s in S)
            m = len(S) + 1
            div = (sum_dis + dis) * 2.0 / (m * (m - 1)) if m > 1 else 0.0
            obj = _DIV_LAM * (sum_rel + rel[eid]) + (1.0 - _DIV_LAM) * div
            if obj > best_obj:
                best, best_obj, best_dis = eid, obj, dis
        if best is None or best_obj <= best_val:
            break
        S.append(best)
        cand.remove(best)
        sum_rel += rel[best]
        sum_dis += best_dis
        best_val = best_obj
    return S
