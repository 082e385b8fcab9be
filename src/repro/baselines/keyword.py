"""Keyword-based effectiveness baselines (Section 5.1).

* ``tfidf_topk`` — Top-k Keyword Query: log-normalised TF-IDF vectors,
  cosine similarity between query keywords and elements.
* ``div_topk`` — Diversity-aware Top-k Keyword Query [Chen & Cong,
  SIGMOD'15]: greedy maximisation of
  score(q,S) = λ·Σ_{e∈S} rel(q,e) + (1−λ)·div(S) with λ = 0.3, where
  div(S) is the average pairwise TF-IDF dissimilarity.

Both answer over a :class:`KeywordIndex` of the active set A_t at one
window snapshot, which the caller builds once with :func:`keyword_index`
and shares with Sumblr; documents are bags of integer word ids, so
"TF-IDF" is computed over ids directly.  A query's candidates are the
union of its keywords' postings: idf = ln(n/(1+df)) + 1 ≥ 1 − ln 2 > 0
and 1 + ln f ≥ 1, so exactly the elements holding a keyword have
cosine > 0.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.query import check_k
from repro.core.scoring import Element
from repro.core.window import ActiveWindow

__all__ = ["KeywordIndex", "keyword_index", "tfidf_topk", "div_topk"]

#: DIV's relevance/diversity trade-off λ, following [9]
_DIV_LAM = 0.3
#: most recent keyword-matching elements DIV's greedy considers
_DIV_CANDIDATES = 200


class KeywordIndex(NamedTuple):
    """Keyword index of A_t at one snapshot; valid until the window moves."""

    elements: dict[int, Element]  # active eid → element
    vecs: dict[int, dict[int, float]]  # eid → L2-normalised log-TF-IDF vector
    idf: dict[int, float]  # word → ln(n/(1+df)) + 1
    postings: dict[int, list[int]]  # word → active eids holding it; df = length

    def matches(self, keywords: np.ndarray) -> list[int]:
        """Active eids holding at least one of ``keywords``, ascending."""
        return sorted(set().union(*(self.postings.get(int(w), ()) for w in keywords)))


def keyword_index(window: ActiveWindow) -> KeywordIndex:
    """Build the keyword index of ``window``'s active set."""
    elements = {eid: window.store[eid] for eid in window.active}
    postings: dict[int, list[int]] = {}
    for eid, e in elements.items():
        for word in e.words.tolist():
            postings.setdefault(word, []).append(eid)
    n = max(1, len(elements))
    idf = {word: math.log(n / (1 + len(eids))) + 1.0 for word, eids in postings.items()}
    vecs: dict[int, dict[int, float]] = {}
    for eid, e in elements.items():
        v = {
            word: (1.0 + math.log(f)) * idf[word]
            for word, f in zip(e.words.tolist(), e.freqs.tolist())
        }
        norm = math.sqrt(sum(x * x for x in v.values()))
        if norm > 0:
            v = {word: x / norm for word, x in v.items()}
        vecs[eid] = v
    return KeywordIndex(elements, vecs, idf, postings)


def _query_vec(keywords: np.ndarray, idf: dict[int, float]) -> dict[int, float]:
    v = {int(word): idf.get(int(word), 0.0) for word in keywords}
    norm = math.sqrt(sum(x * x for x in v.values()))
    return {word: x / norm for word, x in v.items()} if norm > 0 else {}


def _cos(a: dict[int, float], b: dict[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(x * b.get(word, 0.0) for word, x in a.items())


def tfidf_topk(index: KeywordIndex, keywords: np.ndarray, k: int) -> list[int]:
    """k most TF-IDF-cosine-relevant active elements to ``keywords``."""
    check_k(k)
    q = _query_vec(keywords, index.idf)
    scored = sorted(
        ((_cos(q, index.vecs[eid]), -eid) for eid in index.matches(keywords)), reverse=True
    )
    return [-neid for _, neid in scored[:k]]


def div_topk(index: KeywordIndex, keywords: np.ndarray, k: int) -> list[int]:
    """Greedy diversity-aware top-k (λ = 0.3 following [9]).

    Candidates follow the publish/subscribe semantics of [9]: every
    active element containing at least one query keyword (most recent
    ``_DIV_CANDIDATES`` if more match).  The greedy then trades relevance
    against pairwise diversity within that pool — so, as the paper
    observes of DIV, marginally-matching off-topic elements can enter
    the result.
    """
    check_k(k)
    vecs = index.vecs
    q = _query_vec(keywords, index.idf)
    cand = index.matches(keywords)
    rel = {eid: _cos(q, vecs[eid]) for eid in cand}
    cand = sorted(cand, key=lambda eid: (-index.elements[eid].ts, eid))[:_DIV_CANDIDATES]
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
