"""Sumblr-style summarisation baseline [Shou et al., SIGIR'13].

The paper's query-time adaptation: filter active elements containing at
least one query keyword (the union of the keywords' postings in the
snapshot's :class:`~repro.baselines.keyword.KeywordIndex`), cluster the
candidates, and emit one representative per cluster as the k-element
summary.

Substitution (documented in DESIGN.md §3): the original maintains online
tweet-cluster vectors and ranks with LexRank over author PageRank.  We
cluster with k-means over the elements' topic vectors and pick each
cluster's representative by centroid-closeness × an author-quality
score standing in for author PageRank — preserving the behaviour Table
5/6 measures: topically clustered, influence-aware, but keyword-filtered
(so off-topic keyword matches can leak in, the paper's reported weakness
of Sumblr).
"""
from __future__ import annotations

import numpy as np

from repro.baselines.keyword import KeywordIndex
from repro.core.query import check_k

__all__ = ["sumblr"]


def _kmeans(xs: np.ndarray, k: int) -> np.ndarray:
    """Tiny deterministic k-means (seed 0, at most 20 rounds); returns cluster labels."""
    g = np.random.default_rng(0)
    k = min(k, len(xs))
    centroids = xs[g.choice(len(xs), size=k, replace=False)]
    labels = np.zeros(len(xs), dtype=int)
    for _ in range(20):
        d = ((xs[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new = d.argmin(axis=1)
        if (new == labels).all():
            break
        labels = new
        for c in range(k):
            m = labels == c
            if m.any():
                centroids[c] = xs[m].mean(axis=0)
    return labels


def sumblr(
    index: KeywordIndex,
    keywords: np.ndarray,
    k: int,
    author_score: dict[int, float],
) -> list[int]:
    """Keyword-filtered, cluster-based k-element summary of A_t.

    ``author_score`` plays the role of the original's author-PageRank
    (the paper stresses Sumblr "only considers the PageRank scores of
    authors", not reference counts — which is why k-SIR beats it on
    influence).
    """
    check_k(k)
    cands = index.matches(keywords)
    if not cands:
        return []
    tps = [index.elements[eid].tp for eid in cands]
    z = max(max(tp) for tp in tps) + 1
    xs = np.zeros((len(cands), z))
    for r, tp in enumerate(tps):
        for i, p in tp.items():
            xs[r, i] = p
    labels = _kmeans(xs, k)
    out: list[int] = []
    for c in np.unique(labels):
        rows = np.nonzero(labels == c)[0]
        centroid = xs[rows].mean(axis=0)
        cn = np.linalg.norm(centroid)
        best, best_s = None, -1.0
        for r in rows:
            eid = cands[r]
            xn = np.linalg.norm(xs[r])
            cen = float(xs[r] @ centroid / (xn * cn)) if xn > 0 and cn > 0 else 0.0
            # flatten the Zipf-skewed author quality (∈(0,1]) so the
            # signal participates beyond the single top author —
            # PageRank-style scores have exactly this long-tailed-
            # but-not-degenerate spread
            infl = 3.0 * author_score.get(eid, 0.0) ** 0.25
            s = cen * (1.0 + infl)
            if s > best_s:
                best, best_s = eid, s
        out.append(best)
    return out[:k]
