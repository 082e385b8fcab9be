"""Synthetic topic model: the black-box oracle of Section 3.1.

A :class:`TopicModel` provides exactly what the paper requires from
LDA/BTM — ``p_i(w)`` (``phi[i, w]``: topic-word probability, many zeros)
and keyword → query-vector inference — without a trained model.  Each topic is a Zipf
distribution over a random support of the vocabulary, so the two skew
properties the paper's pruning relies on hold by construction:

* topic-word mass is concentrated on a few words per topic, and
* a word belongs to only a handful of topics, so an element drawn from
  one or two topics is "high-ranked in very few topics" (Section 4).
"""
from __future__ import annotations

import numpy as np

__all__ = ["TopicModel"]

#: Zipf exponent of the within-topic word distribution
_ZIPF_A = 1.05
#: query-vector entries below this share (after normalisation) are dropped
_TRUNC = 0.03
#: most non-zero entries a query vector keeps — query vectors are sparse (small d)
_MAX_TOPICS = 8


class TopicModel:
    """Sparse synthetic topic model over an integer vocabulary.

    Parameters
    ----------
    z:
        Number of topics.
    vocab_size:
        Vocabulary size ``m``; words are ids ``0..m-1``.
    seed:
        Deterministic generator seed.
    support:
        Words with non-zero probability per topic. Defaults to
        ``max(30, 3*m//z)`` so supports overlap between topics.
    """

    def __init__(
        self,
        z: int,
        vocab_size: int,
        *,
        seed: int = 0,
        support: int | None = None,
    ) -> None:
        if z < 1 or vocab_size < 2:
            raise ValueError("need z >= 1 and vocab_size >= 2")
        self.z = z
        self.m = vocab_size
        s = support or max(30, 3 * vocab_size // z)
        s = min(s, vocab_size)
        g = np.random.default_rng(seed)
        # phi[i, w] = p_i(w); rows sum to 1, sparse by construction.
        phi = np.zeros((z, vocab_size))
        ranks = np.arange(1, s + 1, dtype=float)
        base = 1.0 / ranks**_ZIPF_A
        base /= base.sum()
        for i in range(z):
            words = g.choice(vocab_size, size=s, replace=False)
            phi[i, words] = base
        self.phi = phi
        self._col_sum = phi.sum(axis=0)  # for word->topic responsibilities

    # -- query inference -------------------------------------------------
    def infer(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Infer a sparse query vector from a keyword pseudo-document.

        Implements the paper's query-by-keyword transform: the keywords
        are a pseudo-document whose topic distribution becomes the query
        vector **x**.  Inference averages per-word topic
        responsibilities ``p_i(w)/Σ_j p_j(w)`` over the keywords — a
        single E-step with a uniform prior, adequate for a synthetic
        oracle.  Entries below ``_TRUNC`` (after normalisation) are
        dropped, at most ``_MAX_TOPICS`` of the largest are kept, and the
        rest renormalised, matching the observation that query vectors
        have few non-zero entries ``d``.

        Returns ``(topic_ids, weights)`` with ``weights.sum() == 1``
        (both empty if no keyword has topical mass).
        """
        x = np.zeros(self.z)
        for w in np.asarray(words, dtype=int):
            tot = self._col_sum[w]
            if tot > 0:
                x += self.phi[:, w] / tot
        if x.sum() <= 0:
            return np.empty(0, dtype=int), np.empty(0)
        x /= x.sum()
        keep = x >= _TRUNC
        if not keep.any():
            keep = x == x.max()
        ids = np.nonzero(keep)[0]
        if len(ids) > _MAX_TOPICS:
            ids = ids[np.argsort(-x[ids])[:_MAX_TOPICS]]
            ids = np.sort(ids)
        wts = x[ids] / x[ids].sum()
        return ids, wts
