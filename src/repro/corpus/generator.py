"""Deterministic synthetic social-stream generator (Section 3.1 data model).

Produces streams of elements ``⟨ts, doc, ref⟩`` whose shape follows a
:class:`~repro.corpus.profiles.StreamProfile`:

* **timestamps** — uniform arrival over ``duration`` minutes (sorted);
* **topic mixtures** — one or two topics per element (the paper observes
  "the average number of topics per element is less than 2"), Dirichlet
  weights;
* **documents** — length ~ 1 + Poisson(avg_len − 1), tokens drawn from
  the element's topic mixture through the topic model;
* **references** — count ~ Poisson(avg_refs), parents sampled from a
  recency pool weighted by topical similarity × Zipf popularity, which
  yields the skewed, topic-aligned influence graph the paper's influence
  score exploits (Example 2: a paper's citations come from its topics).

Everything is seeded, so the Spark pipelines and the DuckDB oracle see
identical input.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.corpus.profiles import StreamProfile
from repro.topics.model import TopicModel

__all__ = ["SocialStream", "Query", "generate_stream", "generate_queries"]

#: size of the recency pool parents are drawn from
_REF_POOL = 400

#: fraction of tokens drawn uniformly from the whole vocabulary instead
#: of from the element's topics.  Real corpora have exactly this
#: messiness (polysemy, off-topic word reuse), and it is what makes
#: plain keyword matching unreliable: an element can contain a query
#: keyword without being about the query's topic, the failure mode the
#: paper observes for the keyword-based baselines.
_NOISE = 0.1


@dataclass
class SocialStream:
    """A fully materialised synthetic social stream.

    Per-element arrays are aligned by index; ``eid`` equals the index.
    """

    profile: StreamProfile
    model: TopicModel
    ts: np.ndarray  # int minutes, non-decreasing
    docs: list[tuple[np.ndarray, np.ndarray]]  # (word ids, frequencies)
    topic_ids: list[np.ndarray]
    topic_probs: list[np.ndarray]
    refs: list[np.ndarray]  # parent eids (strictly earlier)
    popularity: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.ts)

    @property
    def t_end(self) -> int:
        return int(self.ts[-1]) if self.n else 0

    # -- Spark / oracle table views -------------------------------------
    def tokens_pdf(self) -> pd.DataFrame:
        """Long table ``(eid, word, freq)`` of distinct words per element."""
        eids, words, freqs = [], [], []
        for e, (w, f) in enumerate(self.docs):
            eids.extend([e] * len(w))
            words.extend(w.tolist())
            freqs.extend(f.tolist())
        return pd.DataFrame({"eid": eids, "word": words, "freq": freqs})

    def elem_topics_pdf(self) -> pd.DataFrame:
        """Long table ``(eid, topic, p_e)`` of non-zero topic probabilities."""
        eids, tops, ps = [], [], []
        for e in range(self.n):
            for i, p in zip(self.topic_ids[e], self.topic_probs[e]):
                eids.append(e)
                tops.append(int(i))
                ps.append(float(p))
        return pd.DataFrame({"eid": eids, "topic": tops, "p_e": ps})

    def refs_pdf(self) -> pd.DataFrame:
        """Long table ``(child, parent)`` of references."""
        ch, pa = [], []
        for e in range(self.n):
            for p in self.refs[e]:
                ch.append(e)
                pa.append(int(p))
        return pd.DataFrame({"child": ch, "parent": pa})

    def elems_pdf(self) -> pd.DataFrame:
        return pd.DataFrame({"eid": np.arange(self.n), "ts": self.ts.astype(int)})

    def topic_words_pdf(self) -> pd.DataFrame:
        """Long table ``(topic, word, p_w)`` of the topic model."""
        t, w = np.nonzero(self.model.phi)
        return pd.DataFrame({"topic": t, "word": w, "p_w": self.model.phi[t, w]})


@dataclass(frozen=True)
class Query:
    """A k-SIR query: keywords plus the inferred sparse query vector."""

    keywords: np.ndarray  # word ids
    topics: np.ndarray  # topic ids with x_i > 0
    weights: np.ndarray  # aligned weights, sum to 1
    ts: int  # query time


def generate_stream(
    profile: StreamProfile, *, n_elements: int, z: int, duration: int, seed: int
) -> SocialStream:
    """Generate ``n_elements`` elements of ``profile`` over ``z`` topics.

    ``duration`` is the stream span in minutes (3 days gives ~180 window
    slides at the paper's default T = 24 h, L = 15 min).  The vocabulary
    is the profile's, scaled by ``n_elements`` against its full size.
    """
    vocab = profile.vocab_size(n_elements / profile.n_elements_base)
    g = np.random.default_rng(seed)
    model = TopicModel(z, vocab, seed=seed + 7)

    ts = np.sort(g.integers(1, duration + 1, n_elements)).astype(int)

    # topic mixtures: 60% single-topic, 40% two-topic (avg 1.4 < 2)
    topic_ids: list[np.ndarray] = []
    topic_probs: list[np.ndarray] = []
    n_topics = np.where(g.random(n_elements) < 0.6, 1, 2)
    for e in range(n_elements):
        c = int(n_topics[e])
        tids = g.choice(model.z, size=c, replace=False)
        if c == 1:
            probs = np.array([1.0])
        else:
            a = float(g.uniform(0.55, 0.95))
            probs = np.array([a, 1.0 - a])
        topic_ids.append(np.sort(tids))
        topic_probs.append(probs[np.argsort(tids)])

    # documents: heavy-tailed lengths (log-normal, mean = avg_len) give the
    # per-query score skew the paper observes ("0.4% of elements have
    # scores > 0.9 while 91% have scores < 0.1"); batch-sample tokens
    # grouped by topic for speed
    sigma_len = 0.9
    mu_len = np.log(max(profile.avg_len, 1.2)) - sigma_len**2 / 2.0
    lengths = np.maximum(1, np.round(g.lognormal(mu_len, sigma_len, n_elements))).astype(int)
    tok_elem: list[int] = []
    tok_topic: list[int] = []
    for e in range(n_elements):
        draws = g.choice(topic_ids[e], size=lengths[e], p=topic_probs[e])
        tok_elem.extend([e] * lengths[e])
        tok_topic.extend(draws.tolist())
    tok_elem_a = np.array(tok_elem)
    tok_topic_a = np.array(tok_topic)
    tok_word = np.empty(len(tok_elem_a), dtype=int)
    for i in np.unique(tok_topic_a):
        mask = tok_topic_a == i
        tok_word[mask] = g.choice(model.m, size=int(mask.sum()), p=model.phi[i])
    noisy = g.random(len(tok_word)) < _NOISE
    tok_word[noisy] = g.integers(0, model.m, int(noisy.sum()))
    docs: list[tuple[np.ndarray, np.ndarray]] = []
    order = np.argsort(tok_elem_a, kind="stable")
    bounds = np.searchsorted(tok_elem_a[order], np.arange(n_elements + 1))
    for e in range(n_elements):
        w = tok_word[order[bounds[e] : bounds[e + 1]]]
        uw, cnt = np.unique(w, return_counts=True)
        docs.append((uw, cnt))

    # popularity: Zipf "quality" per element drives both reference skew
    # and the paper's observed score skew
    pop = 1.0 / (1.0 + g.permutation(n_elements)) ** 0.8

    # references: recency pool, weight = popularity × (topic overlap + eps)
    refs: list[np.ndarray] = []
    topic_sets = [set(t.tolist()) for t in topic_ids]
    n_refs = g.poisson(profile.avg_refs, n_elements)
    for e in range(n_elements):
        r = int(min(n_refs[e], e))
        if r == 0:
            refs.append(np.empty(0, dtype=int))
            continue
        lo = max(0, e - _REF_POOL)
        cand = np.arange(lo, e)
        overlap = np.array(
            [len(topic_sets[c] & topic_sets[e]) for c in cand], dtype=float
        )
        wts = pop[cand] * (overlap + 0.05)
        wts /= wts.sum()
        r = min(r, len(cand))
        refs.append(np.sort(g.choice(cand, size=r, replace=False, p=wts)))

    return SocialStream(
        profile=profile, model=model, ts=ts, docs=docs,
        topic_ids=topic_ids, topic_probs=topic_probs, refs=refs, popularity=pop,
    )


def generate_queries(
    stream: SocialStream,
    n: int,
    *,
    seed: int,
    t_min: int,
) -> list[Query]:
    """Generate the paper's query workload (Section 5.1).

    Each query draws 1–5 words at random from the vocabulary, infers the
    query vector from the topic model, and is assigned a random
    timestamp in ``[t_min, t_end]`` (pass the window length to only
    query a full window).

    Words are drawn ∝ corpus frequency: the paper's vocabulary is the
    set of words its corpora actually use, so a uniform draw there still
    lands on words with real usage; on a synthetic vocabulary a uniform
    draw would mostly pick near-unused tail words and every keyword
    method would see empty candidate sets.
    """
    g = np.random.default_rng(seed + 101)
    # corpus word-usage distribution (document frequency)
    freq = np.zeros(stream.model.m)
    for w, _ in stream.docs:
        freq[w] += 1.0
    p = freq / freq.sum() if freq.sum() > 0 else None
    out: list[Query] = []
    while len(out) < n:
        nw = int(g.integers(1, 6))
        words = g.choice(stream.model.m, size=nw, replace=False, p=p)
        tids, wts = stream.model.infer(words)
        if len(tids) == 0:
            continue  # keywords with no topical mass — redraw, as a user would
        ts = int(g.integers(t_min, max(t_min + 1, stream.t_end + 1)))
        out.append(Query(keywords=words, topics=tids, weights=wts, ts=ts))
    return out
