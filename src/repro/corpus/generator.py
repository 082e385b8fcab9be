"""Deterministic synthetic social-stream generator (Section 3.1 data model).

Produces streams of elements ``⟨ts, doc, ref⟩`` whose shape follows a
:class:`~repro.corpus.profiles.StreamProfile`:

* **timestamps** — uniform arrival over ``duration`` minutes (sorted);
* **topic mixtures** — one or two topics per element (the paper observes
  "the average number of topics per element is less than 2"); a
  two-topic element gives its first-drawn topic a weight uniform in
  [0.55, 0.95];
* **documents** — log-normal length with mean ``avg_len``, tokens drawn
  from the element's topic mixture through the topic model, plus a share
  of uniform noise words;
* **references** — count ~ Poisson(avg_refs), parents sampled from a
  recency pool weighted by topical similarity × Zipf popularity, which
  yields the skewed, topic-aligned influence graph the paper's influence
  score exploits (Example 2: a paper's citations come from its topics).

Everything is seeded, so the Spark pipelines and the DuckDB oracle see
identical input.  The draws are made in bulk wherever a bulk draw
consumes the generator's random numbers in the same order as drawing
element by element would: token topics (one uniform per token), token
words (one draw per topic) and noise.  The distinct words of every
document come from one sort of all tokens, and reference weights from a
row gather on an element × topic membership matrix.  Only the topic pick
and the reference pick stay per-element loops: how many random numbers
they consume depends on the values drawn.  A stream is a function of its
arguments down to the bit (``tests/test_generator.py`` pins digests).

The module needs numpy alone: pandas is imported by the ``*_pdf`` table
views, on their first call, so the batch stream core never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.corpus.profiles import StreamProfile
from repro.topics.model import TopicModel

if TYPE_CHECKING:
    import pandas as pd

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


def _owners(arrays: list[np.ndarray]) -> np.ndarray:
    """Index of the array each entry of ``concatenate(arrays)`` comes from."""
    return np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])


def _concat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """``concatenate(arrays)`` as ``dtype``; empty when there are none."""
    return np.concatenate([np.empty(0, dtype=dtype), *arrays]).astype(dtype, copy=False)


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
        import pandas as pd

        words = [w for w, _ in self.docs]
        return pd.DataFrame({
            "eid": _owners(words),
            "word": _concat(words, int),
            "freq": _concat([f for _, f in self.docs], int),
        })

    def elem_topics_pdf(self) -> pd.DataFrame:
        """Long table ``(eid, topic, p_e)`` of non-zero topic probabilities."""
        import pandas as pd

        return pd.DataFrame({
            "eid": _owners(self.topic_ids),
            "topic": _concat(self.topic_ids, int),
            "p_e": _concat(self.topic_probs, float),
        })

    def refs_pdf(self) -> pd.DataFrame:
        """Long table ``(child, parent)`` of references."""
        import pandas as pd

        return pd.DataFrame({"child": _owners(self.refs), "parent": _concat(self.refs, int)})

    def elems_pdf(self) -> pd.DataFrame:
        import pandas as pd

        return pd.DataFrame({"eid": np.arange(self.n), "ts": self.ts.astype(int)})

    def topic_words_pdf(self) -> pd.DataFrame:
        """Long table ``(topic, word, p_w)`` of the topic model."""
        import pandas as pd

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
    if n_elements < 0:
        raise ValueError(f"n_elements must be >= 0, got {n_elements}")
    if z < 2:
        raise ValueError(f"z must be >= 2 (two-topic elements), got {z}")
    if duration < 1:
        raise ValueError(f"duration must be >= 1 minute, got {duration}")
    vocab = profile.vocab_size(n_elements / profile.n_elements_base)
    g = np.random.default_rng(seed)
    model = TopicModel(z, vocab, seed=seed + 7)

    ts = np.sort(g.integers(1, duration + 1, n_elements)).astype(int)

    # topic mixtures: 60% single-topic, 40% two-topic (avg 1.4 < 2).  A
    # loop, because choice(replace=False) draws bounded integers by
    # rejection, so how many random numbers it consumes depends on the
    # values drawn, and the weight draw comes between two elements' picks.
    topic_ids: list[np.ndarray] = []
    topic_probs: list[np.ndarray] = []
    n_topics = np.where(g.random(n_elements) < 0.6, 1, 2)
    pair = np.empty((n_elements, 2), dtype=int)  # sorted topic ids (x2 if one)
    cut = np.ones(n_elements)  # a token takes the second topic iff u >= cut
    member = np.zeros((n_elements, model.z), dtype=np.int8)
    for e in range(n_elements):
        c = int(n_topics[e])
        tids = g.choice(model.z, size=c, replace=False)
        if c == 1:
            probs = np.array([1.0])
        else:
            a = float(g.uniform(0.55, 0.95))
            probs = np.array([a, 1.0 - a])
        tids_s, probs_s = np.sort(tids), probs[np.argsort(tids)]
        topic_ids.append(tids_s)
        topic_probs.append(probs_s)
        pair[e] = tids_s[0], tids_s[-1]
        if c == 2:
            cut[e] = probs_s[0] / (probs_s[0] + probs_s[1])
        member[e, tids_s] = 1

    # documents: heavy-tailed lengths (log-normal, mean = avg_len) give the
    # per-query score skew the paper observes ("0.4% of elements have
    # scores > 0.9 while 91% have scores < 0.1")
    sigma_len = 0.9
    mu_len = np.log(max(profile.avg_len, 1.2)) - sigma_len**2 / 2.0
    lengths = np.maximum(1, np.round(g.lognormal(mu_len, sigma_len, n_elements))).astype(int)
    # Token topics in one draw.  Element by element,
    # choice(topic_ids[e], size=lengths[e], p=topic_probs[e]) draws
    # random(lengths[e]) and takes the topic at the uniform's position in
    # cumsum(p) / cumsum(p)[-1]; one random(total) is the same uniforms
    # in the same order, and the position is 0 for one topic and
    # [u >= p0 / (p0 + p1)] for two.
    tok_elem = np.repeat(np.arange(n_elements), lengths)
    second = g.random(len(tok_elem)) >= cut[tok_elem]
    tok_topic = pair[tok_elem, second.astype(int)]
    # words grouped by topic, one draw per topic
    tok_word = np.empty(len(tok_elem), dtype=int)
    for i in np.unique(tok_topic):
        mask = tok_topic == i
        tok_word[mask] = g.choice(model.m, size=int(mask.sum()), p=model.phi[i])
    noisy = g.random(len(tok_word)) < _NOISE
    tok_word[noisy] = g.integers(0, model.m, int(noisy.sum()))
    # distinct (word, count) per element: sort tokens by (element, word)
    # and cut them into runs of one word
    order = np.lexsort((tok_word, tok_elem))
    run_elem, run_word = tok_elem[order], tok_word[order]
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (run_elem[1:] != run_elem[:-1]) | (run_word[1:] != run_word[:-1])
    starts = np.flatnonzero(new_run)
    words = run_word[starts]
    counts = np.diff(np.append(starts, len(order)))
    bounds = np.searchsorted(run_elem[starts], np.arange(n_elements + 1))
    docs = [
        (words[bounds[e] : bounds[e + 1]], counts[bounds[e] : bounds[e + 1]])
        for e in range(n_elements)
    ]

    # popularity: Zipf "quality" per element drives both reference skew
    # and the paper's observed score skew
    pop = 1.0 / (1.0 + g.permutation(n_elements)) ** 0.8

    # references: recency pool, weight = popularity × (topic overlap + eps).
    # A loop, because choice(replace=False, p=...) redraws after a repeat,
    # so the draws it consumes depend on the weights.
    refs: list[np.ndarray] = []
    n_refs = g.poisson(profile.avg_refs, n_elements)
    for e in range(n_elements):
        r = int(min(n_refs[e], e))
        if r == 0:
            refs.append(np.empty(0, dtype=int))
            continue
        lo = max(0, e - _REF_POOL)
        cand = np.arange(lo, e)
        overlap = member[lo:e, topic_ids[e]].sum(axis=1)  # |topics(c) ∩ topics(e)|
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

    Each query draws 1–5 words at random from the vocabulary (never more
    than the stream uses), infers the query vector from the topic model,
    and is assigned a random timestamp in ``[t_min, t_end]`` (pass the
    window length to only query a full window).

    Words are drawn ∝ corpus frequency: the paper's vocabulary is the
    set of words its corpora actually use, so a uniform draw there still
    lands on words with real usage; on a synthetic vocabulary a uniform
    draw would mostly pick near-unused tail words and every keyword
    method would see empty candidate sets.

    Raises ``ValueError`` before any draw if no word the stream uses has
    topical mass.
    """
    g = np.random.default_rng(seed + 101)
    # corpus word-usage distribution (document frequency; each doc's
    # words are distinct)
    freq = np.bincount(
        _concat([w for w, _ in stream.docs], int), minlength=stream.model.m
    ).astype(float)
    n_used = int(np.count_nonzero(freq))
    p = freq / freq.sum() if n_used else None
    mass = stream.model.phi.sum(axis=0)  # a word's topical mass; 0 outside every topic
    if n_used and not mass[freq > 0].any():
        # every draw would infer an empty query vector and be redrawn forever
        raise ValueError("no word the stream uses has topical mass, so no query can be inferred")
    out: list[Query] = []
    while len(out) < n:
        nw = int(g.integers(1, 6))
        if p is not None:
            nw = min(nw, n_used)  # a tiny stream may use fewer than 5 words
        words = g.choice(stream.model.m, size=nw, replace=False, p=p)
        tids, wts = stream.model.infer(words)
        if len(tids) == 0:
            continue  # keywords with no topical mass — redraw, as a user would
        ts = int(g.integers(t_min, max(t_min + 1, stream.t_end + 1)))
        out.append(Query(keywords=words, topics=tids, weights=wts, ts=ts))
    return out
