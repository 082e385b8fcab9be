"""k-SIR representativeness scoring (Section 3.2).

An element is recorded by :func:`make_element` (:func:`build_elements`
records a whole stream) and scored later, a bucket at a time, by
:func:`score_elements`, the one implementation of the word weights
σ_i(w,e) and singleton semantic scores R_i(e).  Its one caller is
``ActiveWindow.ingest``, which scores the unscored elements of each
bucket before it changes any state.

Implements the topic-specific semantic score R_i (weighted word
coverage, Eq. 3), the topic-specific time-critical influence score
I_{i,t} (probabilistic coverage over in-window references, Eq. 4), the
combined scoring function f (Eqs. 1–2), and an incremental
:class:`CoverageState` that evaluates marginal gains Δ(e|S) in
O(|V_e| + |I_t(e)|) per queried topic — the evaluation primitive shared
by MTTS, MTTD, CELF, and SieveStreaming.  Gains are computed from a
per-query element view (``CoverageState.view``): e's words, σ_i(w,e)
and in-window children for the queried topics, converted to Python
numbers once and shared by every candidate of the query that scores e.
A view is valid for one query only.  The incremental scorers read
λ and (1−λ)/η from their window context (``ActiveWindow.lam``/``c_inf``);
only the from-scratch references below take λ and η as arguments.

All logs are natural logs; verified against the paper's worked
Example 1 (σ_2(w_9,e_2)=0.15 etc.) in ``tests/test_paper_examples.py``.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.core.window import ActiveWindow

__all__ = [
    "Element",
    "make_element",
    "score_elements",
    "build_elements",
    "CoverageState",
    "semantic_set_score",
    "influence_set_score",
    "f_set_score",
]


class Element:
    """A social element as it arrived, plus its topic-wise weights once scored.

    ``freqs`` holds the counts γ(w,e) as given, ``tp`` maps topic →
    p_i(e) for the topics with p_i(e) > 0, and ``phi`` is the (z × m)
    topic-word matrix the element is scored against.  ``sigma[i]`` is aligned with ``words`` and holds
    σ_i(w,e) = −γ(w,e)·p_i(w,e)·log p_i(w,e); ``R[i]`` is the singleton
    semantic score R_i(e) = Σ_w σ_i(w,e).  Both stay ``None`` until
    ``ActiveWindow.ingest`` scores the element's bucket
    (:func:`score_elements`).  Each σ_i(·,e) is a view into the array
    of the batch it was scored in.
    """

    __slots__ = ("eid", "ts", "words", "freqs", "tp", "sigma", "R", "refs", "phi")

    def __init__(self, eid, ts, words, freqs, tp, refs, phi):
        self.eid = int(eid)
        self.ts = int(ts)
        self.words = words
        self.freqs = freqs
        self.tp = tp
        self.sigma = None
        self.R = None
        self.refs = refs
        self.phi = phi

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Element(eid={self.eid}, ts={self.ts}, topics={list(self.tp)})"


def make_element(
    eid: int,
    ts: int,
    words: np.ndarray,
    freqs: np.ndarray,
    topic_ids: Iterable[int],
    topic_probs: Iterable[float],
    refs: np.ndarray,
    phi: np.ndarray,
) -> Element:
    """Record an unscored :class:`Element`: ``sigma`` and ``R`` stay
    ``None`` until :func:`score_elements` fills them, which
    ``ActiveWindow.ingest`` does for its bucket.

    ``phi`` is the (z × m) topic-word matrix of the oracle; the element
    keeps a reference to it.  Topics with p_i(e) ≤ 0 are dropped
    entirely — they contribute nothing to either score (Section 3.2),
    which is what makes the ranked lists sparse.  Ids and probabilities
    are not checked here: a NaN p_i(e) is kept, so that scoring rejects
    it with the out-of-range ids.
    """
    ids = np.asarray(topic_ids, dtype=int).tolist()
    probs = np.asarray(topic_probs, dtype=float).tolist()
    tp = {i: pe for i, pe in zip(ids, probs) if not pe <= 0}
    return Element(
        eid, ts, np.asarray(words, dtype=int), np.asarray(freqs), tp, np.asarray(refs, dtype=int), phi
    )


def score_elements(elements: Sequence[Element]) -> None:
    """Fill σ_i(·,e) and R_i(e) of every element, in one numpy pass.

    One gather p_i(w,e) = φ[i, w]·p_i(e) covers every (element, topic,
    word) of the batch, σ is −γ·p·log p over its positive entries and
    +0.0 elsewhere, and σ_i(·,e) is the slice of e's row.  R_i(e) is
    ``np.add.reduce`` of that slice: the same float as summing σ_i(·,e)
    on its own (``np.add.reduceat`` sums in another order).

    ``ValueError`` naming the element, and no element changed, if the
    elements do not share one φ, an element's freqs and words differ in
    length, a word or topic id lies outside φ's shape, or a p_i(e) is
    not finite.
    """
    if not elements:
        return
    phi = elements[0].phi
    for e in elements:
        if e.phi is not phi:
            raise ValueError(f"element {e.eid}: scored against another φ than element {elements[0].eid}")
    z, m = phi.shape
    tps = [e.tp for e in elements]
    ntp = np.array([len(tp) for tp in tps], dtype=np.intp)
    topics = np.array([i for tp in tps for i in tp], dtype=np.intp)
    probs = np.array([pe for tp in tps for pe in tp.values()], dtype=float)
    docs = [e.words for e in elements]
    lens = np.array([len(w) for w in docs], dtype=np.intp)
    bad = np.array([len(e.freqs) for e in elements], dtype=np.intp) != lens
    if bad.any():
        e = elements[bad.argmax()]
        raise ValueError(f"element {e.eid}: {len(e.freqs)} freqs for {len(e.words)} words")
    words = np.concatenate(docs)
    bad = (words < 0) | (words >= m)
    if bad.any():
        j = np.searchsorted(np.cumsum(lens), bad.argmax(), side="right")
        raise ValueError(f"element {elements[j].eid}: a word id is outside φ's {m} columns")
    bad_topic = (topics < 0) | (topics >= z)
    bad = bad_topic | ~np.isfinite(probs)
    if bad.any():
        r = bad.argmax()
        j = np.searchsorted(np.cumsum(ntp), r, side="right")
        what = f"topic {topics[r]} is outside φ's {z} rows" if bad_topic[r] else f"p_i(e) = {probs[r]} is not finite"
        raise ValueError(f"element {elements[j].eid}: {what}")
    # one row per (element, topic), laid out end to end: each row holds
    # its element's tokens, scored against its topic
    row_len = np.repeat(lens, ntp)
    end = np.cumsum(row_len)
    first = np.cumsum(lens) - lens  # each document's first token in ``words``
    # token k of the batch, in row r, is words[k − start of r + first of r's element]
    tok = np.arange(row_len.sum()) + np.repeat(np.repeat(first, ntp) - end + row_len, row_len)
    p = phi[np.repeat(topics, row_len), words[tok]] * np.repeat(probs, row_len)  # p_i(w,e) = p_i(w)·p_i(e)
    f = np.concatenate([e.freqs for e in elements])[tok].astype(float)
    sigma = np.zeros(len(p))
    nz = p > 0
    pn = p[nz]
    sigma[nz] = -f[nz] * pn * np.log(pn)
    bounds = end.tolist()
    rows = [sigma[a:b] for a, b in zip([0, *bounds], bounds)]
    it_s, it_r = iter(rows), map(float, map(np.add.reduce, rows))
    for e in elements:
        # zip reads e.tp first, so it takes exactly len(e.tp) rows
        e.sigma = dict(zip(e.tp, it_s))
        e.R = dict(zip(e.tp, it_r))


def build_elements(stream) -> list[Element]:
    """Record every element of a :class:`~repro.corpus.SocialStream`,
    unscored (:func:`make_element`)."""
    phi = stream.model.phi
    return [
        make_element(
            e, stream.ts[e], stream.docs[e][0], stream.docs[e][1],
            stream.topic_ids[e], stream.topic_probs[e], stream.refs[e], phi,
        )
        for e in range(stream.n)
    ]


class CoverageState:
    """Incremental coverage state of a candidate set S for one query.

    Tracks, per queried topic i: the word-coverage maxima
    ``max_{e∈S} σ_i(w,e)`` and, per influenced in-window child c, the
    remaining non-activation probability ``Π_{e'∈S∩c.ref}(1−p_i(e'⇝c))``
    — exactly the state needed to compute Δ(e|S) for the submodular
    objective in one pass over e's words and children.

    :meth:`gain` and :meth:`add` walk an element *view* (:meth:`view`):
    e's data restricted to the queried topics, as plain Python numbers.
    A view depends only on the query and the window, not on S, so one
    view serves every candidate of the same query (MTTS and Sieve score
    e against each distinct candidate state with it).  It lives for one
    query: the window moves between queries, and I_t(e) with it.
    Without a view, each call builds its own.
    """

    __slots__ = ("ctx", "xw", "wordcov", "remprob", "S", "value")

    def __init__(self, ctx: ActiveWindow, topics: Iterable[int], weights: Iterable[float]) -> None:
        self.ctx = ctx
        self.xw = {int(i): float(x) for i, x in zip(topics, weights) if x > 0}
        self.wordcov: dict[int, dict[int, float]] = {i: {} for i in self.xw}
        self.remprob: dict[tuple[int, int], float] = {}
        self.S: list[int] = []
        self.value = 0.0

    def copy(self) -> CoverageState:
        """An independent state with the same S, coverage and f(S, x)."""
        c = CoverageState.__new__(CoverageState)
        c.ctx, c.xw = self.ctx, self.xw
        c.wordcov = {i: cov.copy() for i, cov in self.wordcov.items()}
        c.remprob = self.remprob.copy()
        c.S = self.S.copy()
        c.value = self.value
        return c

    def view(self, e: Element) -> list[tuple]:
        """e as this query scores it: per queried topic i with p_i(e) > 0,
        ``(i, x_i·λ, x_i·(1−λ)/η, words, σ_i(·,e), kids)`` with ``words``
        and σ as Python lists and ``kids`` the in-window children as
        ``((i, c.eid), p_i(e)·p_i(c))`` pairs."""
        out = []
        words = children = None
        lam, c_inf = self.ctx.lam, self.ctx.c_inf
        for i, xi in self.xw.items():
            pe = e.tp.get(i)
            if pe is None:
                continue
            if words is None:
                words = e.words.tolist()
                children = self.ctx.children_of(e.eid)
            kids = [((i, c.eid), pe * pc) for c in children if (pc := c.tp.get(i)) is not None]
            out.append((i, xi * lam, xi * c_inf, words, e.sigma[i].tolist(), kids))
        return out

    def gain(self, e: Element, view: list[tuple] | None = None) -> float:
        """Δ(e|S) = f(S∪{e}, x) − f(S, x) without mutating the state."""
        return self._gain(self.view(e) if view is None else view, apply=False)

    def add(self, e: Element, view: list[tuple] | None = None) -> float:
        """Add ``e`` to S; returns the realised marginal gain."""
        g = self._gain(self.view(e) if view is None else view, apply=True)
        self.S.append(e.eid)
        self.value += g
        return g

    def _gain(self, view: list[tuple], *, apply: bool) -> float:
        g = 0.0
        remprob = self.remprob
        for i, x_sem, x_inf, words, sigma, kids in view:
            # semantic: Σ_w max(0, σ_i(w,e) − current coverage)
            cov = self.wordcov[i]
            sem = 0.0
            for w, s in zip(words, sigma):
                cur = cov.get(w, 0.0)
                if s > cur:
                    sem += s - cur
                    if apply:
                        cov[w] = s
            g += x_sem * sem
            # influence: Σ_c p_i(e⇝c) · Π_{e'∈S∩c.ref}(1 − p_i(e'⇝c))
            inf = 0.0
            for key, p in kids:
                rem = remprob.get(key, 1.0)
                inf += p * rem
                if apply:
                    remprob[key] = rem * (1.0 - p)
            g += x_inf * inf
        return g


def singleton_delta(
    e: Element, ctx: ActiveWindow, topics: Iterable[int], weights: Iterable[float]
) -> float:
    """δ(e, x) computed from R_i(e) and e's in-window children in
    O(d·|I_t(e)|).

    This is the evaluation the index-less baselines (CELF,
    SieveStreaming) must perform for *every* active element — the cost
    the ranked lists exist to avoid.  MTTS/MTTD instead read the
    maintained δ_i(e) in O(d).  λ and (1−λ)/η are read from ``ctx``.
    """
    lam, c_inf = ctx.lam, ctx.c_inf
    total = 0.0
    children = None
    for i, x in zip(topics, weights):
        i = int(i)
        pe = e.tp.get(i)
        if pe is None or x <= 0:
            continue
        total += x * lam * e.R[i]
        if children is None:
            children = ctx.children_of(e.eid)
        inf = sum(pe * pc for c in children if (pc := c.tp.get(i)))
        total += x * c_inf * inf
    return total


# -- from-scratch reference implementations (used by tests/oracles) -------

def semantic_set_score(elems: Iterable[Element], topic: int) -> float:
    """R_i(S) per Eq. 3, computed from scratch."""
    best: dict[int, float] = {}
    for e in elems:
        if topic not in e.sigma:
            continue
        for w, s in zip(e.words, e.sigma[topic]):
            if s > best.get(int(w), 0.0):
                best[int(w)] = float(s)
    return sum(best.values())


def influence_set_score(
    elems: Iterable[Element], topic: int, children: Mapping[int, Iterable[Element]]
) -> float:
    """I_{i,t}(S) per Eq. 4, computed from scratch.

    ``children[eid]`` must be the in-window children I_t(e) of each
    member of S.
    """
    # rem[c] = Π over parents e ∈ S that reach child c of (1 − p_i(e⇝c));
    # children that are members of S still count (I_t(S) is about refs)
    rem: dict[int, float] = {}
    for e in elems:
        for c in children.get(e.eid, []):
            pc = c.tp.get(topic)
            pe = e.tp.get(topic)
            if pc is None or pe is None:
                continue
            rem[c.eid] = rem.get(c.eid, 1.0) * (1.0 - pe * pc)
    return sum(1.0 - r for r in rem.values())


def f_set_score(
    elems: Iterable[Element],
    topics: Iterable[int],
    weights: Iterable[float],
    lam: float,
    eta: float,
    children: Mapping[int, Iterable[Element]],
) -> float:
    """f(S, x) per Eqs. 1–2, computed from scratch."""
    elems = list(elems)
    total = 0.0
    for i, x in zip(topics, weights):
        if x <= 0:
            continue
        r = semantic_set_score(elems, int(i))
        inf = influence_set_score(elems, int(i), children)
        total += x * (lam * r + (1.0 - lam) / eta * inf)
    return total
