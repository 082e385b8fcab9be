"""k-SIR representativeness scoring (Section 3.2).

Implements the topic-specific semantic score R_i (weighted word
coverage, Eq. 3), the topic-specific time-critical influence score
I_{i,t} (probabilistic coverage over in-window references, Eq. 4), the
combined scoring function f (Eqs. 1–2), and an incremental
:class:`CoverageState` that evaluates marginal gains Δ(e|S) in
O(|V_e| + |I_t(e)|) per queried topic — the evaluation primitive shared
by MTTS, MTTD, CELF, and SieveStreaming.

All logs are natural logs; verified against the paper's worked
Example 1 (σ_2(w_9,e_2)=0.15 etc.) in ``tests/test_paper_examples.py``.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Protocol

import numpy as np

__all__ = [
    "Element",
    "make_element",
    "build_elements",
    "CoverageState",
    "semantic_set_score",
    "influence_set_score",
    "f_set_score",
]


class Element:
    """A materialised social element with precomputed topic-wise weights.

    ``sigma[i]`` is aligned with ``words`` and holds
    σ_i(w,e) = −γ(w,e)·p_i(w,e)·log p_i(w,e); ``R[i]`` is the singleton
    semantic score R_i(e) = Σ_w σ_i(w,e); ``tp`` maps topic → p_i(e).
    """

    __slots__ = ("eid", "ts", "words", "freqs", "tp", "sigma", "R", "refs")

    def __init__(self, eid, ts, words, freqs, tp, sigma, R, refs):
        self.eid = int(eid)
        self.ts = int(ts)
        self.words = words
        self.freqs = freqs
        self.tp = tp
        self.sigma = sigma
        self.R = R
        self.refs = refs

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
    """Build an :class:`Element`, precomputing σ_i(w,e) and R_i(e).

    ``phi`` is the (z × m) topic-word matrix of the oracle. Topics with
    p_i(e) = 0 are dropped entirely — they contribute nothing to either
    score (Section 3.2), which is what makes the ranked lists sparse.
    """
    words = np.asarray(words, dtype=int)
    freqs = np.asarray(freqs, dtype=float)
    tp: dict[int, float] = {}
    sigma: dict[int, np.ndarray] = {}
    R: dict[int, float] = {}
    for i, pe in zip(topic_ids, topic_probs):
        pe = float(pe)
        if pe <= 0:
            continue
        i = int(i)
        tp[i] = pe
        p = phi[i, words] * pe  # p_i(w, e) = p_i(w) · p_i(e)
        s = np.zeros(len(words))
        nz = p > 0
        s[nz] = -freqs[nz] * p[nz] * np.log(p[nz])
        sigma[i] = s
        R[i] = float(s.sum())
    return Element(eid, ts, words, freqs, tp, sigma, R, np.asarray(refs, dtype=int))


def build_elements(stream) -> list[Element]:
    """Materialise every element of a :class:`~repro.corpus.SocialStream`."""
    phi = stream.model.phi
    return [
        make_element(
            e, stream.ts[e], stream.docs[e][0], stream.docs[e][1],
            stream.topic_ids[e], stream.topic_probs[e], stream.refs[e], phi,
        )
        for e in range(stream.n)
    ]


class WindowContext(Protocol):
    """What the scorer needs from the stream state: I_t(e) membership."""

    def children_of(self, eid: int) -> Iterable[Element]:
        """Active in-window children of ``eid`` (the set I_t(e))."""
        ...


class CoverageState:
    """Incremental coverage state of a candidate set S for one query.

    Tracks, per queried topic i: the word-coverage maxima
    ``max_{e∈S} σ_i(w,e)`` and, per influenced in-window child c, the
    remaining non-activation probability ``Π_{e'∈S∩c.ref}(1−p_i(e'⇝c))``
    — exactly the state needed to compute Δ(e|S) for the submodular
    objective in one pass over e's words and children.
    """

    __slots__ = ("ctx", "lam", "c_inf", "xw", "wordcov", "remprob", "S", "value")

    def __init__(
        self,
        ctx: WindowContext,
        topics: Iterable[int],
        weights: Iterable[float],
        lam: float,
        eta: float,
    ) -> None:
        self.ctx = ctx
        self.lam = float(lam)
        self.c_inf = (1.0 - lam) / eta
        self.xw = {int(i): float(x) for i, x in zip(topics, weights) if x > 0}
        self.wordcov: dict[int, dict[int, float]] = {i: {} for i in self.xw}
        self.remprob: dict[tuple[int, int], float] = {}
        self.S: list[int] = []
        self.value = 0.0

    def gain(self, e: Element) -> float:
        """Δ(e|S) = f(S∪{e}, x) − f(S, x) without mutating the state."""
        return self._gain(e, apply=False)

    def add(self, e: Element) -> float:
        """Add ``e`` to S; returns the realised marginal gain."""
        g = self._gain(e, apply=True)
        self.S.append(e.eid)
        self.value += g
        return g

    def _gain(self, e: Element, *, apply: bool) -> float:
        g = 0.0
        children = None
        for i, xi in self.xw.items():
            pe = e.tp.get(i)
            if pe is None:
                continue
            # semantic: Σ_w max(0, σ_i(w,e) − current coverage)
            cov = self.wordcov[i]
            sem = 0.0
            for w, s in zip(e.words, e.sigma[i]):
                cur = cov.get(int(w), 0.0)
                if s > cur:
                    sem += s - cur
                    if apply:
                        cov[int(w)] = float(s)
            g += xi * self.lam * sem
            # influence: Σ_c p_i(e⇝c) · Π_{e'∈S∩c.ref}(1 − p_i(e'⇝c))
            if children is None:
                children = list(self.ctx.children_of(e.eid))
            inf = 0.0
            for c in children:
                pc = c.tp.get(i)
                if pc is None:
                    continue
                p = pe * pc
                key = (i, c.eid)
                rem = self.remprob.get(key, 1.0)
                inf += p * rem
                if apply:
                    self.remprob[key] = rem * (1.0 - p)
            g += xi * self.c_inf * inf
        return g


def singleton_delta(
    e: Element,
    ctx: WindowContext,
    topics: Iterable[int],
    weights: Iterable[float],
    lam: float,
    eta: float,
) -> float:
    """δ(e, x) computed from raw element data in O(l·d).

    This is the evaluation the index-less baselines (CELF,
    SieveStreaming) must perform for *every* active element — the cost
    the ranked lists exist to avoid.  MTTS/MTTD instead read the
    maintained δ_i(e) in O(d).
    """
    c_inf = (1.0 - lam) / eta
    total = 0.0
    children = None
    for i, x in zip(topics, weights):
        i = int(i)
        pe = e.tp.get(i)
        if pe is None or x <= 0:
            continue
        total += x * lam * float(e.sigma[i].sum())
        if children is None:
            children = list(ctx.children_of(e.eid))
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
