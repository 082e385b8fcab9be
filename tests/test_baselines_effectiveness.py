"""Effectiveness baselines of Section 5.1 (TF-IDF, DIV, Sumblr, REL).

Contract tests: result sizes/activity/uniqueness, relevance semantics
(elements sharing query keywords or topics rank first), diversity and
clustering behaviour, determinism.
"""
import numpy as np
import pytest

from repro.baselines import div_topk, rel_topk, sumblr, tfidf_topk
from repro.baselines.rel import topic_cosine
from repro.core import SIRStream, build_elements
from repro.corpus import AMINER, generate_queries

from stream_fixtures import TINY_L, TINY_T


@pytest.fixture(scope="module")
def queries(small_stream):
    return generate_queries(small_stream, 8, seed=31, t_min=240)


@pytest.fixture(scope="module")
def author(small_stream):
    """Sumblr's author signal, built as ``run_methods`` builds it."""
    return {eid: float(s) for eid, s in enumerate(small_stream.popularity)}


def _active_words(state, eid):
    return set(int(w) for w in state.window.store[eid].words)


@pytest.mark.parametrize("k", [3, 5, 10])
def test_tfidf_contract(small_state, queries, k):
    for q in queries:
        res = tfidf_topk(small_state, q.keywords, k)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active
        # every returned element shares at least one keyword
        kw = set(int(w) for w in q.keywords)
        for eid in res:
            assert kw & _active_words(small_state, eid)


def test_tfidf_ranks_keyword_matches_first(small_state, queries):
    q = queries[0]
    res = tfidf_topk(small_state, q.keywords, 5)
    if res:
        # results beat a random non-matching element by construction
        kw = set(int(w) for w in q.keywords)
        non = [e for e in small_state.window.active if not kw & _active_words(small_state, e)]
        assert res[0] not in non


@pytest.mark.parametrize("k", [3, 5])
def test_div_contract(small_state, queries, k):
    for q in queries:
        res = div_topk(small_state, q.keywords, k)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active


def test_div_prefers_diverse_sets(small_state, queries):
    """DIV's set differs from plain TF-IDF top-k for some query (λ=0.3
    weighs diversity heavily)."""
    diffs = 0
    for q in queries:
        a = set(tfidf_topk(small_state, q.keywords, 5))
        b = set(div_topk(small_state, q.keywords, 5))
        if a and b and a != b:
            diffs += 1
    assert diffs >= 1


@pytest.mark.parametrize("k", [3, 5])
def test_sumblr_contract(small_state, queries, author, k):
    for q in queries:
        res = sumblr(small_state, q.keywords, k, author)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active
        kw = set(int(w) for w in q.keywords)
        for eid in res:  # candidate filter: must contain a keyword
            assert kw & _active_words(small_state, eid)


def test_sumblr_deterministic(small_state, queries, author):
    q = queries[0]
    assert sumblr(small_state, q.keywords, 5, author) == sumblr(small_state, q.keywords, 5, author)


@pytest.mark.parametrize("k", [3, 5, 10])
def test_rel_contract(small_state, queries, k):
    for q in queries:
        res = rel_topk(small_state, q, k)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active


def test_rel_orders_by_cosine(small_state, queries):
    q = queries[0]
    res = rel_topk(small_state, q, 10)
    w = small_state.window
    sims = [topic_cosine(w.store[e].tp, q.topics, q.weights) for e in res]
    assert sims == sorted(sims, reverse=True)
    # top result beats every non-returned element
    rest = [
        topic_cosine(w.store[e].tp, q.topics, q.weights)
        for e in w.active if e not in res
    ]
    if rest and sims:
        assert sims[-1] >= max(rest) - 1e-12


def test_topic_cosine_properties(small_state):
    w = small_state.window
    eid = next(iter(w.active))
    tp = w.store[eid].tp
    ids = np.array(list(tp))
    wts = np.array([tp[i] for i in ids])
    assert topic_cosine(tp, ids, wts) == pytest.approx(1.0)
    assert topic_cosine(tp, np.array([9999]), np.array([1.0])) == 0.0


def test_empty_keyword_queries(small_state, author):
    assert tfidf_topk(small_state, np.array([10**6]), 5) == []
    assert sumblr(small_state, np.array([10**6]), 5, author) == []


def test_tfidf_index_follows_ingest_at_same_t(tiny_stream, tiny_queries):
    """A second bucket at the same t changes A_t, so the memoised TF-IDF
    index must be rebuilt, not reused."""
    els = build_elements(tiny_stream)
    t = int(tiny_stream.t_end)
    kw = tiny_queries[0].keywords

    def fresh():
        return SIRStream(T=TINY_T, L=TINY_L, lam=AMINER.lam, eta=AMINER.eta)

    whole = fresh()
    whole.ingest_bucket(els, t)
    expected = tfidf_topk(whole, kw, 5)
    split = fresh()
    half = len(els) // 2
    split.ingest_bucket(els[:half], t)
    tfidf_topk(split, kw, 5)  # memoises the half-stream index
    split.ingest_bucket(els[half:], t)
    assert split.window.active == whole.window.active
    assert expected and tfidf_topk(split, kw, 5) == expected
