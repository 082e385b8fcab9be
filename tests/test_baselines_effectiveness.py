"""Effectiveness baselines of Section 5.1 (TF-IDF, DIV, Sumblr, REL).

Contract tests: result sizes/activity/uniqueness, relevance semantics
(elements sharing query keywords or topics rank first), diversity and
clustering behaviour, determinism.
"""
import numpy as np
import pytest

from repro.baselines import div_topk, keyword_index, rel_topk, sumblr, tfidf_topk
from repro.baselines.rel import topic_cosine
from repro.corpus import generate_queries


@pytest.fixture(scope="module")
def queries(small_stream):
    return generate_queries(small_stream, 8, seed=31, t_min=240)


@pytest.fixture(scope="module")
def index(small_state):
    """The keyword index the keyword baselines share, built as
    ``run_methods`` builds it."""
    return keyword_index(small_state.window)


@pytest.fixture(scope="module")
def author(small_stream):
    """Sumblr's author signal, built as ``run_methods`` builds it."""
    return {eid: float(s) for eid, s in enumerate(small_stream.popularity)}


def _active_words(state, eid):
    return set(int(w) for w in state.window.store[eid].words)


@pytest.mark.parametrize("k", [3, 5, 10])
def test_tfidf_contract(small_state, index, queries, k):
    for q in queries:
        res = tfidf_topk(index, q.keywords, k)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active
        # every returned element shares at least one keyword
        kw = set(int(w) for w in q.keywords)
        for eid in res:
            assert kw & _active_words(small_state, eid)


def test_tfidf_ranks_keyword_matches_first(small_state, index, queries):
    q = queries[0]
    res = tfidf_topk(index, q.keywords, 5)
    if res:
        # results beat a random non-matching element by construction
        kw = set(int(w) for w in q.keywords)
        non = [e for e in small_state.window.active if not kw & _active_words(small_state, e)]
        assert res[0] not in non


@pytest.mark.parametrize("k", [3, 5])
def test_div_contract(small_state, index, queries, k):
    for q in queries:
        res = div_topk(index, q.keywords, k)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active


def test_div_prefers_diverse_sets(small_state, index, queries):
    """DIV's set differs from plain TF-IDF top-k for some query (λ=0.3
    weighs diversity heavily)."""
    diffs = 0
    for q in queries:
        a = set(tfidf_topk(index, q.keywords, 5))
        b = set(div_topk(index, q.keywords, 5))
        if a and b and a != b:
            diffs += 1
    assert diffs >= 1


@pytest.mark.parametrize("k", [3, 5])
def test_sumblr_contract(small_state, index, queries, author, k):
    for q in queries:
        res = sumblr(index, q.keywords, k, author)
        assert len(res) <= k
        assert len(set(res)) == len(res)
        assert set(res) <= small_state.window.active
        kw = set(int(w) for w in q.keywords)
        for eid in res:  # candidate filter: must contain a keyword
            assert kw & _active_words(small_state, eid)


def test_sumblr_deterministic(index, queries, author):
    q = queries[0]
    assert sumblr(index, q.keywords, 5, author) == sumblr(index, q.keywords, 5, author)


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


def test_empty_keyword_queries(index, author):
    assert tfidf_topk(index, np.array([10**6]), 5) == []
    assert sumblr(index, np.array([10**6]), 5, author) == []



@pytest.mark.parametrize("k", [0, -1, 2.5])
def test_invalid_k_raises(small_state, index, queries, author, k):
    """The four baselines share the query contract's k check."""
    q = queries[0]
    for run in (
        lambda: tfidf_topk(index, q.keywords, k),
        lambda: div_topk(index, q.keywords, k),
        lambda: sumblr(index, q.keywords, k, author),
        lambda: rel_topk(small_state, q, k),
    ):
        with pytest.raises(ValueError, match="k must be an integer"):
            run()
