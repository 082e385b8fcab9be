"""Property tests for the scoring functions (Lemmas 1–2 + Section 3.3).

Monotonicity and submodularity of R_i, I_{i,t}, and f; agreement of the
incremental CoverageState with from-scratch evaluation; and the basic
identities (δ_i(e) = f_i({e}), f linear in x) — on randomly drawn
subsets of a generated stream.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoring import (
    CoverageState,
    f_set_score,
    influence_set_score,
    semantic_set_score,
    singleton_delta,
)

from repro.corpus import AMINER

LAM, ETA = AMINER.lam, AMINER.eta  # tiny_state profile constants


def _ctx(state):
    return state.window


def _children(state, eids):
    return {eid: state.window.children_of(eid) for eid in eids}


@pytest.fixture(scope="module")
def pool(tiny_state):
    return sorted(tiny_state.window.active)


ids = st.data()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_semantic_monotone(tiny_state, pool, data):
    w = tiny_state.window
    sub = data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    extra = data.draw(st.sampled_from(pool))
    topic = data.draw(st.integers(0, 5))
    S = [w.store[e] for e in sub if e != extra]
    before = semantic_set_score(S, topic)
    after = semantic_set_score(S + [w.store[extra]], topic)
    assert after >= before - 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_semantic_submodular(tiny_state, pool, data):
    w = tiny_state.window
    base = data.draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
    bigger = data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    extra = data.draw(st.sampled_from(pool))
    topic = data.draw(st.integers(0, 5))
    S = sorted(set(base) - {extra})
    Tset = sorted(set(base) | set(bigger) - {extra})
    el = lambda ids: [w.store[e] for e in ids]
    gain_S = semantic_set_score(el(S) + [w.store[extra]], topic) - semantic_set_score(el(S), topic)
    gain_T = semantic_set_score(el(Tset) + [w.store[extra]], topic) - semantic_set_score(el(Tset), topic)
    assert gain_S >= gain_T - 1e-9


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_influence_monotone(tiny_state, pool, data):
    w = tiny_state.window
    sub = data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    extra = data.draw(st.sampled_from(pool))
    topic = data.draw(st.integers(0, 5))
    S = sorted(set(sub) - {extra})
    ch = _children(tiny_state, S + [extra])
    el = lambda ids: [w.store[e] for e in ids]
    assert (
        influence_set_score(el(S + [extra]), topic, ch)
        >= influence_set_score(el(S), topic, ch) - 1e-12
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_influence_submodular(tiny_state, pool, data):
    w = tiny_state.window
    base = data.draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
    bigger = data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    extra = data.draw(st.sampled_from(pool))
    topic = data.draw(st.integers(0, 5))
    S = sorted(set(base) - {extra})
    Tset = sorted(set(base) | set(bigger) - {extra})
    ch = _children(tiny_state, list(set(Tset) | {extra}))
    el = lambda ids: [w.store[e] for e in ids]
    gain_S = influence_set_score(el(S + [extra]), topic, ch) - influence_set_score(el(S), topic, ch)
    gain_T = influence_set_score(el(Tset + [extra]), topic, ch) - influence_set_score(el(Tset), topic, ch)
    assert gain_S >= gain_T - 1e-9


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_coverage_state_matches_scratch(tiny_state, tiny_queries, pool, data):
    w = tiny_state.window
    q = data.draw(st.sampled_from(tiny_queries))
    sub = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    cov = CoverageState(w, q.topics, q.weights)
    for eid in sub:
        cov.add(w.store[eid])
    scratch = f_set_score(
        [w.store[e] for e in sub], q.topics, q.weights, LAM, ETA, _children(tiny_state, sub)
    )
    assert cov.value == pytest.approx(scratch, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gain_is_nonmutating(tiny_state, tiny_queries, pool, data):
    w = tiny_state.window
    q = data.draw(st.sampled_from(tiny_queries))
    a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    cov = CoverageState(w, q.topics, q.weights)
    g1 = cov.gain(w.store[a])
    g2 = cov.gain(w.store[a])
    assert g1 == g2
    added = cov.add(w.store[a])
    assert added == pytest.approx(g1)
    if b != a:
        # marginal gain after adding a can only shrink (submodularity)
        fresh = CoverageState(w, q.topics, q.weights)
        assert cov.gain(w.store[b]) <= fresh.gain(w.store[b]) + 1e-12


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_shared_view_matches_no_view_path(tiny_state, tiny_queries, pool, data):
    """One element view, shared by two candidates of the same query, gives
    bit for bit the gain/add values of the no-view path, and the gain is
    f(S∪{e}) − f(S) computed from scratch."""
    w = tiny_state.window
    q = data.draw(st.sampled_from(tiny_queries))
    eid = data.draw(st.sampled_from(pool))
    e = w.store[eid]
    subs = [
        [x for x in data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)) if x != eid]
        for _ in range(2)
    ]
    view = None
    for sub in subs:
        cov = CoverageState(w, q.topics, q.weights)
        ref = CoverageState(w, q.topics, q.weights)
        for x in sub:
            cov.add(w.store[x])
            ref.add(w.store[x])
        if view is None:
            view = cov.view(e)  # built by the first candidate, reused by the second
        g = cov.gain(e, view)
        assert g == ref.gain(e)
        before = f_set_score([w.store[x] for x in sub], q.topics, q.weights, LAM, ETA,
                             _children(tiny_state, sub))
        after = f_set_score([w.store[x] for x in sub + [eid]], q.topics, q.weights, LAM, ETA,
                            _children(tiny_state, sub + [eid]))
        assert g == pytest.approx(after - before, rel=0, abs=1e-9)
        assert cov.add(e, view) == ref.add(e)
        assert cov.value == ref.value
        assert cov.gain(e, view) == ref.gain(e)  # re-scoring after the add agrees too


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_copy_is_independent(tiny_state, tiny_queries, pool, data):
    """Adding to a copy leaves the original's coverage, S and f(S) as they
    were, and the copy scores exactly as a state built by the same adds."""
    w = tiny_state.window
    q = data.draw(st.sampled_from(tiny_queries))
    sub = data.draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
    more = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    cov = CoverageState(w, q.topics, q.weights)
    for eid in sub:
        cov.add(w.store[eid])
    snapshot = (
        {i: dict(c) for i, c in cov.wordcov.items()}, dict(cov.remprob), list(cov.S), cov.value
    )
    twin = cov.copy()
    ref = CoverageState(w, q.topics, q.weights)
    for eid in sub:
        ref.add(w.store[eid])
    for eid in more:
        assert twin.add(w.store[eid]) == ref.add(w.store[eid])
    assert (cov.wordcov, cov.remprob, cov.S, cov.value) == snapshot
    assert (twin.wordcov, twin.remprob, twin.S, twin.value) == (
        ref.wordcov, ref.remprob, ref.S, ref.value
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_singleton_delta_matches_maintained(tiny_state, tiny_queries, pool, data):
    """Index-less δ(e,x) == maintained Σ x_i·δ_i(e) for active elements."""
    w = tiny_state.window
    q = data.draw(st.sampled_from(tiny_queries))
    eid = data.draw(st.sampled_from(pool))
    raw = singleton_delta(w.store[eid], w, q.topics, q.weights)
    maintained = w.delta_x(eid, q.topics, q.weights)
    assert raw == pytest.approx(maintained, rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_f_linear_in_x(tiny_state, tiny_queries, pool, data):
    """f(S, x) = Σ_i x_i·f_i(S): scoring is linear in the query vector."""
    w = tiny_state.window
    q = data.draw(st.sampled_from(tiny_queries))
    sub = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    ch = _children(tiny_state, sub)
    el = [w.store[e] for e in sub]
    whole = f_set_score(el, q.topics, q.weights, LAM, ETA, ch)
    parts = sum(
        x * f_set_score(el, [i], [1.0], LAM, ETA, ch)
        for i, x in zip(q.topics, q.weights)
    )
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


def test_empty_set_scores_zero(tiny_state, tiny_queries):
    q = tiny_queries[0]
    assert f_set_score([], q.topics, q.weights, LAM, ETA, {}) == 0.0


def test_sigma_nonnegative(tiny_state):
    for e in tiny_state.window.store.values():
        for i, s in e.sigma.items():
            assert (np.asarray(s) >= 0).all()
            assert e.R[i] == pytest.approx(float(np.asarray(s).sum()))


def test_delta_i_equals_f_i_singleton(tiny_state):
    """Maintained δ_i(e) = f_i({e}) for every active element and topic."""
    w = tiny_state.window
    for eid in sorted(w.active)[:40]:
        e = w.store[eid]
        ch = {eid: w.children_of(eid)}
        for i in e.tp:
            expected = LAM * semantic_set_score([e], i) + (
                1 - LAM
            ) / ETA * influence_set_score([e], i, ch)
            assert w.delta[eid][i] == pytest.approx(expected, rel=1e-9, abs=1e-12)
