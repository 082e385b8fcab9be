"""Query-processing algorithms vs exhaustive OPT and each other.

On tiny instances we compute OPT by exhaustive search and assert the
paper's guarantees: MTTS ≥ (1/2−ε)·OPT (Thm 2), MTTD ≥ (1−1/e−ε)·OPT
(Thm 3), CELF ≥ (1−1/e)·OPT; on the small stream we assert the
empirical ordering of Section 5.3 (MTTD ≈ CELF, both ≥ Sieve and
Top-k) and the work-counter claims (MTTS evaluates each element ≤ once;
MTTS/MTTD evaluate far fewer elements than there are active).
"""
import itertools
import math
from types import SimpleNamespace

import pytest

from repro.baselines import celf, sieve_streaming, topk_representative
from repro.core import mtts, mttd
from repro.core.scoring import CoverageState, f_set_score


def _opt(state, q, k, pool=None):
    w = state.window
    active = sorted(pool if pool is not None else w.active)
    children = {eid: w.children_of(eid) for eid in active}
    best = 0.0
    for combo in itertools.combinations(active, min(k, len(active))):
        v = f_set_score(
            [w.store[c] for c in combo], q.topics, q.weights, state.lam, state.eta, children
        )
        best = max(best, v)
    return best


def _value_of(state, q, eids):
    """Re-score a result set from scratch (guards the incremental value)."""
    w = state.window
    children = {eid: w.children_of(eid) for eid in eids}
    return f_set_score(
        [w.store[c] for c in eids], q.topics, q.weights, state.lam, state.eta, children
    )


# restrict OPT search to the top-scoring pool so C(n, k) stays tractable
def _pool(state, q, n=14):
    w = state.window
    scored = sorted(
        w.active, key=lambda e: (-w.delta_x(e, q.topics, q.weights), e)
    )
    return scored[:n]


@pytest.mark.parametrize("qi", range(6))
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_mtts_bound(tiny_state, tiny_queries, qi, eps):
    q = tiny_queries[qi]
    k = 3
    res = mtts(tiny_state, q, k, eps=eps)
    opt = _opt(tiny_state, q, k, _pool(tiny_state, q))
    assert res.value >= (0.5 - eps) * opt - 1e-9
    assert _value_of(tiny_state, q, res.eids) == pytest.approx(res.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("qi", range(6))
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_mttd_bound(tiny_state, tiny_queries, qi, eps):
    q = tiny_queries[qi]
    k = 3
    res = mttd(tiny_state, q, k, eps=eps)
    opt = _opt(tiny_state, q, k, _pool(tiny_state, q))
    assert res.value >= (1 - 1 / math.e - eps) * opt - 1e-9
    assert _value_of(tiny_state, q, res.eids) == pytest.approx(res.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("qi", range(6))
def test_celf_bound(tiny_state, tiny_queries, qi):
    q = tiny_queries[qi]
    k = 3
    res = celf(tiny_state, q, k)
    opt = _opt(tiny_state, q, k, _pool(tiny_state, q))
    assert res.value >= (1 - 1 / math.e) * opt - 1e-9
    assert _value_of(tiny_state, q, res.eids) == pytest.approx(res.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("qi", range(6))
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_sieve_bound(tiny_state, tiny_queries, qi, eps):
    q = tiny_queries[qi]
    k = 3
    res = sieve_streaming(tiny_state, q, k, eps=eps)
    opt = _opt(tiny_state, q, k, _pool(tiny_state, q))
    assert res.value >= (0.5 - eps) * opt - 1e-9


def test_celf_equals_plain_greedy(tiny_state, tiny_queries):
    """CELF's lazy evaluation must return exactly the greedy solution."""
    for q in tiny_queries[:4]:
        w = tiny_state.window
        cov = CoverageState(w, q.topics, q.weights)
        chosen = []
        for _ in range(3):
            best, best_g = None, 0.0
            for eid in sorted(w.active):
                if eid in chosen:
                    continue
                g = cov.gain(w.store[eid])
                if g > best_g + 1e-15:
                    best, best_g = eid, g
            if best is None:
                break
            cov.add(w.store[best])
            chosen.append(best)
        res = celf(tiny_state, q, 3)
        assert res.value == pytest.approx(cov.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", [5, 10])
def test_quality_ordering_small_stream(small_state, small_queries, k):
    """Section 5.3 shape: MTTD ≈ CELF; MTTS ≥ 95% of CELF; Top-k worst."""
    n_q = 0
    r_mtts = r_mttd = r_celf = r_sieve = r_topk = 0.0
    for q in small_queries:
        c = celf(small_state, q, k)
        if c.value <= 0:
            continue
        n_q += 1
        r_celf += c.value
        r_mtts += mtts(small_state, q, k).value
        r_mttd += mttd(small_state, q, k).value
        r_sieve += sieve_streaming(small_state, q, k).value
        r_topk += topk_representative(small_state, q, k).value
    assert n_q >= 5
    assert r_mttd >= 0.99 * r_celf  # paper: MTTD > 99% of CELF
    assert r_mtts >= 0.90 * r_celf  # paper: MTTS > 95% (slack for tiny scale)
    assert r_topk <= r_mttd  # overlap-unaware top-k is the weakest
    assert r_sieve <= r_celf + 1e-9


def test_mtts_evaluates_each_element_at_most_once(small_state, small_queries):
    for q in small_queries[:6]:
        res = mtts(small_state, q, 10)
        assert res.n_evaluated == res.n_retrieved  # one evaluation per pop
        assert res.n_evaluated <= small_state.window.n_active


def test_pruning_vs_active_count(small_state, small_queries):
    """Ranked lists prune most evaluations (Figure 11's claim)."""
    n = small_state.window.n_active
    ratios = []
    for q in small_queries:
        res = mttd(small_state, q, 10)
        ratios.append(res.n_evaluated / n)
    assert sum(ratios) / len(ratios) < 0.6  # tiny scale; bench shows ≪ this


def test_k1_returns_best_singleton(small_state, small_queries):
    for q in small_queries[:5]:
        w = small_state.window
        best = max(w.delta_x(e, q.topics, q.weights) for e in w.active)
        assert mttd(small_state, q, 1).value == pytest.approx(best, rel=1e-6)
        assert mtts(small_state, q, 1, eps=0.05).value >= (0.5 - 0.05) * best - 1e-9


def test_k_larger_than_candidates(tiny_state, tiny_queries):
    q = tiny_queries[0]
    res = mttd(tiny_state, q, 10_000)
    assert len(res.eids) <= tiny_state.window.n_active


ALL_ALGORITHMS = [mtts, mttd, celf, sieve_streaming, topk_representative]
EPS_ALGORITHMS = [mtts, mttd, sieve_streaming]


def _name(alg):
    return alg.__name__


@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=_name)
def test_invalid_k_raises(tiny_state, tiny_queries, alg):
    for k in (0, -1, 2.5):
        with pytest.raises(ValueError):
            alg(tiny_state, tiny_queries[0], k)


@pytest.mark.parametrize("eps", [-0.1, 0.0, 1.0, 1.5])
@pytest.mark.parametrize("alg", EPS_ALGORITHMS, ids=_name)
def test_eps_outside_unit_interval_raises(tiny_state, tiny_queries, alg, eps):
    """ε ∉ (0, 1) is rejected up front (MTTD would never stop at ε ≤ 0)."""
    with pytest.raises(ValueError):
        alg(tiny_state, tiny_queries[0], 3, eps=eps)


@pytest.mark.parametrize(
    "topics, weights",
    [
        ([0, 1], [0.5, -0.5]),
        ([0, 1], [0.5, math.nan]),
        ([0, 1], [1.0]),
        ([0, 0], [0.5, 0.5]),
    ],
    ids=["negative", "nan", "length_mismatch", "duplicate_topic"],
)
@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=_name)
def test_invalid_weights_raise(tiny_state, alg, topics, weights):
    with pytest.raises(ValueError):
        alg(tiny_state, SimpleNamespace(topics=topics, weights=weights), 3)


def test_results_are_active_and_unique(small_state, small_queries):
    for q in small_queries:
        for alg in (mtts, mttd):
            res = alg(small_state, q, 10)
            assert len(res.eids) == len(set(res.eids))
            assert set(res.eids) <= small_state.window.active
