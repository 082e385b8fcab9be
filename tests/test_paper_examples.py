"""Golden tests: the paper's worked Examples 1–5 over Table 1.

These pin the exact semantics of every scoring formula (natural-log
entropy weights, probabilistic influence coverage, window expiry) and
the end-to-end behaviour of MTTS/MTTD on the paper's own numbers.
"""
import itertools

import numpy as np
import pytest

from repro.baselines.celf import celf
from repro.core.mtts import mtts
from repro.core.mttd import mttd
from repro.core.scoring import (
    CoverageState,
    f_set_score,
    influence_set_score,
    semantic_set_score,
)

from paper_example import ETA, LAM, Vec, elements, state_at_8


@pytest.fixture()
def elems():
    return {e.eid: e for e in elements()}


@pytest.fixture()
def st8():
    return state_at_8()


# -- Example 1: semantic score ------------------------------------------

def test_sigma_values_example1(elems):
    """σ_2(w_9,e_2)=0.15, σ_2(w_4,e_2)=0.18, σ_2(w_4,e_7)=0.17, …"""
    e2, e7 = elems[2], elems[7]
    s2 = dict(zip(e2.words, e2.sigma[1]))
    s7 = dict(zip(e7.words, e7.sigma[1]))
    assert s2[8] == pytest.approx(0.15, abs=0.005)  # w9
    assert s2[3] == pytest.approx(0.18, abs=0.005)  # w4
    assert s7[3] == pytest.approx(0.17, abs=0.005)
    assert s2[10] == pytest.approx(0.20, abs=0.005)  # w11
    assert s7[10] == pytest.approx(0.19, abs=0.005)


def test_semantic_set_score_example1(elems):
    assert semantic_set_score([elems[2], elems[7]], 1) == pytest.approx(0.53, abs=0.01)


def test_e7_contributes_nothing_beyond_e2(elems):
    """Example 1: all of e7's words are covered better by e2."""
    alone = semantic_set_score([elems[2]], 1)
    both = semantic_set_score([elems[2], elems[7]], 1)
    assert both == pytest.approx(alone)


# -- Example 2: influence score -----------------------------------------

def test_influence_example2(st8, elems):
    w = st8.window
    children = {eid: w.children_of(eid) for eid in (2, 3)}
    # e4 expired at t=8 (T=4): I_8({e2,e3}) = {e6, e7, e8}
    assert sorted(c.eid for c in children[3]) == [6, 8]
    assert sorted(c.eid for c in children[2]) == [7, 8]
    got = influence_set_score([elems[2], elems[3]], 1, children)
    assert got == pytest.approx(0.93, abs=0.01)


def test_pairwise_propagation_probs(st8, elems):
    w = st8.window
    # p_2(e3⇝e6)=0.03, p_2(e2⇝e7)=0.50 (paper rounding)
    assert elems[3].tp[1] * elems[6].tp[1] == pytest.approx(0.03, abs=0.005)
    assert elems[2].tp[1] * elems[7].tp[1] == pytest.approx(0.50, abs=0.005)
    # p_2(S⇝e8)=0.40
    p = 1 - (1 - elems[2].tp[1] * elems[8].tp[1]) * (1 - elems[3].tp[1] * elems[8].tp[1])
    assert p == pytest.approx(0.40, abs=0.005)


# -- Example 3: optimal results -----------------------------------------

def _brute_force(st, vec, k):
    w = st.window
    active = sorted(w.active)
    children = {eid: w.children_of(eid) for eid in active}
    best, best_v = None, -1.0
    for size in range(1, k + 1):
        for combo in itertools.combinations(active, size):
            v = f_set_score(
                [w.store[c] for c in combo], vec.topics, vec.weights, LAM, ETA, children
            )
            if v > best_v:
                best, best_v = set(combo), v
    return best, best_v


def test_active_set_at_8(st8):
    assert sorted(st8.window.active) == [1, 2, 3, 5, 6, 7, 8]  # e4 expired


def test_opt_balanced_query(st8):
    best, v = _brute_force(st8, Vec(0.5, 0.5), 2)
    assert best == {1, 3}
    assert v == pytest.approx(0.65, abs=0.01)


def test_opt_skewed_query(st8):
    best, v = _brute_force(st8, Vec(0.1, 0.9), 2)
    assert best == {1, 2}
    # paper reports 0.94 from rounded intermediates; exact arithmetic gives ~0.955
    assert v == pytest.approx(0.94, abs=0.02)


# -- Example 4/5: MTTS and MTTD trace ------------------------------------

def test_example4_initial_bounds(st8):
    w = st8.window
    # x1·δ1(e3) = 0.33, x2·δ2(e1) = 0.28 (paper's Figure 5)
    # paper rounds to 2 d.p. (0.33 / 0.28); exact values 0.3237 / 0.2799
    assert 0.5 * w.delta[3][0] == pytest.approx(0.33, abs=0.01)
    assert 0.5 * w.delta[1][1] == pytest.approx(0.28, abs=0.005)
    assert w.delta_x(3, [0, 1], [0.5, 0.5]) == pytest.approx(0.34, abs=0.005)
    assert w.delta_x(1, [0, 1], [0.5, 0.5]) == pytest.approx(0.31, abs=0.005)


def test_mtts_example4(st8):
    res = mtts(st8, Vec(0.5, 0.5), 2, eps=0.3)
    assert sorted(res.eids) == [1, 3]
    assert res.value == pytest.approx(0.65, abs=0.01)


def test_mttd_example5(st8):
    res = mttd(st8, Vec(0.5, 0.5), 2, eps=0.3)
    assert sorted(res.eids) == [1, 3]
    assert res.value == pytest.approx(0.65, abs=0.01)


def test_mtts_skewed_query(st8):
    res = mtts(st8, Vec(0.1, 0.9), 2, eps=0.1)
    assert res.value >= (0.5 - 0.1) * 0.94 - 1e-9


def test_mttd_skewed_query(st8):
    res = mttd(st8, Vec(0.1, 0.9), 2, eps=0.1)
    assert res.value >= (1 - 1 / np.e - 0.1) * 0.94 - 1e-9


def test_celf_matches_opt_here(st8):
    res = celf(st8, Vec(0.5, 0.5), 2)
    assert sorted(res.eids) == [1, 3]
    assert res.value == pytest.approx(0.65, abs=0.01)


# -- CoverageState vs from-scratch on the example ------------------------

@pytest.mark.parametrize("combo", list(itertools.combinations([1, 2, 3, 5, 6, 7, 8], 2)))
def test_incremental_equals_scratch(st8, combo):
    w = st8.window
    vec = Vec(0.5, 0.5)
    cov = CoverageState(w, vec.topics, vec.weights)
    for eid in combo:
        cov.add(w.store[eid])
    children = {eid: w.children_of(eid) for eid in combo}
    scratch = f_set_score(
        [w.store[c] for c in combo], vec.topics, vec.weights, LAM, ETA, children
    )
    assert cov.value == pytest.approx(scratch, rel=1e-9, abs=1e-12)
