"""Ranked-list structure and traversal (Section 4.1).

Sorted-order invariants under upsert/remove churn, equality of the
incrementally maintained lists with a from-scratch rebuild at every
bucket, the first/next traversal semantics with cross-list visited
marking, and the stop rule on the m heaviest list heads.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ActiveWindow, RankedLists, SIRStream, Traversal, build_elements, make_element
from repro.corpus import AMINER, generate_stream

from stream_fixtures import TINY, TINY_L, TINY_T


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["upsert", "remove"]),
            st.integers(0, 3),  # topic
            st.integers(0, 25),  # eid
            st.floats(0, 10, allow_nan=False),
        ),
        max_size=60,
    )
)
def test_sorted_invariant_under_churn(ops):
    rl = RankedLists()
    shadow: dict[tuple[int, int], float] = {}
    for op, topic, eid, d in ops:
        if op == "upsert":
            rl.upsert(topic, eid, d, shadow.get((topic, eid)))
            shadow[(topic, eid)] = d
        elif (topic, eid) in shadow:
            rl.remove(topic, eid, shadow.pop((topic, eid)))
    for topic in range(4):
        got = rl.items(topic)
        expected = sorted(
            ((eid, d) for (i, eid), d in shadow.items() if i == topic),
            key=lambda p: (-p[1], p[0]),
        )
        assert got == expected


def test_incremental_equals_rebuild_every_bucket():
    stream = generate_stream(AMINER, **TINY)
    st_ = SIRStream(T=TINY_T, L=TINY_L, lam=0.5, eta=20.0)
    st_.load(build_elements(stream))
    t_end = ((stream.t_end + TINY_L - 1) // TINY_L) * TINY_L
    for b in range(TINY_L, t_end + 1, TINY_L):
        st_.advance_to(b)
        w = st_.window
        rebuilt = RankedLists()
        for eid in w.active:
            for i, d in w.delta[eid].items():
                rebuilt.upsert(i, eid, d)
        for i in set(rebuilt.lists) | set(st_.window.rl.lists):
            assert st_.window.rl.items(i) == rebuilt.items(i), f"t={b} topic={i}"


def test_score_lookup():
    """A tuple is found again by the old δ its caller passes in."""
    rl = RankedLists()
    rl.upsert(0, 1, 2.0)
    rl.upsert(0, 2, 3.0)
    assert rl.items(0) == [(2, 3.0), (1, 2.0)]
    assert rl.items(3) == []
    rl.upsert(0, 1, 5.0, old=2.0)  # reposition
    assert rl.items(0) == [(1, 5.0), (2, 3.0)]
    rl.upsert(0, 2, 3.0, old=3.0)  # unchanged: left in place
    assert rl.items(0) == [(1, 5.0), (2, 3.0)]
    rl.remove(0, 1, 5.0)
    assert rl.items(0) == [(2, 3.0)]


def test_remove_element_across_topics():
    rl = RankedLists()
    rl.upsert(0, 7, 1.0)
    rl.upsert(1, 7, 2.0)
    rl.upsert(1, 8, 1.5)
    for topic, d in {0: 1.0, 1: 2.0}.items():
        rl.remove(topic, 7, d)
    assert rl.items(0) == []
    assert rl.items(1) == [(8, 1.5)]


# -- traversal -----------------------------------------------------------

def _rl_from(entries):
    rl = RankedLists()
    for topic, eid, d in entries:
        rl.upsert(topic, eid, d)
    return rl


def test_traversal_pop_order_single_topic():
    rl = _rl_from([(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0)])
    tr = Traversal(rl, [0], [1.0])
    assert tr.upper_bound() == 3.0
    assert tr.pop_best() == 1
    assert tr.upper_bound() == 2.0
    assert tr.pop_best() == 2
    assert tr.pop_best() == 3
    assert tr.pop_best() is None


def test_traversal_weighted_merge():
    """Pop order follows x_i·δ_i, merging across lists."""
    rl = _rl_from([(0, 1, 3.0), (0, 2, 1.0), (1, 3, 2.0), (1, 4, 1.9)])
    tr = Traversal(rl, [0, 1], [0.5, 1.0])
    # scores: e3→2.0, e4→1.9, e1→1.5, e2→0.5
    order = [tr.pop_best() for _ in range(4)]
    assert order == [3, 4, 1, 2]


def test_traversal_visited_across_lists():
    """An element popped from one list is skipped in every other list."""
    rl = _rl_from([(0, 1, 3.0), (1, 1, 2.5), (1, 2, 1.0)])
    tr = Traversal(rl, [0, 1], [1.0, 1.0])
    assert tr.pop_best() == 1
    # e1's tuple in RL_1 must now be invisible: UB(x) reads e2's there
    assert tr.upper_bound() == 1.0
    assert tr.pop_best() == 2
    assert tr.pop_best() is None


def test_upper_bound_sums_heads():
    rl = _rl_from([(0, 1, 3.0), (1, 2, 2.0)])
    tr = Traversal(rl, [0, 1], [0.5, 0.5])
    assert tr.upper_bound() == pytest.approx(2.5)
    tr.pop_best()
    assert tr.upper_bound() == pytest.approx(1.0)


def test_traversal_empty_topic():
    rl = _rl_from([(0, 1, 1.0)])
    tr = Traversal(rl, [0, 5], [0.5, 0.5])
    assert tr.upper_bound() == pytest.approx(0.5)
    assert tr.pop_best() == 1
    assert tr.pop_best() is None


def test_next_above_stops_below_bound_and_at_zero():
    """next_above pops while UB(x) ≥ bound and stops, popping nothing,
    once UB(x) falls below it or to zero."""
    rl = _rl_from([(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0), (0, 4, 0.0)])
    tr = Traversal(rl, [0], [1.0])
    assert tr.next_above(2.0) == 1
    assert tr.next_above(2.0) == 2  # UB = 2.0 still reaches the bound
    assert tr.next_above(2.0) is None  # UB = 1.0 < 2.0
    assert tr.n_retrieved == 2
    assert tr.next_above(0.0) == 3
    assert tr.next_above(0.0) is None  # only a δ = 0 tuple is left
    assert tr.n_retrieved == 3


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_traversal_is_total_and_unique(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 15), st.floats(0.1, 5)),
            max_size=40,
        )
    )
    rl = _rl_from(entries)
    tr = Traversal(rl, [0, 1, 2, 3], [0.25] * 4)
    eids = set()
    while (p := tr.pop_best()) is not None:
        assert p not in eids  # each element retrieved at most once
        eids.add(p)
    present = {eid for i in range(4) for eid, _ in rl.items(i)}
    assert eids == present  # ... and at least once


def _pops(tr, ub_calls, n_eids):
    """Pop everything, calling upper_bound() ``ub_calls[n]`` times before
    the n-th pop; → the pops and each call's UB(x).  Fails if more than
    ``n_eids`` elements come out."""
    pops, ubs = [], []
    while len(pops) <= n_eids:
        ubs.append([tr.upper_bound() for _ in range(ub_calls[len(ubs) % len(ub_calls)])])
        if (p := tr.pop_best()) is None:
            return pops, ubs
        pops.append(p)
    raise AssertionError(f"{len(pops)} pops from {n_eids} elements: {pops}")


def _ub_read_directly(rl, topics, weights, popped):
    """UB(x) over the unpopped tuples, read straight from the lists."""
    ub = 0.0
    for i, x in zip(topics, weights):
        rest = [d for eid, d in rl.items(i) if eid not in popped]
        if rest:
            ub += x * rest[0]
    return ub


def _pops_read_directly(rl, topics, weights):
    """The pop sequence read straight from the lists: each pop takes the
    largest x_i·δ_i over the unpopped tuples, the first topic on a tie."""
    popped = []
    while True:
        best = None
        for i, x in zip(topics, weights):
            rest = [(x * d, eid) for eid, d in rl.items(i) if eid not in popped]
            if rest and (best is None or rest[0][0] > best[0]):
                best = rest[0]
        if best is None:
            return popped
        popped.append(best[1])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_upper_bound_calls_do_not_change_pops(data):
    """The pops follow the lists read from scratch, and are the same with
    no, one or two upper_bound() calls before each."""
    entries = data.draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 15), st.sampled_from([0.5, 1.0, 2.0, 3.5])),
            max_size=40,
        )
    )
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=4, max_size=4))
    rl = _rl_from(entries)
    topics = [0, 1, 2, 3]
    n_eids = len({eid for _, eid, _ in entries})
    plain, _ = _pops(Traversal(rl, topics, weights), [0], n_eids)
    assert plain == _pops_read_directly(rl, topics, weights)
    for pattern in ([1], [2], [0, 1, 2], [2, 0]):
        pops, ubs = _pops(Traversal(rl, topics, weights), pattern, n_eids)
        assert pops == plain
        for n, calls in enumerate(ubs):
            want = _ub_read_directly(rl, topics, weights, set(pops[:n]))
            assert calls == [want] * len(calls)


def test_pop_best_without_upper_bound():
    rl = _rl_from([(0, 1, 3.0), (0, 2, 2.0), (1, 2, 4.0), (1, 3, 1.0)])
    tr = Traversal(rl, [0, 1], [1.0, 0.5])
    assert tr.pop_best() == 1  # 3.0 > 0.5·4.0
    assert tr.upper_bound() == 4.0  # 2.0 + 0.5·4.0
    assert tr.pop_best() == 2  # a tie goes to the first topic
    assert tr.pop_best() == 3  # e2's copy in RL_1 was visited: skipped
    assert tr.upper_bound() == 0.0
    assert tr.pop_best() is None


def test_next_above_stops_on_the_m_heaviest_heads():
    """No element is in more than ``max_topics`` lists, so a scan stops
    once the m largest heads sum below the bound, even while UB(x), the
    sum of every head, still reaches it.  Unknown m: UB(x) alone."""
    rl = _rl_from([(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.4), (0, 4, 0.1)])
    assert Traversal(rl, [0, 1, 2], [1.0] * 3).next_above(1.2) == 1  # UB = 1.5
    rl.max_topics = 2
    tr = Traversal(rl, [0, 1, 2], [1.0] * 3)
    assert tr.next_above(1.1) == 1  # 0.6 + 0.5 reaches 1.1
    assert tr.next_above(0.95) is None  # UB = 1.0 does, 0.5 + 0.4 does not
    assert tr.next_above(0.85) == 2
    assert tr.n_retrieved == 2
    rl.max_topics = 1
    assert Traversal(rl, [0, 1, 2], [1.0] * 3).next_above(0.7) is None  # UB = 1.5


def test_three_topic_window_never_stops_before_a_reachable_element():
    """m = 3: δ(e,x) adds e's terms in query order, the bound adds the
    three largest heads in descending order, and the two sums can round
    apart.  With weights where the descending sum rounds below δ(e,x),
    a scan at bound δ(e,x) must still pop e: the widened bound stops no
    earlier than it should."""
    phi = np.full((5, 6), 1 / 6)

    def el(eid, words, tps, pps):
        return make_element(eid, 1, np.array(words), np.ones(len(words)), tps, pps,
                            np.array([], dtype=int), phi)

    w = ActiveWindow(T=10, lam=0.5, eta=2.0)
    w.ingest([el(0, [0, 1, 2, 3, 4, 5], [0, 1, 2], [0.5, 0.3, 0.2]),
              el(1, [0], [2, 3, 4], [0.1, 0.6, 0.3])], 1)
    assert w.rl.max_topics == 3
    rng = np.random.default_rng(0)
    found = 0
    for topics in ([0, 1, 2, 3, 4], [0, 1, 2, 3]):
        for _ in range(200):
            x = rng.uniform(0.1, 1.0, 3).tolist() + [1e-3] * (len(topics) - 3)
            d = w.delta_x(0, topics, x)
            tight = 0.0  # e0 heads RL_0–RL_2, above e1's tiny x-weighted heads
            for h in sorted((xi * w.delta[0][i] for i, xi in zip(topics, x[:3])), reverse=True):
                tight += h
            if tight < d:
                found += 1
                tr = Traversal(w.rl, topics, x)
                assert tr.next_above(d) == 0
    assert found  # some weights round the two sums apart
