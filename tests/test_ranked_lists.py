"""Ranked-list structure and traversal (Section 4.1).

Sorted-order invariants under upsert/remove churn, equality of the
incrementally maintained lists with a from-scratch rebuild at every
bucket, and the first/next traversal semantics with cross-list visited
marking.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RankedLists, SIRStream, Traversal, build_elements
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
            rl.upsert(topic, eid, d)
            shadow[(topic, eid)] = d
        else:
            rl.remove(topic, eid)
            shadow.pop((topic, eid), None)
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
            for i, d in w.delta_of(eid).items():
                rebuilt.upsert(i, eid, d)
        for i in set(rebuilt.lists) | set(st_.rl.lists):
            assert st_.rl.items(i) == rebuilt.items(i), f"t={b} topic={i}"


def test_score_lookup():
    rl = RankedLists()
    rl.upsert(0, 1, 2.0)
    rl.upsert(0, 2, 3.0)
    assert rl.score(0, 1) == 2.0
    assert rl.score(0, 3) is None
    rl.upsert(0, 1, 5.0)  # reposition
    assert rl.items(0) == [(1, 5.0), (2, 3.0)]
    rl.remove(0, 1)
    assert rl.score(0, 1) is None
    assert rl.size(0) == 1


def test_remove_element_across_topics():
    rl = RankedLists()
    rl.upsert(0, 7, 1.0)
    rl.upsert(1, 7, 2.0)
    rl.upsert(1, 8, 1.5)
    rl.remove_element(7, [0, 1])
    assert rl.size(0) == 0
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
    assert tr.pop_best() == (1, 0)
    assert tr.upper_bound() == 2.0
    assert tr.pop_best() == (2, 0)
    assert tr.pop_best() == (3, 0)
    assert tr.pop_best() is None
    assert tr.exhausted()


def test_traversal_weighted_merge():
    """Pop order follows x_i·δ_i, merging across lists."""
    rl = _rl_from([(0, 1, 3.0), (0, 2, 1.0), (1, 3, 2.0), (1, 4, 1.9)])
    tr = Traversal(rl, [0, 1], [0.5, 1.0])
    # scores: e3→2.0, e4→1.9, e1→1.5, e2→0.5
    order = [tr.pop_best()[0] for _ in range(4)]
    assert order == [3, 4, 1, 2]


def test_traversal_visited_across_lists():
    """An element popped from one list is skipped in every other list."""
    rl = _rl_from([(0, 1, 3.0), (1, 1, 2.5), (1, 2, 1.0)])
    tr = Traversal(rl, [0, 1], [1.0, 1.0])
    assert tr.pop_best() == (1, 0)
    # e1's tuple in RL_1 must now be invisible
    assert tr.head(1) == (2, 1.0)
    assert tr.pop_best() == (2, 1)
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
    assert tr.pop_best() == (1, 0)
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
        assert p[0] not in eids  # each element retrieved at most once
        eids.add(p[0])
    present = {eid for i in range(4) for eid, _ in rl.items(i)}
    assert eids == present  # ... and at least once
