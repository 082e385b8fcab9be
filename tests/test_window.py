"""Active-window semantics (Section 3.1 definitions + Algorithm 1).

W_t membership, A_t = W_t ∪ referred-parents, expiry at the last
reference, child expiry shrinking I_t(e), score refresh on reference
arrival/expiry, re-activation of expired-but-referred elements, the
arrival-order contract, window state that holds no key for an
element without in-window children — checked against definition-level
recomputation at every bucket of a replayed stream — and a window rebuilt
from A_t's elements that equals the uninterrupted one bit for bit.
"""
import numpy as np
import pytest

from repro.core import ActiveWindow, SIRStream, build_elements, make_element
from repro.core.scoring import influence_set_score, semantic_set_score
from repro.corpus import AMINER, REDDIT, TWITTER, generate_stream

from stream_fixtures import SMALL_T, SMALL_L, TINY, TINY_T, TINY_L

LAM, ETA = AMINER.lam, AMINER.eta


def _expected_active(stream, t, T):
    """A_t from the paper's definition, recomputed from scratch."""
    in_w = {e for e in range(stream.n) if t - T + 1 <= stream.ts[e] <= t}
    parents = {int(p) for e in in_w for p in stream.refs[e]}
    return in_w | parents


def _expected_children(stream, eid, t, T):
    return sorted(
        c for c in range(stream.n)
        if t - T + 1 <= stream.ts[c] <= t and eid in stream.refs[c]
    )


@pytest.fixture(scope="module")
def stream():
    return generate_stream(AMINER, **TINY)


def test_active_set_matches_definition_at_every_bucket(stream):
    st = SIRStream(T=TINY_T, L=TINY_L, lam=LAM, eta=ETA)
    st.load(build_elements(stream))
    t_end = ((stream.t_end + TINY_L - 1) // TINY_L) * TINY_L
    for b in range(TINY_L, t_end + 1, TINY_L):
        st.advance_to(b)
        assert st.window.active == _expected_active(stream, b, TINY_T), f"t={b}"


def test_children_match_definition_at_every_bucket(stream):
    st = SIRStream(T=TINY_T, L=TINY_L, lam=LAM, eta=ETA)
    st.load(build_elements(stream))
    t_end = ((stream.t_end + TINY_L - 1) // TINY_L) * TINY_L
    for b in range(TINY_L, t_end + 1, TINY_L):
        st.advance_to(b)
        for eid in st.window.active:
            got = sorted(c.eid for c in st.window.children_of(eid))
            assert got == _expected_children(stream, eid, b, TINY_T), f"t={b} e={eid}"


def test_delta_matches_definition_at_final_bucket(stream, tiny_state):
    w = tiny_state.window
    for eid in w.active:
        e = w.store[eid]
        ch = {eid: w.children_of(eid)}
        for i in e.tp:
            expected = LAM * semantic_set_score([e], i) + (1 - LAM) / ETA * (
                influence_set_score([e], i, ch)
            )
            assert w.delta[eid][i] == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_ranked_lists_contain_exactly_active_topics(tiny_state):
    w = tiny_state.window
    rl = tiny_state.window.rl
    expected = {(i, eid) for eid in w.active for i in w.store[eid].tp}
    got = {(i, eid) for i, lst in rl.lists.items() for _, eid in lst}
    assert got == expected


def _mini_elements(phi, specs):
    """specs: (eid, ts, words, (topics, probs), refs)."""
    return [
        make_element(
            eid, ts, np.array(ws), np.ones(len(ws)), tps, pps, np.array(refs), phi
        )
        for eid, ts, ws, (tps, pps), refs in specs
    ]


@pytest.fixture()
def mini_phi():
    phi = np.zeros((2, 4))
    phi[0] = [0.5, 0.5, 0.0, 0.0]
    phi[1] = [0.0, 0.0, 0.5, 0.5]
    return phi


def test_reference_resurrects_expired_element(mini_phi):
    """An element out of W_t re-enters A_t when newly referred to."""
    els = _mini_elements(
        mini_phi,
        [
            (0, 1, [0, 1], ([0], [1.0]), []),
            (1, 10, [2, 3], ([1], [1.0]), []),
            (2, 12, [0], ([0], [1.0]), [0]),  # refers to long-expired e0
        ],
    )
    w = ActiveWindow(T=4, lam=0.5, eta=2.0)
    w.ingest([els[0]], 2)
    w.ingest([], 6)
    assert 0 not in w.active  # e0 expired
    w.ingest([els[1]], 10)
    w.ingest([els[2]], 12)
    assert 0 in w.active  # resurrected by e2's reference
    assert [c.eid for c in w.children_of(0)] == [2]
    # and it expires again T after the last reference
    w.ingest([], 17)
    assert 0 not in w.active


def test_child_expiry_shrinks_influence(mini_phi):
    """δ_i(parent) drops when a referring child leaves the window."""
    els = _mini_elements(
        mini_phi,
        [
            (0, 1, [0, 1], ([0], [1.0]), []),
            (1, 2, [1], ([0], [1.0]), [0]),
            (2, 4, [0], ([0], [1.0]), [0]),
        ],
    )
    w = ActiveWindow(T=6, lam=0.5, eta=2.0)
    w.ingest(els, 4)
    d_both = w.delta[0][0]
    w.ingest([], 8)  # child e1 (ts=2) leaves W_8 = [3, 8]
    assert 0 in w.active  # e0 still referred by e2 at ts=4
    d_one = w.delta[0][0]
    assert d_one < d_both
    # semantic part only once e2 also leaves: at t=10, t_e(e0)=4 ≤ 10−6
    w.ingest([], 10)
    assert 0 not in w.active


def test_t_e_is_last_reference_time(mini_phi):
    """e0 stays in A_t until its last referrer (e2, ts 5) leaves W_t."""
    els = _mini_elements(
        mini_phi,
        [
            (0, 1, [0], ([0], [1.0]), []),
            (1, 3, [1], ([0], [1.0]), [0]),
            (2, 5, [1], ([0], [1.0]), [0]),
        ],
    )
    w = ActiveWindow(T=10, lam=0.5, eta=2.0)
    w.ingest(els, 5)
    w.ingest([], 14)  # W_14 = [5, 14] still holds e2
    assert 0 in w.active
    assert [c.eid for c in w.children_of(0)] == [2]
    w.ingest([], 15)
    assert 0 not in w.active


@pytest.mark.parametrize(
    "earlier, bucket, t",
    [
        ([], [(0, 5), (1, 3)], 10),  # older than the previous one in its bucket
        ([(0, 5)], [(1, 3)], 20),  # older than one in an earlier bucket
        ([], [(0, 5), (1, 12)], 10),  # ts > t
        ([(0, 5)], [(0, 5)], 10),  # e0 again, same ts and t
        ([], [(0, 5), (0, 5)], 10),  # e0 twice in one bucket
        ([(1, 5)], [(0, 6)], 10),  # eid below one in an earlier bucket
        ([], [(1, 5), (0, 6)], 10),  # eid below the previous one in its bucket
        # a later ts does not excuse a repeated eid: (ts, eid) rising
        # lexicographically is not the contract
        ([(0, 5)], [(0, 6)], 10),
        ([], [(0, 5), (0, 6)], 10),
        # accepted: a reply in its parent's minute, with a higher eid
        ([(0, 5)], [(1, 5, 0)], 10),
        ([], [(0, 5), (1, 5, 0)], 10),
    ],
    ids=["same-bucket", "earlier-bucket", "after-t", "replayed", "twice-in-bucket",
         "lower-eid-earlier-bucket", "lower-eid-same-bucket",
         "repeat-at-later-ts", "repeat-at-later-ts-in-bucket",
         "same-minute-reply-ok", "same-minute-reply-in-bucket-ok"],
)
def test_out_of_order_arrival_raises(mini_phi, earlier, bucket, t):
    """Across ingests ts never decreases and eid strictly increases, and
    each ts is ≤ t; a bad bucket is rejected whole.  (eid, ts, *refs)."""
    def plain(specs):
        return _mini_elements(mini_phi, [(e, ts, [0], ([0], [1.0]), refs) for e, ts, *refs in specs])

    w = ActiveWindow(T=100, lam=0.5, eta=2.0)
    w.ingest(plain(earlier), 10)
    if any(len(spec) > 2 for spec in bucket):  # the accepted cases: a reply to e0
        w.ingest(plain(bucket), t)
        assert [c.eid for c in w.children_of(0)] == [1]
        return
    before = (w.t, set(w.store))
    with pytest.raises(ValueError):
        w.ingest(plain(bucket), t)
    assert (w.t, set(w.store)) == before


def test_state_keys_bounded_and_delta_exact(small_stream):
    """After every bucket, ``children`` is keyed on exactly the elements
    with I_t(e) ≠ ∅, and every δ_i(p) is, bit for bit, λ·R_i(p) +
    (1−λ)/η·p_i(p)·Σ_{c∈I_t(p)} p_i(c), the sum taken in arrival order."""
    lam, c_inf = TWITTER.lam, (1 - TWITTER.lam) / TWITTER.eta
    st = SIRStream(T=SMALL_T, L=SMALL_L, lam=TWITTER.lam, eta=TWITTER.eta)
    st.load(build_elements(small_stream))
    w = st.window
    t_end = ((small_stream.t_end + SMALL_L - 1) // SMALL_L) * SMALL_L
    for b in range(SMALL_L, t_end + 1, SMALL_L):
        st.advance_to(b)
        in_w = [c for c in range(small_stream.n) if b - SMALL_T + 1 <= small_stream.ts[c] <= b]
        referred = {int(p) for c in in_w for p in small_stream.refs[c]}
        assert set(w.children) == referred, f"t={b}"
        for p in w.active:
            e, kids = w.store[p], w.children_of(p)
            for i, pe in e.tp.items():
                s = 0.0
                for c in kids:
                    s += c.tp.get(i, 0.0)
                assert w.delta[p][i] == lam * e.R[i] + c_inf * (pe * s), f"t={b} p={p} i={i}"


def _window_state(w):
    return (
        set(w.active),
        {p: {i: d.hex() for i, d in ds.items()} for p, ds in w.delta.items()},
        {i: lst for i, lst in w.rl.lists.items() if lst},
        {p: [c.eid for c in kids] for p, kids in w.children.items()},
    )


@pytest.mark.parametrize(
    "profile, n", [(REDDIT, 3000), (AMINER, 2000), (TWITTER, 3000)],
    ids=["reddit-3k", "aminer-2k", "twitter-3k"],
)
def test_rebuilt_window_equals_uninterrupted(profile, n):
    """A_t, δ, every RL_i and I_t depend only on A_t's elements: one
    ``ingest`` of them, in arrival order, rebuilds the uninterrupted
    window bit for bit at every fourth bucket boundary."""
    T, L = 1440, 15
    stream = generate_stream(profile, n_elements=n, z=50, duration=3 * 1440, seed=1)
    elems = build_elements(stream)
    w = ActiveWindow(T=T, lam=profile.lam, eta=profile.eta)
    pos = 0
    for k, b in enumerate(range(L, stream.t_end + L, L)):
        end = pos
        while end < len(elems) and elems[end].ts <= b:
            end += 1
        w.ingest(elems[pos:end], b)
        pos = end
        if b < T or k % 4:
            continue
        rebuilt = ActiveWindow(T=T, lam=profile.lam, eta=profile.eta)
        rebuilt.ingest([e for eid, e in w.store.items() if eid in w.active], b)
        assert _window_state(rebuilt) == _window_state(w), f"t={b}"


def test_monotone_time_enforced(mini_phi):
    w = ActiveWindow(T=5, lam=0.5, eta=2.0)
    w.ingest([], 10)
    with pytest.raises(ValueError):
        w.ingest([], 9)


def test_rejected_bucket_stays_pending(mini_phi):
    """``advance_to`` moves past a bucket only once the window took it, so
    a retry raises again instead of skipping the bucket's elements."""
    st = SIRStream(T=20, L=5, lam=0.5, eta=2.0)
    st.load(_mini_elements(mini_phi, [(e, ts, [0], ([0], [1.0]), []) for e, ts in [(0, 1), (2, 6), (1, 7)]]))
    st.advance_to(5)
    before = (st.t, st.n_ingested, set(st.window.store))
    for _ in range(2):
        with pytest.raises(ValueError, match="element 1"):
            st.advance_to(10)
        assert (st.t, st.n_ingested, set(st.window.store)) == before == (5, 1, {0})


def test_update_time_accounting(stream):
    st = SIRStream(T=TINY_T, L=TINY_L, lam=LAM, eta=ETA)
    st.load(build_elements(stream))
    st.run_all()
    assert st.n_ingested == stream.n
    assert st.update_seconds > 0


def test_max_topics_does_not_fall_when_its_element_expires(mini_phi):
    """The ranked lists' ``max_topics`` is the largest |e.tp| ever
    ingested: it stays a bound when that element expires, and when it is
    re-activated."""
    els = _mini_elements(
        mini_phi,
        [
            (0, 1, [0, 2], ([0, 1], [0.5, 0.5]), []),
            (1, 8, [1], ([0], [1.0]), []),
            (2, 12, [3], ([1], [1.0]), [0]),  # re-activates e0
        ],
    )
    w = ActiveWindow(T=4, lam=0.5, eta=2.0)
    assert w.rl.max_topics == 0
    w.ingest([els[0]], 2)
    assert w.rl.max_topics == 2
    w.ingest([els[1]], 8)
    assert w.active == {1}  # e0 has expired
    assert w.rl.max_topics == 2
    w.ingest([els[2]], 12)
    assert w.active == {0, 2} and w.rl.max_topics == 2
