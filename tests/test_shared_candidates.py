"""Shared candidate states in the sieves and the ranked-list stop rule,
checked against an oracle.

MTTS and SieveStreaming run one sieve step, ``Phi.offer``: the OPT
guesses of Φ that hold the same S share one ``CoverageState``, kept as a
run of guesses, and a run is copied only when its guesses diverge; the
ranked-list traversal reads each list head once per pop and stops once
the m heaviest heads fall below the caller's threshold.  None of this
may change an answer.  The oracle below is the plain sieve: every guess
owns its own ``CoverageState``, every candidate scores e itself, and
the scan re-reads every head for each bound and again for the pop.  On
hypothesis-generated streams, queried mid-stream and at the end:

* MTTS, MTTD and Top-k Representative return the eids, in admission
  order, and the ``value.hex()`` of a scan that stops on the paper's
  UB(x) alone, and the ``n_evaluated`` and ``n_retrieved`` of a scan
  that also stops on the m heaviest heads, m counted from scratch;
* SieveStreaming matches its oracle bit for bit;
* after every ``observe`` and ``offer``, Φ's runs partition its guess
  range;
* whenever a scan stops, every active element it left has δ(e,x) below
  the threshold it stopped at.
"""
import contextlib
import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import sieve_streaming, topk_representative
from repro.core import SIRStream, Traversal, make_element, mttd, mtts
from repro.core.query import _EPS, Phi
from repro.core.scoring import CoverageState, singleton_delta

Z, M = 5, 8  # topics and vocabulary of the generated streams


# -- the oracle: one CoverageState per OPT guess -------------------------

def _guess_range(d, k, eps):
    """The j's of Φ for running max ``d``: (1+ε)^j ∈ [d, 2·k·d]."""
    lb = math.log1p(eps)
    j_lo = math.ceil(math.log(d) / lb - 1e-9)
    j_hi = math.floor(math.log(2.0 * k * d) / lb + 1e-9)
    return range(j_lo, j_hi + 1)


def _observe(cands, m, d, k, eps, new):
    """Raise the running max to ``d``; each opened guess gets a new state."""
    if d <= m:
        return m
    js = _guess_range(d, k, eps)
    for j in list(cands):
        if j not in js:
            del cands[j]
    for j in js:
        if j not in cands:
            cands[j] = new()
    return d


def _best(cands):
    best = max(cands.values(), key=lambda c: c.value, default=None)
    return ([], 0.0) if best is None else (list(best.S), best.value)


class _RefScan:
    """Ranked-list scan that re-reads every list head for each bound and
    again for the pop.  With ``m=None`` it stops on the paper's UB(x)
    alone; with an int m also once the m largest heads, summed in
    descending order and widened by 4mu for m ≥ 3 (u = 2⁻⁵³), fall below
    the bound."""

    def __init__(self, rl, topics, weights, m=None):
        self.lists = [(x, rl.lists.get(i, [])) for i, x in zip(topics, weights)]
        self.cur = [0] * len(self.lists)
        self.visited = set()
        self.n_retrieved = 0
        self.m = m

    def _heads(self):
        out = []
        for t, (x, lst) in enumerate(self.lists):
            c = self.cur[t]
            while c < len(lst) and lst[c][1] in self.visited:
                c += 1
            self.cur[t] = c
            if c < len(lst):
                out.append((t, lst[c][1], x * -lst[c][0]))
        return out

    def upper_bound(self):
        ub = 0.0
        for _, _, v in self._heads():
            ub += v
        return ub

    def next_above(self, bound):
        ub = self.upper_bound()
        if ub < bound or ub <= _EPS:
            return None
        if self.m is not None:
            tight = 0.0
            for v in sorted((v for _, _, v in self._heads()), reverse=True)[: self.m]:
                tight += v
            if tight * (1.0 if self.m <= 2 else 1.0 + 4 * self.m * 2.0**-53) < bound:
                return None
        best, best_t, best_v = None, None, -1.0
        for t, eid, v in self._heads():
            if v > best_v:
                best, best_t, best_v = eid, t, v
        if best is None:
            return None
        self.visited.add(best)
        self.cur[best_t] += 1
        self.n_retrieved += 1
        return best


def oracle_mtts(state, topics, weights, k, eps, scan_m=None):
    """Alg. 2 with one CoverageState per guess, over ``_RefScan(scan_m)``."""
    w = state.window
    scan = _RefScan(w.rl, topics, weights, scan_m)
    cands, m = {}, 0.0
    th, n_eval = 0.0, 0
    while (eid := scan.next_above(th)) is not None:
        e = w.store[eid]
        dex = w.delta_x(eid, topics, weights)
        n_eval += 1
        m = _observe(cands, m, dex, k, eps, lambda: CoverageState(w, topics, weights))
        for j, cand in sorted(cands.items()):
            t_j = (1.0 + eps) ** j / (2.0 * k)
            if len(cand.S) == k:
                continue
            if dex < t_j:
                break
            if cand.gain(e) >= t_j:
                cand.add(e)
        opened = [(1.0 + eps) ** j / (2.0 * k) for j, c in sorted(cands.items()) if len(c.S) < k]
        th = opened[0] if opened else math.inf
        if cands and not opened:
            break
    return (*_best(cands), n_eval, scan.n_retrieved)


def oracle_sieve(state, topics, weights, k, eps):
    """SieveStreaming with one CoverageState per guess."""
    w = state.window
    cands, m, n_eval = {}, 0.0, 0
    for eid in sorted(w.active):
        e = w.store[eid]
        d = singleton_delta(e, w, topics, weights)
        n_eval += 1
        if d <= 0:
            continue
        m = _observe(cands, m, d, k, eps, lambda: CoverageState(w, topics, weights))
        for j, cand in cands.items():
            if len(cand.S) >= k:
                continue
            need = ((1.0 + eps) ** j / 2.0 - cand.value) / (k - len(cand.S))
            if cand.gain(e) >= need:
                cand.add(e)
    return (*_best(cands), n_eval, 0)


# -- generated streams -----------------------------------------------------

@st.composite
def streams(draw):
    """(elements, T, L, lam, eta) — a small stream with dense overlap: few
    words and topics, few distinct probabilities, many references.  Each
    stream draws its m from 1–3 and gives each element 1 to m topics, and
    a query draws up to Z = 5, so the scan's m-heaviest-heads rule bites
    at m = 1, 2 and 3.  The elements come from a drawn seed, so a failure
    shrinks in seconds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    phi = rng.choice([0.0, 0.1, 0.2, 0.4], size=(Z, M))
    most = int(rng.integers(1, 4))
    ts, elements = 0, []
    for eid in range(n):
        ts += int(rng.integers(0, 4))
        words = rng.choice(M, size=int(rng.integers(1, 6)), replace=False)
        topics = rng.choice(Z, size=int(rng.integers(1, most + 1)), replace=False)
        refs = rng.choice(eid, size=min(eid, int(rng.integers(0, 4))), replace=False)
        elements.append(make_element(
            eid, ts, words, rng.integers(1, 4, size=len(words)).astype(float),
            topics.tolist(), rng.choice([0.2, 0.5, 1.0], size=len(topics)).tolist(), refs, phi,
        ))
    T = draw(st.sampled_from([6, 12, 40]))
    L = draw(st.sampled_from([2, 3]))
    eta = draw(st.sampled_from([1.0, 4.0]))
    return elements, T, L, 0.5, eta


def _query(draw):
    topics = draw(st.lists(st.integers(0, Z - 1), min_size=1, max_size=Z, unique=True))
    weights = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]),
                            min_size=len(topics), max_size=len(topics)))
    return SimpleNamespace(topics=np.array(topics), weights=np.array(weights))


def _check_runs(phi):
    """Open runs ascending, full runs full, each run's guesses contiguous,
    the runs disjoint and together covering exactly Φ's guess range, and
    only the last open run's state possibly empty."""
    runs = phi.runs + phi.full
    assert all(js == list(range(js[0], js[-1] + 1)) for _, js in runs)
    open_js = [j for _, js in phi.runs for j in js]
    assert open_js == sorted(open_js)
    want = list(_guess_range(phi.m, phi.k, phi.eps)) if phi.m > 0 else []
    assert sorted(j for _, js in runs for j in js) == want
    assert len({id(cand) for cand, _ in runs}) == len(runs)
    assert all(len(cand.S) < phi.k for cand, _ in phi.runs)
    assert all(len(cand.S) == phi.k for cand, _ in phi.full)
    assert all(cand.S for cand, _ in phi.runs[:-1])


@contextlib.contextmanager
def _checking_runs():
    """Run :func:`_check_runs` after every ``Phi.observe`` and ``Phi.offer``."""
    saved = Phi.observe, Phi.offer

    def checked(fn):
        def wrapper(phi, *args):
            fn(phi, *args)
            _check_runs(phi)
        return wrapper

    Phi.observe, Phi.offer = (checked(fn) for fn in saved)
    try:
        yield
    finally:
        Phi.observe, Phi.offer = saved


@contextlib.contextmanager
def _scanning(module, m):
    """Run the algorithm in ``module`` over a ``_RefScan(m)`` instead of
    its ``Traversal``."""
    mod = importlib.import_module(module)
    saved = mod.Traversal
    mod.Traversal = lambda rl, topics, weights: _RefScan(rl, topics, weights, m)
    try:
        yield
    finally:
        mod.Traversal = saved


def _tuple(r):
    return r.eids, r.value.hex(), r.n_evaluated, r.n_retrieved


def _answers(state, q, k, eps):
    topics = [int(i) for i in q.topics]
    weights = [float(x) for x in q.weights]
    # m from scratch: the most topics of any element ingested so far.  An
    # expired element may be re-activated, so the window's m counts it too.
    m = max((len(e.tp) for e in state.window.store.values()), default=0)
    with _checking_runs():
        got_mtts = mtts(state, q, k, eps)
        got_sieve = sieve_streaming(state, q, k, eps)
    full = oracle_mtts(state, topics, weights, k, eps)
    tight = oracle_mtts(state, topics, weights, k, eps, m)
    assert _tuple(got_mtts) == (full[0], full[1].hex(), tight[2], tight[3])
    want = oracle_sieve(state, topics, weights, k, eps)
    assert _tuple(got_sieve) == (want[0], want[1].hex(), want[2], want[3])
    for module, run in (
        ("repro.core.mttd", lambda: mttd(state, q, k, eps)),
        ("repro.baselines.topk_repr", lambda: topk_representative(state, q, k)),
    ):
        got = _tuple(run())
        with _scanning(module, None):
            full = _tuple(run())
        with _scanning(module, m):
            tight = _tuple(run())
        assert got == full[:2] + tight[2:]


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("k", [1, 2, 3, 10])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sieves_match_one_state_per_guess_oracle(k, eps, data):
    elements, T, L, lam, eta = data.draw(streams())
    state = SIRStream(T=T, L=L, lam=lam, eta=eta)
    state.load(elements)
    mid = elements[len(elements) // 2].ts
    state.advance_to(mid)  # mid-stream: part of the stream still pending
    _answers(state, _query(data.draw), k, eps)
    state.run_all()
    _answers(state, _query(data.draw), k, eps)


@contextlib.contextmanager
def _recording_stops():
    """Yield a list that gets (bound, visited eids) each time a scan stops."""
    stops = []
    saved = Traversal.next_above

    def next_above(trav, bound):
        eid = saved(trav, bound)
        if eid is None:
            stops.append((bound, set(trav.visited)))
        return eid

    Traversal.next_above = next_above
    try:
        yield stops
    finally:
        Traversal.next_above = saved


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scans_leave_only_elements_below_their_threshold(data):
    """When MTTS, MTTD or Top-k stops a scan at threshold b, every active
    element it has not retrieved has δ(e,x) < b, or δ(e,x) ≤ _EPS where
    UB(x) reached the zero floor: the stop rule never skips an element
    the threshold would admit."""
    elements, T, L, lam, eta = data.draw(streams())
    state = SIRStream(T=T, L=L, lam=lam, eta=eta)
    state.load(elements)
    state.advance_to(data.draw(st.integers(elements[0].ts, elements[-1].ts + L)))
    q = _query(data.draw)
    k = data.draw(st.sampled_from([1, 2, 3, 10]))
    w = state.window
    topics = [int(i) for i in q.topics]
    weights = [float(x) for x in q.weights]
    for run in (lambda: mtts(state, q, k, 0.1), lambda: mttd(state, q, k, 0.1),
                lambda: topk_representative(state, q, k)):
        with _recording_stops() as stops:
            run()
        for bound, visited in stops:
            for eid in w.active - visited:
                d = w.delta_x(eid, topics, weights)
                assert d < bound or d <= _EPS, (eid, d, bound)


def test_sieves_match_oracle_on_small_stream(small_state, small_queries):
    """The same check on the golden-answer stream, at the k and ε where
    candidates diverge most, with the sharing path demonstrably taken."""
    copies = []
    orig = CoverageState.copy

    def counting_copy(self):
        copies.append(self)
        return orig(self)

    CoverageState.copy = counting_copy
    try:
        for q in small_queries:
            for eps in (0.1, 0.5):
                _answers(small_state, q, 3, eps)
    finally:
        CoverageState.copy = orig
    assert copies  # some candidates diverged and were split off a shared state


# -- the pieces -------------------------------------------------------------

def test_phi_shares_empty_state_and_splits_a_prefix(small_state, small_queries):
    q = small_queries[0]
    topics = [int(i) for i in q.topics]
    weights = [float(x) for x in q.weights]
    w = small_state.window
    phi = Phi(3, 0.1, lambda: CoverageState(w, topics, weights))
    active = sorted(w.active, key=lambda eid: -w.delta_x(eid, topics, weights))
    e1, e2, e3 = (w.store[eid] for eid in active[:3])
    phi.observe(w.delta_x(e1.eid, topics, weights))
    [(empty, js)] = phi.runs  # every guess shares one empty state
    assert empty.S == [] and phi.full == []
    js = list(js)

    def only(admitting):
        return lambda j, cand: 0.0 if admitting(j, cand) else math.inf

    phi.offer(e1, only(lambda j, cand: j < js[2]))
    (s1, js1), (rest, js2) = phi.runs
    assert s1 is not empty and s1.S == [e1.eid]
    assert rest is empty and empty.S == [] and empty.value == 0.0  # the refusing guesses stay empty
    assert (js1, js2) == (js[:2], js[2:])

    value = s1.value
    phi.offer(e2, only(lambda j, cand: cand is s1))  # every guess of s1 admits: in place
    assert [cand for cand, _ in phi.runs] == [s1, empty]
    assert s1.S == [e1.eid, e2.eid] and s1.value > value
    assert phi.runs[0][1] == js[:2]

    phi.offer(e3, only(lambda j, cand: True), cap=-1.0)  # the first guess needs more than cap
    assert s1.S == [e1.eid, e2.eid] and empty.S == []

    phi.offer(e3, only(lambda j, cand: cand is s1))  # s1 fills and leaves the open runs
    assert phi.full == [[s1, js[:2]]] and phi.runs == [[empty, js[2:]]]
    assert phi.best() is s1

    phi.observe(phi.guess(js[1]))  # guesses drop off full runs too ...
    assert phi.full == [[s1, js[1:2]]]
    assert phi.runs == [[empty, js[2:] + [js[-1] + 1]]]  # ... and opened ones join the empty state
    phi.observe(2 * phi.m)
    assert phi.full == [] and phi.runs[-1][0] is empty and len(phi.runs) == 1
    assert phi.runs[-1][1][-1] > js[-1] + 1
    _check_runs(phi)
