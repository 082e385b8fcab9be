"""The batch scorer ``score_elements`` against the per-element formula.

σ_i(w,e) and R_i(e) used to be computed one element at a time; that
formula is kept here as the oracle.  The batch scorer must reproduce it
bit for bit (σ by bytes, R by ``float.hex``), per bucket as
``ActiveWindow.ingest`` scores and over a whole stream in one call,
and reject bad input before the window changes.
"""
import copy

import numpy as np
import pytest

from repro.core import ActiveWindow, Element, build_elements, make_element, score_elements
from repro.corpus import AMINER, REDDIT, TWITTER, generate_stream

L = 15


def _oracle(words, freqs, topic_ids, topic_probs, phi):
    """The per-element σ/R formula the batch scorer replaced."""
    words = np.asarray(words, dtype=int)
    freqs = np.asarray(freqs, dtype=float)
    sigma, R = {}, {}
    for i, pe in zip(topic_ids, topic_probs):
        pe = float(pe)
        if pe <= 0:
            continue
        i = int(i)
        p = phi[i, words] * pe
        s = np.zeros(len(words))
        nz = p > 0
        s[nz] = -freqs[nz] * p[nz] * np.log(p[nz])
        sigma[i] = s
        R[i] = float(s.sum())
    return sigma, R


def _assert_matches(e, sigma, R):
    assert list(e.sigma) == list(sigma) == list(e.tp) == list(e.R)
    for i in sigma:
        assert e.sigma[i].tobytes() == sigma[i].tobytes(), (e.eid, i)
        assert e.R[i].hex() == R[i].hex(), (e.eid, i)


@pytest.fixture(scope="module", params=[REDDIT, AMINER, TWITTER], ids=lambda p: p.name)
def stream(request):
    return generate_stream(request.param, n_elements=1500, z=12, duration=480, seed=4)


def _oracles(stream):
    phi = stream.model.phi
    return [
        _oracle(stream.docs[e][0], stream.docs[e][1], stream.topic_ids[e], stream.topic_probs[e], phi)
        for e in range(stream.n)
    ]


def test_whole_stream_matches_oracle(stream):
    elems = build_elements(stream)
    assert all(e.sigma is None and e.R is None for e in elems)
    score_elements(elems)
    for e, (sigma, R) in zip(elems, _oracles(stream)):
        _assert_matches(e, sigma, R)


def test_each_bucket_matches_oracle(stream):
    """``build_elements`` records, ``ActiveWindow.ingest`` scores per bucket."""
    raw = build_elements(stream)
    assert all(e.sigma is None and e.R is None for e in raw)
    w = ActiveWindow(T=240, lam=0.5, eta=2.0)
    cuts = np.searchsorted(stream.ts, range(L, stream.t_end + L, L), side="right")
    lo = 0
    for b, hi in enumerate(cuts, start=1):
        w.ingest(raw[lo:hi], b * L)
        lo = hi
    assert lo == stream.n
    for e, (sigma, R) in zip(raw, _oracles(stream)):
        _assert_matches(e, sigma, R)


# -- edge cases -----------------------------------------------------------

@pytest.fixture()
def phi():
    p = np.zeros((3, 5))
    p[0] = [0.4, 0.3, 0.3, 0.0, 0.0]
    p[1] = [0.0, 0.0, 0.5, 0.5, 0.0]
    p[2] = [0.1, 0.2, 0.3, 0.2, 0.2]
    return p


def _el(phi, eid, words, tps, pps, freqs=None, ts=1, refs=()):
    words = np.array(words, dtype=int)
    freqs = np.ones(len(words)) if freqs is None else np.array(freqs, dtype=float)
    return make_element(eid, ts, words, freqs, tps, pps, np.array(refs, dtype=int), phi)


EDGE = [
    ("empty-document", [], [0, 2], [0.6, 0.4]),
    ("zero-probability-topic", [0, 1, 2], [0, 1, 2], [0.7, 0.0, 0.3]),
    ("zero-phi-words", [3, 4, 0], [0], [1.0]),  # φ_0 is 0 on words 3 and 4
    ("no-topics", [0, 1], [], []),
    ("all-topics-dropped", [0, 1], [1, 2], [0.0, -0.5]),
    ("repeated-words", [2, 2, 3], [1, 2], [0.25, 0.75]),
]


@pytest.mark.parametrize("words, tps, pps", [c[1:] for c in EDGE], ids=[c[0] for c in EDGE])
def test_edge_case_matches_oracle(phi, words, tps, pps):
    e = _el(phi, 7, words, tps, pps, freqs=range(1, len(words) + 1))
    score_elements([e])  # a one-element batch
    _assert_matches(e, *_oracle(words, range(1, len(words) + 1), tps, pps, phi))


def test_edge_cases_in_one_batch(phi):
    elems = [_el(phi, k, *c[1:]) for k, c in enumerate(EDGE)]
    score_elements(elems)
    for e, c in zip(elems, EDGE):
        _assert_matches(e, *_oracle(c[1], np.ones(len(c[1])), c[2], c[3], phi))


def test_zero_phi_words_score_positive_zero(phi):
    e = _el(phi, 0, [3, 4, 0], [0], [1.0])
    score_elements([e])
    assert e.sigma[0][:2].tobytes() == np.zeros(2).tobytes()  # +0.0, not −0.0
    assert e.sigma[0][2] > 0


def test_no_topic_element_scores_empty(phi):
    e = _el(phi, 0, [0, 1], [], [])
    score_elements([e])
    assert e.tp == e.sigma == e.R == {}


def test_empty_batch_and_empty_bucket(phi):
    score_elements([])
    w = ActiveWindow(T=10, lam=0.5, eta=2.0)
    w.ingest([], 5)
    assert w.t == 5 and not w.store


def test_scored_element_is_not_rescored(phi):
    e = _el(phi, 0, [0, 1], [0], [1.0])
    score_elements([e])
    sigma = e.sigma
    ActiveWindow(T=10, lam=0.5, eta=2.0).ingest([e], 1)
    assert e.sigma is sigma


def test_sigma_is_a_view_of_the_batch_array(phi):
    elems = [_el(phi, 0, [0, 1], [0, 2], [0.5, 0.5]), _el(phi, 1, [2], [1], [1.0])]
    score_elements(elems)
    base = elems[0].sigma[0].base
    assert base is not None
    assert all(s.base is base for e in elems for s in e.sigma.values())


# -- bad input is rejected before the window changes ----------------------

def _state(w):
    return copy.deepcopy((
        w.t, w._last, sorted(w.store), sorted(w.active), w.delta,
        {i: list(lst) for i, lst in w.rl.lists.items()}, w.rl.max_topics,
        {p: [c.eid for c in kids] for p, kids in w.children.items()},
        [e.eid for e in w._window],
    ))


BAD = [
    ("word-negative", [0, -1], [0], [1.0], None, (), "word id"),
    ("word-past-phi", [5], [0], [1.0], None, (), "word id"),
    ("topic-negative", [0], [-1], [1.0], None, (), "topic -1"),
    ("topic-past-phi", [0], [0, 3], [0.5, 0.5], None, (), "topic 3"),
    ("nan-probability", [0], [0, 1], [0.5, float("nan")], None, (), "not finite"),
    ("inf-probability", [0], [2], [float("inf")], None, (), "not finite"),
    # the batch's γ is one array: a short row would shift every later element's
    ("freqs-shorter-than-words", [0, 1, 2], [0], [1.0], [1.0, 2.0], (), "2 freqs for 3 words"),
    # e.ref is a set of earlier elements: a repeat would count e twice in
    # I_t(p), a self-reference would make e its own child, a forward one
    # would name an element that cannot arrive after e
    ("repeated-ref", [0], [0], [1.0], None, [0, 0], "repeat an eid"),
    ("repeated-ref-among-others", [0], [0], [1.0], None, [1, 0, 1], "repeat an eid"),
    ("repeated-unknown-ref", [0], [0], [1.0], None, [9, 9], "repeat an eid"),
    ("self-ref", [0], [0], [1.0], None, [3], "name itself"),
    ("self-ref-among-others", [0], [0], [1.0], None, [0, 3], "name itself"),
    ("forward-ref", [0], [0], [1.0], None, [0, 4], "a later one"),
]


@pytest.mark.parametrize("words, tps, pps, freqs, refs, msg", [c[1:] for c in BAD], ids=[c[0] for c in BAD])
def test_bad_element_rejected_with_window_untouched(phi, words, tps, pps, freqs, refs, msg):
    w = ActiveWindow(T=10, lam=0.5, eta=2.0)
    w.ingest([_el(phi, 0, [0, 1], [0, 2], [0.5, 0.5]), _el(phi, 1, [2], [1], [1.0])], 2)
    before = _state(w)
    good = _el(phi, 2, [2, 3], [1], [1.0], ts=3, refs=[0])  # would link to e0
    bad = _el(phi, 3, words, tps, pps, freqs=freqs, ts=4, refs=refs)
    after = _el(phi, 4, [1, 2], [0, 1], [0.5, 0.5], freqs=[3.0, 1.0], ts=4)
    with pytest.raises(ValueError, match=rf"element 3: .*{msg}"):
        w.ingest([good, bad, after], 4)
    assert _state(w) == before
    assert good.sigma is None and bad.sigma is None and after.sigma is None


def test_mixed_phi_rejected(phi):
    a, b = _el(phi, 0, [0], [0], [1.0]), _el(phi.copy(), 1, [0], [0], [1.0])
    with pytest.raises(ValueError, match="element 1"):
        score_elements([a, b])
    assert a.sigma is None and b.sigma is None


# -- Element stays a plain slotted record ----------------------------------

def test_element_has_no_per_access_hook():
    """A ``__getattr__`` or ``__getattribute__`` on Element would tax every
    field read in the query loops; its fields are plain slot descriptors."""
    assert "__getattr__" not in vars(Element)
    assert Element.__getattribute__ is object.__getattribute__
    member = type(Element.eid)
    assert member.__name__ == "member_descriptor"
    for name in Element.__slots__:
        assert type(vars(Element)[name]) is member, name
    assert not hasattr(_el(np.ones((1, 1)), 0, [0], [0], [1.0]), "__dict__")
