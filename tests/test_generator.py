"""Social-stream generator: shape fidelity to the Table-3 profiles.

Timestamps ordered, references strictly backwards, topical sparsity
(< 2 topics/element on average), document lengths and reference counts
near the profile's statistics, determinism, and the long-table views the
Spark layer consumes.  Pinned digests hold the generated streams and
queries to the exact values of the per-element reference generator.
"""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.corpus import AMINER, PROFILES, REDDIT, TWITTER, generate_queries, generate_stream


@pytest.fixture(scope="module", params=["aminer", "reddit", "twitter"])
def stream(request):
    return generate_stream(PROFILES[request.param], n_elements=1500, z=20, duration=1440, seed=4)


def test_timestamps_sorted(stream):
    assert (np.diff(stream.ts) >= 0).all()
    assert stream.ts[0] >= 1


def test_refs_point_backwards(stream):
    for e in range(stream.n):
        assert all(p < e for p in stream.refs[e])
        assert len(set(stream.refs[e].tolist())) == len(stream.refs[e])


def test_topic_sparsity(stream):
    n_topics = [len(t) for t in stream.topic_ids]
    assert max(n_topics) <= 2
    assert np.mean(n_topics) < 2.0  # "average topics per element < 2"
    for probs in stream.topic_probs:
        assert np.asarray(probs).sum() == pytest.approx(1.0)


def test_avg_doc_length_near_profile(stream):
    tokens = np.array([float(f.sum()) for _, f in stream.docs])
    assert tokens.mean() == pytest.approx(stream.profile.avg_len, rel=0.25)
    assert tokens.min() >= 1


def test_avg_refs_near_profile(stream):
    refs = np.array([len(r) for r in stream.refs])
    assert refs.mean() == pytest.approx(stream.profile.avg_refs, rel=0.3)


def test_doc_words_within_vocab(stream):
    m = stream.model.m
    for w, f in stream.docs:
        assert (w >= 0).all() and (w < m).all()
        assert (f >= 1).all()
        assert len(np.unique(w)) == len(w)  # distinct words with frequencies


def test_deterministic():
    a = generate_stream(TWITTER, n_elements=300, z=8, duration=300, seed=9)
    b = generate_stream(TWITTER, n_elements=300, z=8, duration=300, seed=9)
    assert np.array_equal(a.ts, b.ts)
    for e in range(a.n):
        assert np.array_equal(a.docs[e][0], b.docs[e][0])
        assert np.array_equal(a.refs[e], b.refs[e])
        assert np.array_equal(a.topic_ids[e], b.topic_ids[e])


def test_profiles_table3_constants():
    """The profile registry encodes Table 3 of the paper."""
    assert AMINER.n_elements_base == 1_660_000 and AMINER.avg_refs == 3.68
    assert REDDIT.n_elements_base == 20_200_000 and REDDIT.avg_len == 8.6
    assert TWITTER.n_elements_base == 14_800_000 and 0 < TWITTER.eta < 1  # recalibrated η
    assert set(PROFILES) == {"aminer", "reddit", "twitter"}


def test_vocab_scaling_capped():
    assert AMINER.vocab_size(1.0) == 71_000
    assert AMINER.vocab_size(1e-4) >= 300


def test_long_table_views(stream):
    tok = stream.tokens_pdf()
    et = stream.elem_topics_pdf()
    refs = stream.refs_pdf()
    elems = stream.elems_pdf()
    assert len(elems) == stream.n
    assert tok["freq"].min() >= 1
    assert len(tok) == sum(len(d[0]) for d in stream.docs)
    assert len(et) == sum(len(t) for t in stream.topic_ids)
    assert len(refs) == sum(len(r) for r in stream.refs)
    tw = stream.topic_words_pdf()
    assert (tw.groupby("topic")["p_w"].sum() - 1.0).abs().max() < 1e-9


def test_generate_queries_contract(stream):
    qs = generate_queries(stream, 15, seed=2, t_min=200)
    assert len(qs) == 15
    for q in qs:
        assert 1 <= len(q.keywords) <= 5
        assert len(q.topics) == len(q.weights) > 0
        assert q.weights.sum() == pytest.approx(1.0)
        assert 200 <= q.ts <= stream.t_end


def test_generate_stream_requires_size():
    with pytest.raises(TypeError):
        generate_stream(AMINER, z=8, duration=300, seed=0)


def test_score_skew(stream):
    """Heavy-tailed doc lengths induce the paper's score skew."""
    tokens = np.array([float(f.sum()) for _, f in stream.docs])
    assert tokens.max() > 5 * np.median(tokens)


def _put(h, a):
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _stream_digest(s) -> str:
    h = hashlib.sha256()
    _put(h, s.ts)
    _put(h, s.popularity)
    for e in range(s.n):
        for a in (*s.docs[e], s.topic_ids[e], s.topic_probs[e], s.refs[e]):
            _put(h, a)
    return h.hexdigest()[:16]


def _query_digest(qs) -> str:
    h = hashlib.sha256()
    for q in qs:
        for a in (q.keywords, q.topics, q.weights, np.int64(q.ts)):
            _put(h, a)
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "profile,n,z,duration,seed,digest",
    [
        ("aminer", 0, 8, 30, 1, "f90ba7db310cbfa8"),
        ("twitter", 1, 8, 30, 3, "ab16c640c2bba089"),
        ("reddit", 1, 20, 1440, 5, "97a3065556f69e54"),
        ("reddit", 500, 2, 1, 9, "f7564423f1102a4b"),
        ("aminer", 700, 20, 1440, 4, "bd818845df9ead20"),
        ("twitter", 1500, 8, 300, 7919, "5a00042d7171717f"),
        ("reddit", 2000, 50, 4320, 1, "92adbf1d2480aaab"),
        ("aminer", 3000, 50, 4320, 5, "efcd6c0fa97f2f38"),
    ],
)
def test_stream_digest_pinned(profile, n, z, duration, seed, digest):
    """Every draw of the generator is pinned: ``ts``, ``popularity`` and
    each element's words, freqs, topic ids, topic probs and refs, values
    and dtypes, hash to the digests the per-element generator produced
    at commit ``8e4a252``.  The bulk token → topic draw relies on how
    ``Generator.choice`` (replace=True, with ``p``) turns uniforms into
    indices, so a NumPy upgrade that changes it fails here."""
    s = generate_stream(PROFILES[profile], n_elements=n, z=z, duration=duration, seed=seed)
    assert _stream_digest(s) == digest


@pytest.mark.parametrize(
    "profile,n,z,duration,seed,n_q,q_seed,t_min,digest",
    [
        ("reddit", 2000, 50, 4320, 1, 20, 3, 60, "7abfbc93d7975205"),
        ("aminer", 700, 20, 1440, 4, 12, 8, 240, "ee4dcde73307afec"),
        ("twitter", 1500, 8, 300, 7919, 10, 2, 0, "5f911c080e0528cc"),
    ],
)
def test_query_digest_pinned(profile, n, z, duration, seed, n_q, q_seed, t_min, digest):
    """Query keywords, topics, weights and ts hash to the digests
    captured at commit ``8e4a252``."""
    s = generate_stream(PROFILES[profile], n_elements=n, z=z, duration=duration, seed=seed)
    assert _query_digest(generate_queries(s, n_q, seed=q_seed, t_min=t_min)) == digest


def test_generate_queries_on_few_used_words():
    """A stream that uses fewer than 5 distinct words still yields
    queries: the keyword count is capped at the number of used words."""
    s = generate_stream(TWITTER, n_elements=1, z=8, duration=30, seed=3)
    used = set(s.docs[0][0].tolist())
    assert len(used) < 5
    qs = generate_queries(s, 10, seed=0, t_min=1)
    assert len(qs) == 10
    for q in qs:
        assert 1 <= len(q.keywords) <= len(used)
        assert set(q.keywords.tolist()) <= used


def test_generate_queries_rejects_words_without_topical_mass():
    """A stream whose only word (288, a noise word) lies outside every
    topic's support cannot yield a query: raise instead of redrawing
    forever."""
    s = generate_stream(TWITTER, n_elements=1, z=8, duration=30, seed=1874)
    assert not s.model.phi[:, s.docs[0][0]].any()
    with pytest.raises(ValueError, match="topical mass"):
        generate_queries(s, 1, seed=0, t_min=1)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        (dict(n_elements=10, z=1, duration=30), "z"),
        (dict(n_elements=10, z=0, duration=30), "z"),
        (dict(n_elements=10, z=8, duration=0), "duration"),
        (dict(n_elements=10, z=8, duration=-5), "duration"),
        (dict(n_elements=-1, z=8, duration=30), "n_elements"),
    ],
)
def test_generate_stream_rejects_bad_arguments(kwargs, name):
    with pytest.raises(ValueError, match=name):
        generate_stream(TWITTER, seed=0, **kwargs)


def test_long_table_views_match_per_element_construction(stream):
    """The long tables equal a per-element construction, dtypes included."""
    tok, et, refs = [], [], []
    for e in range(stream.n):
        w, f = stream.docs[e]
        tok += [(e, int(a), int(b)) for a, b in zip(w, f)]
        et += [(e, int(i), float(p)) for i, p in zip(stream.topic_ids[e], stream.topic_probs[e])]
        refs += [(e, int(p)) for p in stream.refs[e]]
    pd.testing.assert_frame_equal(
        stream.tokens_pdf(), pd.DataFrame(tok, columns=["eid", "word", "freq"])
    )
    pd.testing.assert_frame_equal(
        stream.elem_topics_pdf(), pd.DataFrame(et, columns=["eid", "topic", "p_e"])
    )
    pd.testing.assert_frame_equal(
        stream.refs_pdf(), pd.DataFrame(refs, columns=["child", "parent"])
    )
