"""Social-stream generator: shape fidelity to the Table-3 profiles.

Timestamps ordered, references strictly backwards, topical sparsity
(< 2 topics/element on average), document lengths and reference counts
near the profile's statistics, determinism, and the long-table views the
Spark layer consumes.
"""
import numpy as np
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
