"""Synthetic topic-model substrate: oracle contract of Section 3.1.

Each topic must be a proper distribution over the vocabulary, supports
must be sparse and overlapping, inference must produce sparse normalised
query vectors, and everything must be deterministic in the seed.
"""
import numpy as np
import pytest

from repro.topics import TopicModel


@pytest.mark.parametrize("z,m", [(5, 200), (20, 1000), (50, 3000)])
def test_rows_are_distributions(z, m):
    tm = TopicModel(z, m, seed=3)
    s = tm.phi.sum(axis=1)
    assert np.allclose(s, 1.0)
    assert (tm.phi >= 0).all()


@pytest.mark.parametrize("z,m", [(10, 500), (30, 2000)])
def test_supports_sparse_and_overlapping(z, m):
    tm = TopicModel(z, m, seed=1)
    nnz = (tm.phi > 0).sum(axis=1)
    assert (nnz < m).all()  # sparse per topic
    assert (nnz == nnz[0]).all()  # equal support sizes
    # most words are covered by at least one topic at these sizes
    assert ((tm.phi > 0).any(axis=0)).mean() > 0.5


def test_zipf_within_topic():
    tm = TopicModel(4, 500, seed=2)
    for i in range(4):
        p = np.sort(tm.phi[i][tm.phi[i] > 0])[::-1]
        assert p[0] > 5 * p[-1]  # heavy head


def test_deterministic_in_seed():
    a = TopicModel(8, 400, seed=9)
    b = TopicModel(8, 400, seed=9)
    c = TopicModel(8, 400, seed=10)
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)


def test_infer_normalised_and_sparse():
    tm = TopicModel(30, 2000, seed=5)
    g = np.random.default_rng(0)
    for _ in range(10):
        words = g.choice(2000, size=4, replace=False)
        ids, wts = tm.infer(words)
        if len(ids) == 0:
            continue
        assert wts.sum() == pytest.approx(1.0)
        assert (wts > 0).all()
        assert len(ids) <= 8  # max_topics truncation
        assert len(set(ids.tolist())) == len(ids)


def test_infer_single_topic_word():
    """A word unique to one topic must yield that topic."""
    tm = TopicModel(10, 500, seed=6)
    counts = (tm.phi > 0).sum(axis=0)
    unique_words = np.nonzero(counts == 1)[0]
    assert len(unique_words) > 0
    w = int(unique_words[0])
    expected = int(np.nonzero(tm.phi[:, w])[0][0])
    ids, wts = tm.infer(np.array([w]))
    assert ids.tolist() == [expected]
    assert wts[0] == pytest.approx(1.0)


def test_infer_no_mass():
    tm = TopicModel(3, 100, seed=7, support=10)
    dead = np.nonzero((tm.phi > 0).sum(axis=0) == 0)[0]
    if len(dead):
        ids, wts = tm.infer(dead[:2])
        assert len(ids) == 0 and len(wts) == 0


def test_invalid_args():
    with pytest.raises(ValueError):
        TopicModel(0, 100)
    with pytest.raises(ValueError):
        TopicModel(5, 1)
