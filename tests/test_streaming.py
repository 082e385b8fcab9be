"""Structured Streaming driver ≡ batch bucket driver (Figure 4).

The bucketed parquet replay through ``foreachBatch`` must leave the
SIRStream in exactly the state the batch driver produces: same time,
same active set, same δ scores, same ranked-list order — and the
queries processed on top of it must return identical results.
"""
import os

import numpy as np
import pandas as pd
import pytest

from repro.core import SIRStream, build_elements, make_element, mttd, mtts
from repro.corpus import TWITTER, generate_queries, generate_stream
from repro.spark.streaming import bucket_schema, run_streaming, write_buckets

from stream_fixtures import SMALL_L, SMALL_T

PARAMS = dict(n_elements=400, z=10, duration=360, seed=17)
LAM, ETA = TWITTER.lam, TWITTER.eta


@pytest.fixture(scope="module")
def stream():
    return generate_stream(TWITTER, **PARAMS)


@pytest.fixture(scope="module")
def batch_state(stream):
    st = SIRStream(T=SMALL_T, L=SMALL_L, lam=LAM, eta=ETA)
    st.load(build_elements(stream))
    st.run_all()
    return st


@pytest.fixture(scope="module")
def stream_state(spark, stream, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("buckets"))
    n = write_buckets(stream, path, SMALL_L)
    assert n == -(-stream.t_end // SMALL_L)  # one file per bucket
    return run_streaming(spark, path, stream.model.phi, SMALL_T, SMALL_L, LAM, ETA)


def test_bucket_schema_round_trip(spark, stream, tmp_path):
    path = str(tmp_path / "b")
    write_buckets(stream, path, SMALL_L)
    df = spark.read.schema(bucket_schema()).parquet(path)
    assert df.count() == stream.n


def test_same_time_and_active_set(batch_state, stream_state):
    assert stream_state.t == batch_state.t
    assert stream_state.window.active == batch_state.window.active
    assert stream_state.n_ingested == batch_state.n_ingested


def test_same_delta_scores(batch_state, stream_state):
    a, b = batch_state.window, stream_state.window
    assert set(a.delta) == set(b.delta)
    for eid, d in a.delta.items():
        assert d == pytest.approx(b.delta[eid], rel=1e-12, abs=1e-15)


def test_same_ranked_lists(batch_state, stream_state):
    topics = set(batch_state.rl.lists) | set(stream_state.rl.lists)
    for i in topics:
        assert batch_state.rl.items(i) == stream_state.rl.items(i), f"topic {i}"


def test_same_children(batch_state, stream_state):
    for eid in batch_state.window.active:
        a = sorted(c.eid for c in batch_state.window.children_of(eid))
        b = sorted(c.eid for c in stream_state.window.children_of(eid))
        assert a == b


def test_query_results_identical(stream, batch_state, stream_state):
    qs = generate_queries(stream, 6, seed=9, t_min=SMALL_T)
    for q in qs:
        a1, b1 = mtts(batch_state, q, 5), mtts(stream_state, q, 5)
        assert a1.eids == b1.eids and a1.value == pytest.approx(b1.value)
        a2, b2 = mttd(batch_state, q, 5), mttd(stream_state, q, 5)
        assert a2.eids == b2.eids and a2.value == pytest.approx(b2.value)


def test_streaming_element_reconstruction(stream, stream_state):
    """Elements rebuilt from parquet rows carry identical content."""
    ref = {e.eid: e for e in build_elements(stream)}
    got = stream_state.window.store
    assert set(got) == set(ref)
    for eid, e in list(got.items())[:50]:
        r = ref[eid]
        assert e.ts == r.ts
        assert np.array_equal(e.words, r.words)
        assert e.tp == pytest.approx(r.tp)
        assert np.array_equal(e.refs, r.refs)
        for i in e.sigma:
            assert np.allclose(e.sigma[i], r.sigma[i])


def test_same_minute_reply_follows_its_parent(spark, tmp_path):
    """Rows sharing a timestamp are ingested in eid order, so a reply
    posted in the same minute as its parent keeps its reference.

    One bucket holds a reply chain (element i refers to i−1) with every
    row at the same ts: enough tied rows that an unstable sort on ts
    alone reorders them, and any reordering drops a reference.
    """
    n, ts, L, T = 200, 5, 10, 60
    rng = np.random.default_rng(3)
    phi = rng.dirichlet(np.ones(8), size=2)  # 2 topics × 8 words
    rows = [
        {
            "eid": e, "ts": ts, "bucket_t": L,
            "words": [e % 8, (e + 3) % 8], "freqs": [1, 2],
            "topics": [0, 1], "probs": [0.7, 0.3],
            "refs": [e - 1] if e else [],
        }
        for e in range(n)
    ]
    path = str(tmp_path / "buckets")
    os.makedirs(path)
    pd.DataFrame(rows, columns=[f.name for f in bucket_schema().fields]).to_parquet(
        os.path.join(path, f"bucket-{L:012d}.parquet"), index=False
    )
    elems = [
        make_element(r["eid"], r["ts"], np.asarray(r["words"]), np.asarray(r["freqs"], float),
                     r["topics"], r["probs"], np.asarray(r["refs"]), phi)
        for r in rows
    ]
    batch = SIRStream(T=T, L=L, lam=LAM, eta=ETA)
    batch.load(elems)
    batch.run_all()
    streamed = run_streaming(spark, path, phi, T, L, LAM, ETA)

    assert streamed.window.children == batch.window.children
    assert streamed.window.delta == batch.window.delta
