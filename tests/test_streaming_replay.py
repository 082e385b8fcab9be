"""The streaming sink is replay-idempotent.

``foreachBatch`` delivers each micro-batch at least once, so the sink
must skip a bucket the state has already ingested rather than raise.
Here a state is batch-replayed up to mid-stream and then handed the
whole bucket directory: every bucket up to the state's t is one it has
seen, and the result must equal one uninterrupted batch replay.
"""
import pytest

from repro.core import SIRStream, build_elements
from repro.corpus import TWITTER, generate_stream
from repro.spark.streaming import run_streaming, write_buckets

from stream_fixtures import SMALL_L, SMALL_T

LAM, ETA = TWITTER.lam, TWITTER.eta
MID = 12 * SMALL_L


@pytest.fixture(scope="module")
def stream():
    return generate_stream(TWITTER, n_elements=300, z=8, duration=360, seed=29)


def test_resumed_stream_equals_batch(spark, stream, tmp_path):
    path = str(tmp_path / "buckets")
    write_buckets(stream, path, SMALL_L)

    batch = SIRStream(T=SMALL_T, L=SMALL_L, lam=LAM, eta=ETA)
    batch.load(build_elements(stream))
    batch.run_all()

    resumed = SIRStream(T=SMALL_T, L=SMALL_L, lam=LAM, eta=ETA)
    resumed.load(build_elements(stream))
    resumed.advance_to(MID)
    assert resumed.t == MID < batch.t
    run_streaming(spark, path, stream.model.phi, SMALL_T, SMALL_L, LAM, ETA, state=resumed)

    assert resumed.t == batch.t
    assert resumed.n_ingested == batch.n_ingested == stream.n
    assert resumed.window.active == batch.window.active
    assert resumed.window.delta == batch.window.delta
    topics = set(batch.window.rl.lists) | set(resumed.window.rl.lists)
    for i in topics:
        assert resumed.window.rl.items(i) == batch.window.rl.items(i), f"topic {i}"
