"""The streaming sink is replay-idempotent.

``foreachBatch`` delivers each micro-batch at least once, so the sink
must skip a bucket the state has already ingested rather than raise.
Here a state is batch-replayed up to mid-stream and then handed the
whole bucket directory: every bucket up to the state's t is one it has
seen, and the result must equal one uninterrupted batch replay.  A
directory whose checkpoint has consumed its buckets is rejected for a
state that has ingested none.
"""
import re

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


@pytest.mark.parametrize("fresh", [False, True], ids=["no-state", "fresh-state"])
def test_consumed_directory_rejects_a_fresh_state(spark, stream, tmp_path, fresh):
    """The checkpoint marks every bucket file as consumed, so a second
    query over the directory from t = 0 would ingest nothing."""
    path = str(tmp_path / "buckets")
    write_buckets(stream, path, SMALL_L)
    first = run_streaming(spark, path, stream.model.phi, SMALL_T, SMALL_L, LAM, ETA)
    assert first.n_ingested == stream.n

    state = SIRStream(T=SMALL_T, L=SMALL_L, lam=LAM, eta=ETA) if fresh else None
    with pytest.raises(ValueError, match=re.escape(path)):
        run_streaming(spark, path, stream.model.phi, SMALL_T, SMALL_L, LAM, ETA, state=state)
    if fresh:
        assert state.t == 0 and state.n_ingested == 0
