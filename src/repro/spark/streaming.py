"""Structured-Streaming driver for the k-SIR stream state (Figure 4).

The stream is laid out as one parquet file per bucket (the paper's
batch-processing model with bucket length L); a file-source streaming
query with ``maxFilesPerTrigger=1`` replays it bucket by bucket and a
``foreachBatch`` sink advances the same :class:`~repro.core.state.SIRStream`
the batch harnesses use — so streaming and batch execution are
bit-identical, which the test suite asserts.
"""
from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core.scoring import make_element
from repro.core.state import SIRStream
from repro.corpus.generator import SocialStream

__all__ = ["bucket_schema", "write_buckets", "run_streaming"]

#: bucket columns in ``make_element``'s argument order
_ELEMENT_COLUMNS = ["eid", "ts", "words", "freqs", "topics", "probs", "refs"]


def bucket_schema() -> T.StructType:
    """Schema of the bucketed element stream."""
    return T.StructType(
        [
            T.StructField("eid", T.LongType(), False),
            T.StructField("ts", T.LongType(), False),
            T.StructField("bucket_t", T.LongType(), False),
            T.StructField("words", T.ArrayType(T.LongType()), False),
            T.StructField("freqs", T.ArrayType(T.LongType()), False),
            T.StructField("topics", T.ArrayType(T.LongType()), False),
            T.StructField("probs", T.ArrayType(T.DoubleType()), False),
            T.StructField("refs", T.ArrayType(T.LongType()), False),
        ]
    )


def write_buckets(stream: SocialStream, path: str, L: int) -> int:
    """Write one parquet file per bucket of length ``L``, empty buckets
    included; returns #buckets.

    Files are named by zero-padded bucket time so lexicographic ==
    chronological order for the file source.
    """
    os.makedirs(path, exist_ok=True)
    bounds = range(L, ((stream.t_end + L - 1) // L) * L + 1, L)
    cuts = np.searchsorted(stream.ts, bounds, side="right")
    words = [w for w, _ in stream.docs]
    freqs = [f for _, f in stream.docs]
    lo = 0
    for b, hi in zip(bounds, cuts):
        pd.DataFrame(
            {
                "eid": np.arange(lo, hi, dtype="int64"),
                "ts": stream.ts[lo:hi].astype("int64"),
                "bucket_t": np.full(hi - lo, b, dtype="int64"),
                "words": words[lo:hi],
                "freqs": freqs[lo:hi],
                "topics": stream.topic_ids[lo:hi],
                "probs": stream.topic_probs[lo:hi],
                "refs": stream.refs[lo:hi],
            }
        ).to_parquet(os.path.join(path, f"bucket-{b:012d}.parquet"), index=False)
        lo = hi
    return len(bounds)


def run_streaming(
    spark: SparkSession,
    path: str,
    phi: np.ndarray,
    T_len: int,
    L: int,
    lam: float,
    eta: float,
    state: SIRStream | None = None,
) -> SIRStream:
    """Replay the bucket directory through Structured Streaming.

    Each micro-batch (one file = one bucket under ``maxFilesPerTrigger``)
    is converted back to unscored :class:`Element`s on the driver and fed
    to ``state.ingest_bucket`` in bucket order, whose window scores them; runs with
    ``trigger(availableNow=True)`` until the directory is drained.

    Buckets must arrive in time order: each is ingested in (ts, eid)
    order, the window's arrival contract.  ``foreachBatch`` delivers at
    least once, so a bucket at or before ``state.t`` whose eids the state
    has all ingested (a replayed micro-batch, or a bucket a ``state``
    passed in has already ingested) changes nothing.  Any other bucket at
    or before ``state.t`` arrived late: the sink's ``ValueError`` naming
    it fails the query, so ``awaitTermination`` raises a
    ``StreamingQueryException``, with the state untouched.

    ``ValueError``, before the query starts, if the directory's
    checkpoint has committed micro-batches and the state (fresh when
    none is passed in) has ingested no bucket: the file source would
    skip the consumed buckets and leave the window empty.
    """
    if state is None:
        state = SIRStream(T=T_len, L=L, lam=lam, eta=eta)
    checkpoint = os.path.join(path, "_checkpoint")
    if state.t == 0 and glob.glob(os.path.join(checkpoint, "commits", "*")):  # "*" skips the .crc files
        raise ValueError(f"{path}: its checkpoint has consumed buckets, but the state has ingested none")

    def _sink(batch_df, batch_id: int) -> None:
        pdf = batch_df.toPandas()
        if pdf.empty:
            return
        for b, grp in sorted(pdf.groupby("bucket_t"), key=lambda kv: kv[0]):
            if b <= state.t:
                if state.window.store.keys() >= set(grp["eid"].tolist()):
                    continue
                raise ValueError(f"bucket-{b:012d}: late, the state is already at t = {state.t}")
            # (ts, eid) is a total order: a reply in its parent's minute
            # must still be ingested after the parent it refers to
            rows = grp.sort_values(["ts", "eid"])[_ELEMENT_COLUMNS].itertuples(index=False)
            state.ingest_bucket([make_element(*r, phi) for r in rows], int(b))

    reader = (
        spark.readStream.schema(bucket_schema())
        .option("maxFilesPerTrigger", 1)
        .parquet(path)
    )
    q = (
        reader.writeStream.foreachBatch(_sink)
        .option("checkpointLocation", checkpoint)
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination()
    # trailing empty buckets carry no rows through foreachBatch: slide the
    # window to the final boundary so streaming ≡ batch at end of stream
    last = max(
        (
            int(f.split("-")[1].split(".")[0])
            for f in os.listdir(path)
            if f.startswith("bucket-")
        ),
        default=0,
    )
    if state.t < last:
        state.ingest_bucket([], last)
    return state
