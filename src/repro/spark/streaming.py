"""Structured-Streaming driver for the k-SIR stream state (Figure 4).

The stream is laid out as one parquet file per bucket (the paper's
batch-processing model with bucket length L); a file-source streaming
query with ``maxFilesPerTrigger=1`` replays it bucket by bucket and a
``foreachBatch`` sink advances the same :class:`~repro.core.state.SIRStream`
the batch harnesses use — so streaming and batch execution are
bit-identical, which the test suite asserts.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core.scoring import make_element
from repro.core.state import SIRStream
from repro.corpus.generator import SocialStream

__all__ = ["bucket_schema", "write_buckets", "run_streaming"]


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
    """Write one parquet file per bucket of length ``L``; returns #buckets.

    Files are named by zero-padded bucket time so lexicographic ==
    chronological order for the file source.
    """
    os.makedirs(path, exist_ok=True)
    t_end = ((stream.t_end + L - 1) // L) * L
    n_buckets = 0
    idx = 0
    for b in range(L, t_end + 1, L):
        rows = []
        while idx < stream.n and stream.ts[idx] <= b:
            e = idx
            rows.append(
                {
                    "eid": e,
                    "ts": int(stream.ts[e]),
                    "bucket_t": b,
                    "words": stream.docs[e][0].astype("int64").tolist(),
                    "freqs": stream.docs[e][1].astype("int64").tolist(),
                    "topics": np.asarray(stream.topic_ids[e], dtype="int64").tolist(),
                    "probs": np.asarray(stream.topic_probs[e], dtype="float64").tolist(),
                    "refs": stream.refs[e].astype("int64").tolist(),
                }
            )
            idx += 1
        pdf = pd.DataFrame(rows, columns=[f.name for f in bucket_schema().fields])
        pdf.to_parquet(os.path.join(path, f"bucket-{b:012d}.parquet"), index=False)
        n_buckets += 1
    return n_buckets


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
    is converted back to :class:`Element`s on the driver and fed to
    ``state.ingest_bucket`` in bucket order; runs with
    ``trigger(availableNow=True)`` until the directory is drained.
    """
    if state is None:
        state = SIRStream(T=T_len, L=L, lam=lam, eta=eta)

    def _sink(batch_df, batch_id: int) -> None:
        pdf = batch_df.toPandas()
        if pdf.empty:
            return
        for b, grp in sorted(pdf.groupby("bucket_t"), key=lambda kv: kv[0]):
            # (ts, eid) is a total order: a reply in its parent's minute
            # must still be ingested after the parent it refers to
            elems = [
                make_element(
                    int(r.eid), int(r.ts), np.asarray(r.words, dtype=int),
                    np.asarray(r.freqs, dtype=float), np.asarray(r.topics, dtype=int),
                    np.asarray(r.probs, dtype=float), np.asarray(r.refs, dtype=int), phi,
                )
                for r in grp.sort_values(["ts", "eid"]).itertuples()
            ]
            state.ingest_bucket(elems, int(b))

    reader = (
        spark.readStream.schema(bucket_schema())
        .option("maxFilesPerTrigger", 1)
        .parquet(path)
    )
    q = (
        reader.writeStream.foreachBatch(_sink)
        .option("checkpointLocation", os.path.join(path, "_checkpoint"))
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
