"""Distributed dataflow layer (PySpark DataFrame / Catalyst).

Three parts:

* a Structured-Streaming driver (:mod:`repro.spark.streaming`) that
  advances the same :class:`~repro.core.state.SIRStream` bucket by
  bucket — the stream state itself is maintained by
  :mod:`repro.core.window`;
* the Table-6 effectiveness metrics (:mod:`repro.spark.metrics`);
* a test-only oracle (:mod:`repro.spark.scores_df`): Catalyst pipelines
  that re-derive the Alg. 1 state — per-topic scores, window
  membership, influence, ranked lists — independently, so the tests can
  check the incremental state against them.  No program path runs them.
"""
