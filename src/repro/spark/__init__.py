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
from repro.spark.scores_df import (
    semantic_scores_df,
    window_df,
    active_df,
    influence_scores_df,
    delta_scores_df,
    ranked_lists_df,
)
from repro.spark.metrics import coverage_scores_df, influence_metric_df

__all__ = [
    "semantic_scores_df",
    "window_df",
    "active_df",
    "influence_scores_df",
    "delta_scores_df",
    "ranked_lists_df",
    "coverage_scores_df",
    "influence_metric_df",
]
