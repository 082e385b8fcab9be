"""Table 6 — quantitative analysis: coverage and influence per method.

The paper samples the result sets of 1K random workload queries per
dataset and reports the average *coverage* (normalised topical coverage)
and *influence* (referrers of S scaled by referrers of the top-k
influential elements).  We run the same protocol at SF-scale with the
query workload of Section 5.1 (1–5 random vocabulary words), evaluating
every query at the shared window snapshot of the replayed stream.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.corpus.generator import Query, SocialStream
from repro.core.state import SIRStream
from repro.eval.common import METHODS, effectiveness_metrics, run_methods
from repro.eval.config import DEFAULTS

__all__ = ["table6_quantitative"]


def table6_quantitative(
    spark: SparkSession,
    stream: SocialStream,
    state: SIRStream,
    queries: list[Query],
    *,
    k: int = DEFAULTS.k,
) -> pd.DataFrame:
    """One dataset's two Table-6 rows: mean coverage / influence per method."""
    results = run_methods(state, queries, k, stream_popularity=stream.popularity)
    cov, inf = effectiveness_metrics(spark, stream, state, queries, results, k)
    cov_m = cov.groupby("method")["coverage"].mean()
    inf_m = inf.groupby("method")["influence"].mean()
    rows = []
    for metric, series in (("Coverage", cov_m), ("Influence", inf_m)):
        row = {"dataset": stream.profile.name, "metric": metric}
        row.update({m: round(float(series.get(m, 0.0)), 4) for m in METHODS})
        rows.append(row)
    return pd.DataFrame(rows)
