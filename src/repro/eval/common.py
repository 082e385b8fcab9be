"""Shared harness pieces for the effectiveness tables (5 and 6).

Runs the five compared methods (TF-IDF, DIV, Sumblr, REL, k-SIR) over a
query batch at one window snapshot and assembles the long tables the
Spark metric pipelines consume.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines import div_topk, keyword_index, rel_topk, sumblr, tfidf_topk
from repro.core import SIRStream, build_elements, mttd
from repro.corpus.generator import Query, SocialStream
from repro.spark.metrics import coverage_scores_df, influence_metric_df
from repro.spark.tables import spark_tables

__all__ = ["METHODS", "build_state", "run_methods", "effectiveness_metrics"]

METHODS = ("TF-IDF", "DIV", "Sumblr", "REL", "k-SIR")


def build_state(stream: SocialStream, T: int, L: int) -> SIRStream:
    """Materialise and fully replay a stream into a SIRStream."""
    st = SIRStream(T=T, L=L, lam=stream.profile.lam, eta=stream.profile.eta)
    st.load(build_elements(stream))
    st.run_all()
    return st


def run_methods(
    state: SIRStream, queries: list[Query], k: int, stream_popularity
) -> pd.DataFrame:
    """Result sets of all five methods: long table (qid, method, eid).

    Keyword methods receive the keywords, topic-space methods the query
    vector — the paper's fair-comparison protocol (Section 5.1).  The
    keyword methods share one keyword index of the snapshot's A_t.
    ``stream_popularity`` (per-eid author quality) feeds Sumblr's
    author-PageRank stand-in.
    """
    rows = []
    author = {eid: float(s) for eid, s in enumerate(stream_popularity)}
    index = keyword_index(state.window)
    for qid, q in enumerate(queries):
        per = {
            "TF-IDF": tfidf_topk(index, q.keywords, k),
            "DIV": div_topk(index, q.keywords, k),
            "Sumblr": sumblr(index, q.keywords, k, author_score=author),
            "REL": rel_topk(state, q, k),
            "k-SIR": mttd(state, q, k).eids,
        }
        for m, eids in per.items():
            for eid in eids:
                rows.append({"qid": qid, "method": m, "eid": int(eid)})
    return pd.DataFrame(rows, columns=["qid", "method", "eid"])


def effectiveness_metrics(
    spark: SparkSession,
    stream: SocialStream,
    state: SIRStream,
    queries: list[Query],
    results: pd.DataFrame,
    k: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(coverage, influence) per (qid, method) via the Catalyst pipelines.

    Every (qid, method) pair gets a row: a method that returned no
    element for a query scores 0 on both.
    """
    t = spark_tables(spark, stream)
    active = spark.createDataFrame(
        pd.DataFrame({"eid": sorted(state.window.active)})
    )
    q_rows = [
        {"qid": qid, "topic": int(i), "x": float(x)}
        for qid, q in enumerate(queries)
        for i, x in zip(q.topics, q.weights)
    ]
    queries_df = spark.createDataFrame(pd.DataFrame(q_rows))
    results_df = spark.createDataFrame(results)
    cov = coverage_scores_df(
        t["elem_topics"], t["tokens"], active, queries_df, results_df
    ).toPandas()
    inf = influence_metric_df(
        t["elems"], t["refs"], active, results_df, state.t, state.window.T, k
    ).toPandas()
    base = pd.MultiIndex.from_product(
        [range(len(queries)), METHODS], names=["qid", "method"]
    ).to_frame(index=False)
    cov = base.merge(cov, on=["qid", "method"], how="left").fillna({"coverage": 0.0})
    inf = base.merge(inf, on=["qid", "method"], how="left").fillna({"influence": 0.0})
    return cov, inf
