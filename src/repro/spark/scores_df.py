"""Catalyst pipelines for k-SIR stream state (Sections 3–4.1).

Input tables (long/normalised, from
:class:`repro.corpus.generator.SocialStream`):

* ``elems(eid, ts)``
* ``tokens(eid, word, freq)`` — distinct words with frequencies
* ``elem_topics(eid, topic, p_e)`` — non-zero topic probabilities
* ``refs(child, parent)``
* ``topic_words(topic, word, p_w)`` — non-zero topic-word probabilities

Each function returns a DataFrame; every one is verified row-for-row
against an equivalent DuckDB SQL query by the test suite (the
``assert_equivalent`` oracle), and against the driver-side incremental
state.  Only the tests run them: they are an independent re-derivation
of the Alg. 1 state that :mod:`repro.core.window` maintains.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

__all__ = [
    "semantic_scores_df",
    "window_df",
    "active_df",
    "influence_scores_df",
    "delta_scores_df",
    "ranked_lists_df",
]


def semantic_scores_df(
    tokens: DataFrame, elem_topics: DataFrame, topic_words: DataFrame
) -> DataFrame:
    """R_i(e) per (eid, topic): Σ_w −γ(w,e)·p_i(w,e)·ln p_i(w,e) (Eq. 3).

    tokens ⋈ topic_words on word, ⋈ elem_topics on (eid, topic) keeps
    exactly the (eid, topic, word) combinations with p_i(w,e) > 0.
    """
    joined = (
        tokens.join(topic_words, "word")
        .join(elem_topics, ["eid", "topic"])
        .withColumn("p", F.col("p_w") * F.col("p_e"))
    )
    return (
        joined.withColumn("sigma", -F.col("freq") * F.col("p") * F.log(F.col("p")))
        .groupBy("eid", "topic")
        .agg(F.sum("sigma").alias("r"))
    )


def window_df(elems: DataFrame, t: int, T: int) -> DataFrame:
    """W_t: eids with ts ∈ [t−T+1, t]."""
    return elems.where((F.col("ts") >= t - T + 1) & (F.col("ts") <= t)).select("eid")


def active_df(elems: DataFrame, refs: DataFrame, t: int, T: int) -> DataFrame:
    """A_t = W_t ∪ {parents referred to by an element of W_t}."""
    w = window_df(elems, t, T)
    parents = (
        refs.join(w.withColumnRenamed("eid", "child"), "child")
        .select(F.col("parent").alias("eid"))
    )
    return w.union(parents).distinct()


def influence_scores_df(
    elems: DataFrame, refs: DataFrame, elem_topics: DataFrame, t: int, T: int
) -> DataFrame:
    """Singleton I_{i,t}(e) per (parent eid, topic) over in-window children.

    I_{i,t}(e) = Σ_{c ∈ I_t(e)} p_i(e)·p_i(c)
               = p_i(e) · Σ_{c ∈ I_t(e)} p_i(c)  (Eq. 4 for |S| = 1).
    """
    w_children = refs.join(
        window_df(elems, t, T).withColumnRenamed("eid", "child"), "child"
    )
    child_topics = elem_topics.select(
        F.col("eid").alias("child"), "topic", F.col("p_e").alias("p_c")
    )
    chsum = (
        w_children.join(child_topics, "child")
        .groupBy(F.col("parent").alias("eid"), "topic")
        .agg(F.sum("p_c").alias("chsum"))
    )
    return (
        elem_topics.join(chsum, ["eid", "topic"])
        .select("eid", "topic", (F.col("p_e") * F.col("chsum")).alias("inf"))
    )


def delta_scores_df(
    elems: DataFrame,
    tokens: DataFrame,
    elem_topics: DataFrame,
    topic_words: DataFrame,
    refs: DataFrame,
    t: int,
    T: int,
    lam: float,
    eta: float,
) -> DataFrame:
    """δ_i(e) = λ·R_i(e) + (1−λ)/η·I_{i,t}(e) for every active element.

    Full outer join of the semantic and influence components on
    (eid, topic), restricted to A_t; an element appears on a topic iff
    p_i(e) > 0 (Alg. 1 line 5), even when both components are zero.
    """
    act = active_df(elems, refs, t, T)
    sem = semantic_scores_df(tokens, elem_topics, topic_words)
    inf = influence_scores_df(elems, refs, elem_topics, t, T)
    base = elem_topics.join(act, "eid").select("eid", "topic")
    return (
        base.join(sem, ["eid", "topic"], "left")
        .join(inf, ["eid", "topic"], "left")
        .fillna(0.0, subset=["r", "inf"])
        .select(
            "eid",
            "topic",
            (F.lit(lam) * F.col("r") + F.lit((1.0 - lam) / eta) * F.col("inf")).alias(
                "delta"
            ),
        )
    )


def ranked_lists_df(delta: DataFrame) -> DataFrame:
    """RL_i as a DataFrame: rank within each topic by descending δ_i(e).

    Ties broken by eid so the ordering is total and deterministic —
    identical to the driver-side ``RankedLists`` key (−δ, eid).
    """
    w = Window.partitionBy("topic").orderBy(F.col("delta").desc(), F.col("eid"))
    return delta.withColumn("rank", F.row_number().over(w))
