"""Catalyst score pipelines vs the DuckDB oracle and the driver state.

Every Spark query result is diffed row-for-row against an equivalent
DuckDB SQL query over the same input tables (``assert_equivalent``), and
the end-to-end δ table is additionally required to match the
incrementally maintained driver-side window/ranked-list state.
"""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.spark.scores_df import (
    active_df,
    delta_scores_df,
    influence_scores_df,
    ranked_lists_df,
    semantic_scores_df,
    window_df,
)
from repro.spark.tables import spark_tables

from stream_fixtures import SMALL_T

T = SMALL_T
from repro.corpus import TWITTER
LAM, ETA = TWITTER.lam, TWITTER.eta  # profile constants (tests/conftest SMALL)


@pytest.fixture(scope="module")
def tbl(spark, small_stream):
    d = spark_tables(spark, small_stream)
    for v in d.values():
        v.cache().count()
    return d


@pytest.fixture(scope="module")
def pdfs(small_stream):
    return {
        "elems": small_stream.elems_pdf(),
        "tokens": small_stream.tokens_pdf(),
        "elem_topics": small_stream.elem_topics_pdf(),
        "refs": small_stream.refs_pdf(),
        "topic_words": small_stream.topic_words_pdf(),
    }


def test_semantic_scores_vs_oracle(tbl, pdfs):
    got = semantic_scores_df(tbl["tokens"], tbl["elem_topics"], tbl["topic_words"])
    sql = """
        SELECT t.eid AS eid, tw.topic AS topic,
               SUM(-t.freq * tw.p_w * et.p_e * LN(tw.p_w * et.p_e)) AS r
        FROM tokens t
        JOIN topic_words tw ON t.word = tw.word
        JOIN elem_topics et ON et.eid = t.eid AND et.topic = tw.topic
        GROUP BY t.eid, tw.topic
    """
    assert_equivalent(got, sql, **pdfs)


@pytest.mark.parametrize("t", [240, 300, 480])
def test_window_vs_oracle(tbl, pdfs, t):
    got = window_df(tbl["elems"], t, T)
    sql = f"SELECT eid FROM elems WHERE ts BETWEEN {t - T + 1} AND {t}"
    assert_equivalent(got, sql, **pdfs)


@pytest.mark.parametrize("t", [240, 300, 480])
def test_active_vs_oracle(tbl, pdfs, t):
    got = active_df(tbl["elems"], tbl["refs"], t, T)
    sql = f"""
        SELECT eid FROM elems WHERE ts BETWEEN {t - T + 1} AND {t}
        UNION
        SELECT r.parent AS eid FROM refs r
        JOIN elems c ON r.child = c.eid
        WHERE c.ts BETWEEN {t - T + 1} AND {t}
    """
    assert_equivalent(got, sql, **pdfs)


@pytest.mark.parametrize("t", [240, 360, 480])
def test_influence_vs_oracle(tbl, pdfs, t):
    got = influence_scores_df(tbl["elems"], tbl["refs"], tbl["elem_topics"], t, T)
    sql = f"""
        SELECT et.eid AS eid, et.topic AS topic, et.p_e * s.chsum AS inf
        FROM elem_topics et
        JOIN (
            SELECT r.parent AS eid, ct.topic AS topic, SUM(ct.p_e) AS chsum
            FROM refs r
            JOIN elems c ON r.child = c.eid AND c.ts BETWEEN {t - T + 1} AND {t}
            JOIN elem_topics ct ON ct.eid = r.child
            GROUP BY r.parent, ct.topic
        ) s ON s.eid = et.eid AND s.topic = et.topic
    """
    assert_equivalent(got, sql, **pdfs)


@pytest.mark.parametrize("t", [240, 480])
def test_delta_vs_oracle(tbl, pdfs, t):
    got = delta_scores_df(
        tbl["elems"], tbl["tokens"], tbl["elem_topics"], tbl["topic_words"],
        tbl["refs"], t, T, LAM, ETA,
    )
    sql = f"""
        WITH w AS (SELECT eid FROM elems WHERE ts BETWEEN {t - T + 1} AND {t}),
        act AS (
            SELECT eid FROM w
            UNION
            SELECT r.parent FROM refs r JOIN w ON r.child = w.eid
        ),
        sem AS (
            SELECT t.eid, tw.topic,
                   SUM(-t.freq * tw.p_w * et.p_e * LN(tw.p_w * et.p_e)) AS r
            FROM tokens t
            JOIN topic_words tw ON t.word = tw.word
            JOIN elem_topics et ON et.eid = t.eid AND et.topic = tw.topic
            GROUP BY t.eid, tw.topic
        ),
        inf AS (
            SELECT et.eid, et.topic, et.p_e * s.chsum AS inf
            FROM elem_topics et
            JOIN (
                SELECT r.parent AS eid, ct.topic, SUM(ct.p_e) AS chsum
                FROM refs r
                JOIN w ON r.child = w.eid
                JOIN elem_topics ct ON ct.eid = r.child
                GROUP BY r.parent, ct.topic
            ) s ON s.eid = et.eid AND s.topic = et.topic
        )
        SELECT et.eid AS eid, et.topic AS topic,
               {LAM} * COALESCE(sem.r, 0) + {(1 - LAM) / ETA} * COALESCE(inf.inf, 0) AS delta
        FROM elem_topics et
        JOIN act ON act.eid = et.eid
        LEFT JOIN sem ON sem.eid = et.eid AND sem.topic = et.topic
        LEFT JOIN inf ON inf.eid = et.eid AND inf.topic = et.topic
    """
    assert_equivalent(got, sql, **pdfs)


def test_ranked_lists_rank_vs_oracle(tbl, pdfs):
    t = 480
    delta = delta_scores_df(
        tbl["elems"], tbl["tokens"], tbl["elem_topics"], tbl["topic_words"],
        tbl["refs"], t, T, LAM, ETA,
    )
    got = ranked_lists_df(delta).select("topic", "eid", "rank")
    sql = f"""
        WITH w AS (SELECT eid FROM elems WHERE ts BETWEEN {t - T + 1} AND {t}),
        act AS (
            SELECT eid FROM w
            UNION
            SELECT r.parent FROM refs r JOIN w ON r.child = w.eid
        ),
        sem AS (
            SELECT t.eid, tw.topic,
                   SUM(-t.freq * tw.p_w * et.p_e * LN(tw.p_w * et.p_e)) AS r
            FROM tokens t
            JOIN topic_words tw ON t.word = tw.word
            JOIN elem_topics et ON et.eid = t.eid AND et.topic = tw.topic
            GROUP BY t.eid, tw.topic
        ),
        inf AS (
            SELECT et.eid, et.topic, et.p_e * s.chsum AS inf
            FROM elem_topics et
            JOIN (
                SELECT r.parent AS eid, ct.topic, SUM(ct.p_e) AS chsum
                FROM refs r JOIN w ON r.child = w.eid
                JOIN elem_topics ct ON ct.eid = r.child
                GROUP BY r.parent, ct.topic
            ) s ON s.eid = et.eid AND s.topic = et.topic
        ),
        delta AS (
            SELECT et.eid, et.topic,
                   {LAM} * COALESCE(sem.r, 0) + {(1 - LAM) / ETA} * COALESCE(inf.inf, 0) AS delta
            FROM elem_topics et
            JOIN act ON act.eid = et.eid
            LEFT JOIN sem ON sem.eid = et.eid AND sem.topic = et.topic
            LEFT JOIN inf ON inf.eid = et.eid AND inf.topic = et.topic
        )
        SELECT topic, eid,
               ROW_NUMBER() OVER (PARTITION BY topic ORDER BY delta DESC, eid) AS rank
        FROM delta
    """
    assert_equivalent(got, sql, **pdfs)


def test_delta_matches_driver_state(tbl, small_state):
    """The Catalyst δ table equals the incrementally maintained window."""
    t = small_state.t
    got = delta_scores_df(
        tbl["elems"], tbl["tokens"], tbl["elem_topics"], tbl["topic_words"],
        tbl["refs"], t, T, LAM, ETA,
    ).collect()
    w = small_state.window
    spark_delta = {(r["eid"], r["topic"]): r["delta"] for r in got}
    driver_delta = {
        (eid, i): d for eid, dd in w.delta.items() if eid in w.active
        for i, d in dd.items()
    }
    assert set(spark_delta) == set(driver_delta)
    for key, v in driver_delta.items():
        assert spark_delta[key] == pytest.approx(v, rel=1e-9, abs=1e-12), key


def test_ranked_list_order_matches_driver(tbl, small_state):
    t = small_state.t
    delta = delta_scores_df(
        tbl["elems"], tbl["tokens"], tbl["elem_topics"], tbl["topic_words"],
        tbl["refs"], t, T, LAM, ETA,
    )
    ranked = ranked_lists_df(delta).orderBy("topic", "rank").collect()
    by_topic: dict[int, list[int]] = {}
    for r in ranked:
        by_topic.setdefault(r["topic"], []).append(r["eid"])
    for topic, eids in by_topic.items():
        driver = [eid for eid, _ in small_state.window.rl.items(topic)]
        assert eids == driver, f"topic {topic}"


def test_active_count_matches_driver(tbl, small_state):
    t = small_state.t
    n = active_df(tbl["elems"], tbl["refs"], t, T).count()
    assert n == small_state.window.n_active


def test_tables_nonempty(tbl):
    assert tbl["elems"].count() == 800
    assert tbl["refs"].count() > 0
    assert tbl["topic_words"].where(F.col("p_w") <= 0).count() == 0
