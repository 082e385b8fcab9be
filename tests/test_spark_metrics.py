"""Table-6 metric pipelines vs the DuckDB oracle.

The coverage and influence metrics are full Catalyst pipelines (joins +
window-restricted aggregations); each is diffed row-for-row against an
equivalent DuckDB SQL query over the same inputs.
"""
import pandas as pd
import pytest

from repro.corpus import generate_queries
from repro.eval.common import run_methods
from repro.oracle import assert_equivalent
from repro.spark.metrics import coverage_scores_df, influence_metric_df
from repro.spark.tables import spark_tables

from stream_fixtures import SMALL_T

K = 5


@pytest.fixture(scope="module")
def setup(spark, small_stream, small_state):
    queries = generate_queries(small_stream, 6, seed=41, t_min=SMALL_T)
    results = run_methods(small_state, queries, K, small_stream.popularity)
    tbl = spark_tables(spark, small_stream)
    active_pdf = pd.DataFrame({"eid": sorted(small_state.window.active)})
    q_pdf = pd.DataFrame(
        [
            {"qid": qid, "topic": int(i), "x": float(x)}
            for qid, q in enumerate(queries)
            for i, x in zip(q.topics, q.weights)
        ]
    )
    return {
        "tbl": tbl,
        "queries_df": spark.createDataFrame(q_pdf),
        "results_df": spark.createDataFrame(results),
        "active_df": spark.createDataFrame(active_pdf),
        "pdfs": {
            "elems": small_stream.elems_pdf(),
            "tokens": small_stream.tokens_pdf(),
            "elem_topics": small_stream.elem_topics_pdf(),
            "refs": small_stream.refs_pdf(),
            "queries": q_pdf,
            "results": results,
            "active": active_pdf,
        },
        "state": small_state,
    }


def test_coverage_vs_oracle(setup):
    got = coverage_scores_df(
        setup["tbl"]["elem_topics"], setup["tbl"]["tokens"], setup["active_df"],
        setup["queries_df"], setup["results_df"],
    )
    sql = """
        WITH act_et AS (
            SELECT et.eid, et.topic, et.p_e
            FROM elem_topics et JOIN active a ON a.eid = et.eid
        ),
        e_norm AS (SELECT eid, SQRT(SUM(p_e*p_e)) AS en FROM act_et GROUP BY eid),
        q_norm AS (SELECT qid, SQRT(SUM(x*x)) AS qn FROM queries GROUP BY qid),
        rel AS (
            SELECT q.qid, t.eid, SUM(t.p_e * q.x) / (MAX(en.en) * MAX(qn.qn)) AS rel
            FROM act_et t
            JOIN queries q ON q.topic = t.topic
            JOIN e_norm en ON en.eid = t.eid
            JOIN q_norm qn ON qn.qid = q.qid
            GROUP BY q.qid, t.eid
        ),
        act_tok AS (
            SELECT t.eid, t.word, t.freq
            FROM tokens t JOIN active a ON a.eid = t.eid
        ),
        nn AS (SELECT COUNT(DISTINCT eid) AS n FROM act_tok),
        dfreq AS (
            SELECT word, COUNT(DISTINCT eid) AS df FROM act_tok GROUP BY word
        ),
        wt AS (
            SELECT a.eid, a.word,
                   (1 + LN(a.freq)) * (LN((SELECT n FROM nn) / (1.0 + d.df)) + 1) AS w
            FROM act_tok a JOIN dfreq d ON d.word = a.word
        ),
        wnorm AS (SELECT eid, SQRT(SUM(w*w)) AS nrm FROM wt GROUP BY eid),
        tw AS (
            SELECT wt.eid, wt.word, wt.w / wnorm.nrm AS w
            FROM wt JOIN wnorm ON wnorm.eid = wt.eid
        ),
        sel_w AS (
            SELECT r.qid, r.method, r.eid AS sel, tw.word, tw.w AS w_sel
            FROM results r JOIN tw ON tw.eid = r.eid
        ),
        sim AS (
            SELECT s.qid, s.method, a.eid, s.sel, SUM(a.w * s.w_sel) AS sim
            FROM tw a JOIN sel_w s ON s.word = a.word
            GROUP BY s.qid, s.method, a.eid, s.sel
        ),
        contrib AS (
            SELECT s.qid, s.method, s.eid, MAX(r.rel * s.sim) AS best
            FROM sim s
            JOIN rel r ON r.qid = s.qid AND r.eid = s.eid
            WHERE NOT EXISTS (
                SELECT 1 FROM results x
                WHERE x.qid = s.qid AND x.method = s.method AND x.eid = s.eid
            )
            GROUP BY s.qid, s.method, s.eid
        ),
        num AS (
            SELECT qid, method, SUM(best) AS num FROM contrib GROUP BY qid, method
        ),
        total_rel AS (SELECT qid, SUM(rel) AS total FROM rel GROUP BY qid),
        sel_rel AS (
            SELECT r.qid, r.method, SUM(rel.rel) AS selrel
            FROM results r JOIN rel ON rel.qid = r.qid AND rel.eid = r.eid
            GROUP BY r.qid, r.method
        ),
        base AS (SELECT DISTINCT qid, method FROM results)
        SELECT b.qid AS qid, b.method AS method,
               COALESCE(num.num, 0) / (t.total - COALESCE(s.selrel, 0)) AS coverage
        FROM base b
        JOIN total_rel t ON t.qid = b.qid
        LEFT JOIN sel_rel s ON s.qid = b.qid AND s.method = b.method
        LEFT JOIN num ON num.qid = b.qid AND num.method = b.method
    """
    assert_equivalent(got, sql, **setup["pdfs"])


def test_influence_vs_oracle(setup):
    st = setup["state"]
    t, T = st.t, st.window.T
    got = influence_metric_df(
        setup["tbl"]["elems"], setup["tbl"]["refs"], setup["active_df"],
        setup["results_df"], t, T, K,
    )
    # the denominator (referrers of the top-K most-referred active
    # elements) is deterministic; compute it in SQL too
    sql = f"""
        WITH w_refs AS (
            SELECT r.child, r.parent
            FROM refs r JOIN elems c ON c.eid = r.child
            WHERE c.ts BETWEEN {t - T + 1} AND {t}
        ),
        counts AS (
            SELECT parent, COUNT(DISTINCT child) AS c
            FROM w_refs JOIN active a ON a.eid = parent
            GROUP BY parent
            ORDER BY c DESC, parent
            LIMIT {K}
        ),
        denom AS (
            SELECT GREATEST(COUNT(DISTINCT w.child), 1) AS d
            FROM w_refs w JOIN counts ON counts.parent = w.parent
        ),
        got AS (
            SELECT r.qid, r.method, COUNT(DISTINCT w.child) AS n_ref
            FROM results r JOIN w_refs w ON w.parent = r.eid
            GROUP BY r.qid, r.method
        ),
        base AS (SELECT DISTINCT qid, method FROM results)
        SELECT b.qid AS qid, b.method AS method,
               COALESCE(g.n_ref, 0) / (SELECT CAST(d AS DOUBLE) FROM denom) AS influence
        FROM base b LEFT JOIN got g ON g.qid = b.qid AND g.method = b.method
    """
    assert_equivalent(got, sql, **setup["pdfs"])


def test_coverage_in_unit_range(setup):
    got = coverage_scores_df(
        setup["tbl"]["elem_topics"], setup["tbl"]["tokens"], setup["active_df"],
        setup["queries_df"], setup["results_df"],
    ).toPandas()
    assert (got["coverage"] >= 0).all()
    assert (got["coverage"] <= 1.0 + 1e-9).all()


def test_influence_nonnegative(setup):
    st = setup["state"]
    got = influence_metric_df(
        setup["tbl"]["elems"], setup["tbl"]["refs"], setup["active_df"],
        setup["results_df"], st.t, st.window.T, K,
    ).toPandas()
    assert (got["influence"] >= 0).all()
