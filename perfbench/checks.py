"""Output checks, run outside the timed regions.

Each check returns a list of problems (empty when the output is
correct); :class:`Checker` counts operations and the failed ones, which
give the benchmark's ``attempted``/``failed`` and ``failed_op_ratio``.
"""
from __future__ import annotations

import math
import sys
import traceback
from types import SimpleNamespace

from repro.core.scoring import f_set_score

__all__ = [
    "Checker", "answer_problems", "snapshot", "state_problems",
    "COVERAGE_SQL", "influence_sql",
]


class Checker:
    """Counts attempted and failed operations; prints each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {op}: {p}", file=sys.stderr)
        return not problems

    def raised(self, op: str) -> None:
        """Count an operation that raised (call from an ``except`` block)."""
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {op}: raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    @property
    def failed_ratio(self) -> float:
        return self.failed / max(1, self.attempted)


def answer_problems(state, query, result, k: int) -> list[str]:
    """|S| ≤ k, S ⊆ A_t, and the reported f(S, x) re-scored from scratch."""
    w = state.window
    problems = []
    if len(result.eids) > k:
        problems.append(f"|S| = {len(result.eids)} > k = {k}")
    if len(set(result.eids)) != len(result.eids):
        problems.append("S repeats an element")
    inactive = [eid for eid in result.eids if eid not in w.active]
    if inactive:
        problems.append(f"eids {inactive} not active at t = {state.t}")
        return problems  # an inactive eid may not be re-scorable
    elems = [w.store[eid] for eid in result.eids]
    ref = f_set_score(
        elems, query.topics, query.weights, state.lam, state.eta,
        {eid: w.children_of(eid) for eid in result.eids},
    )
    if not math.isclose(result.value, ref, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"value {result.value!r} != re-scored {ref!r}")
    return problems


def snapshot(state) -> SimpleNamespace:
    """A copy of what :func:`state_problems` compares, so that the full
    state (documents, ranked lists) can be freed before it is checked."""
    w = state.window
    return SimpleNamespace(
        t=state.t,
        n_ingested=state.n_ingested,
        window=SimpleNamespace(
            active=set(w.active), delta={eid: dict(d) for eid, d in w.delta.items()}
        ),
    )


def state_problems(got, ref) -> list[str]:
    """Streaming state ≡ batch replay: t, A_t, ingest count and δ (1e-12)."""
    problems = []
    if got.t != ref.t:
        problems.append(f"t = {got.t}, batch replay t = {ref.t}")
    if got.n_ingested != ref.n_ingested:
        problems.append(f"{got.n_ingested} ingested, batch replay {ref.n_ingested}")
    a, b = got.window, ref.window
    if a.active != b.active:
        problems.append(f"active sets differ in {len(a.active ^ b.active)} eids")
    if set(a.delta) != set(b.delta):
        problems.append("δ is kept for different eids")
    for eid in set(a.delta) & set(b.delta):
        da, db = a.delta[eid], b.delta[eid]
        if da.keys() != db.keys() or not all(
            math.isclose(da[i], db[i], rel_tol=1e-12, abs_tol=1e-15) for i in da
        ):
            problems.append(f"δ({eid}) = {da}, batch replay {db}")
            break
    return problems


#: DuckDB reference for ``repro.spark.metrics.coverage_scores_df``.
COVERAGE_SQL = """
    WITH act_et AS (
        SELECT et.eid, et.topic, et.p_e
        FROM elem_topics et JOIN active a ON a.eid = et.eid
    ),
    e_norm AS (SELECT eid, SQRT(SUM(p_e * p_e)) AS en FROM act_et GROUP BY eid),
    q_norm AS (SELECT qid, SQRT(SUM(x * x)) AS qn FROM queries GROUP BY qid),
    rel AS (
        SELECT q.qid, t.eid, SUM(t.p_e * q.x) / (MAX(en.en) * MAX(qn.qn)) AS rel
        FROM act_et t
        JOIN queries q ON q.topic = t.topic
        JOIN e_norm en ON en.eid = t.eid
        JOIN q_norm qn ON qn.qid = q.qid
        GROUP BY q.qid, t.eid
    ),
    act_tok AS (SELECT t.eid, t.word, t.freq FROM tokens t JOIN active a ON a.eid = t.eid),
    nn AS (SELECT COUNT(DISTINCT eid) AS n FROM act_tok),
    dfreq AS (SELECT word, COUNT(DISTINCT eid) AS df FROM act_tok GROUP BY word),
    wt AS (
        SELECT a.eid, a.word,
               (1 + LN(a.freq)) * (LN((SELECT n FROM nn) / (1.0 + d.df)) + 1) AS w
        FROM act_tok a JOIN dfreq d ON d.word = a.word
    ),
    wnorm AS (SELECT eid, SQRT(SUM(w * w)) AS nrm FROM wt GROUP BY eid),
    tw AS (SELECT wt.eid, wt.word, wt.w / wnorm.nrm AS w FROM wt JOIN wnorm ON wnorm.eid = wt.eid),
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
        FROM sim s JOIN rel r ON r.qid = s.qid AND r.eid = s.eid
        WHERE NOT EXISTS (
            SELECT 1 FROM results x
            WHERE x.qid = s.qid AND x.method = s.method AND x.eid = s.eid
        )
        GROUP BY s.qid, s.method, s.eid
    ),
    num AS (SELECT qid, method, SUM(best) AS num FROM contrib GROUP BY qid, method),
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


def influence_sql(t: int, T: int, k: int) -> str:
    """DuckDB reference for ``repro.spark.metrics.influence_metric_df``."""
    return f"""
    WITH w_refs AS (
        SELECT r.child, r.parent
        FROM refs r JOIN elems c ON c.eid = r.child
        WHERE c.ts BETWEEN {t - T + 1} AND {t}
    ),
    counts AS (
        SELECT parent, COUNT(DISTINCT child) AS c
        FROM w_refs JOIN active a ON a.eid = parent
        GROUP BY parent ORDER BY c DESC, parent LIMIT {k}
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
