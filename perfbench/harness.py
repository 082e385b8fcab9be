"""The benchmark's workloads: set-up, the measured closed loop, and checks.

Every workload feeds buckets of a generated stream back to back from one
process (a closed loop with one client) and answers each query
synchronously with MTTS, MTTD and CELF in turn.  The stream and queries
come from ``repro.corpus`` with the run's seed; generating them is
set-up, so the program under test only receives the generated arrays.
All workloads use the Table-4 defaults (z = 50, T = 24 h, L = 15 min,
k = 10, ε = 0.1).  Why each workload exists, and why ``stream-twitter``
is not declared in ``BENCHMARK.json``, is in ``README.md``.
"""
from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.celf import celf
from repro.core import scoring
from repro.core.mttd import mttd
from repro.core.mtts import mtts
from repro.core.state import SIRStream
from repro.corpus import PROFILES, generate_queries, generate_stream

from perfbench import tracing
from perfbench.checks import Checker, answer_problems, snapshot, state_problems

__all__ = ["Workload", "WORKLOADS", "run_workload", "start_spark", "stop_spark"]

_clock = time.perf_counter
ALGORITHMS = ("mtts", "mttd", "celf")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    n_elements: int
    duration: int  # stream span, minutes
    # replay through Structured Streaming and answer the queries at the
    # end-of-stream state; otherwise feed buckets directly and answer each
    # query at its own q.ts during the replay
    spark: bool
    rounds: int  # replays of the stream; each times every bucket and query
    n_queries: int = 200  # ≥ 200 so that each p95 has ≥ 10 samples beyond it
    n_table6: int = 20
    z: int = 50
    T: int = 24 * 60
    L: int = 15
    k: int = 10
    eps: float = 0.1


# Each bucket and query is timed once per round, ~10 s apart, and every
# metric is taken over each sample's slowest time (see _p50_p95).  The
# Spark path makes two replays after a warm-up one, each followed by one
# pass over the queries.
WORKLOADS = {
    w.name: w
    for w in (
        # 3 days = 288 buckets.  The sizes keep the rounds of 200 queries,
        # and three set-ups, within ~30–60 s a run on a shared 4-vCPU VM
        # and the benchmark's time budget, also when the host runs ~1.5× slow
        Workload("ingest-reddit", "reddit", 12_000, 3 * 24 * 60, spark=False, rounds=5),
        Workload("query-aminer", "aminer", 8_000, 3 * 24 * 60, spark=False, rounds=4),
        # Not declared in BENCHMARK.json: the program fails this workload's
        # streaming ≡ batch check on some seeds (README.md, "stream-twitter").
        # 28 h = 112 buckets: each micro-batch costs 170–350 ms of Spark
        # overhead, so two replays give 222 gap timings.
        Workload("stream-twitter", "twitter", 6_000, 28 * 60, spark=True, rounds=2),
    )
}

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: bucket files replayed, untimed, to warm a fresh JVM's streaming path;
#: with 8 the first timed replay's first dozen gaps still ran ~1.5× slow
WARM_UP_BUCKETS = 24


# -- Spark -----------------------------------------------------------------

def start_spark(workdir: str, cores: int):
    """A local[cores] session whose scratch files all stay under ``workdir``.

    Hadoop's checksumming local filesystem is swapped for the raw one:
    the streaming checkpoint then writes one file per commit instead of
    two, which roughly halves the per-micro-batch bookkeeping.
    """
    tmp = os.path.join(workdir, "spark-tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.ui.enabled=false --conf spark.driver.host=127.0.0.1 "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.local.dir", tmp)
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        .config("spark.sql.shuffle.partitions", str(2 * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.hadoop.fs.file.impl", "org.apache.hadoop.fs.RawLocalFileSystem")
        .config("spark.hadoop.fs.AbstractFileSystem.file.impl", "org.apache.hadoop.fs.local.RawLocalFs")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    import pandas as pd

    spark.createDataFrame(pd.DataFrame({"x": [1, 2]})).toPandas()  # warm-up
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    gw.shutdown()
    proc = getattr(gw, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


# -- set-up ------------------------------------------------------------------

@dataclass
class Inputs:
    stream: object
    queries: list
    buckets: list[tuple[int, np.ndarray]]  # (bucket time, eids)
    bucket_dir: str | None = None
    reference: object = None  # snapshot of the batch replay, built on first use


def _bucket_index(stream, L: int) -> list[tuple[int, np.ndarray]]:
    t_end = ((stream.t_end + L - 1) // L) * L
    bounds = np.arange(L, t_end + 1, L)
    cut = np.searchsorted(stream.ts, bounds, side="right")
    lo = np.concatenate(([0], cut[:-1]))
    return [(int(b), np.arange(a, c)) for b, a, c in zip(bounds, lo, cut)]


def _copy_buckets(src: str, workdir: str, limit: int | None = None) -> str:
    """A fresh copy of the (first ``limit``) bucket files, without a
    streaming checkpoint.

    ``copy2`` keeps the modification times ``write_buckets`` left: the
    Spark file source replays files in modification-time order, not by
    name.
    """
    dst = os.path.join(tempfile.mkdtemp(prefix="replay-", dir=workdir), "buckets")
    os.makedirs(dst)
    for f in sorted(f for f in os.listdir(src) if f.startswith("bucket-"))[:limit]:
        shutil.copy2(os.path.join(src, f), os.path.join(dst, f))
    return dst


def _warm_up(wl: Workload, inp: Inputs, spark, workdir: str) -> None:
    """Replay the first bucket files once, untimed and unchecked.

    The first streaming query on a fresh JVM plans, loads classes and
    JIT-compiles its micro-batch path; without this the first timed
    replay pays for it and the second does not.
    """
    from repro.spark.streaming import run_streaming

    path = _copy_buckets(inp.bucket_dir, workdir, WARM_UP_BUCKETS)
    p = PROFILES[wl.profile]
    run_streaming(spark, path, inp.stream.model.phi, wl.T, wl.L, p.lam, p.eta)
    shutil.rmtree(os.path.dirname(path), ignore_errors=True)


def _generate(wl: Workload, seed: int, workdir: str, tracer) -> Inputs:
    """One set-up: the stream and queries, and on the Spark path the
    bucket parquet."""
    with tracer.span("corpus.generate"):
        stream = generate_stream(
            PROFILES[wl.profile], n_elements=wl.n_elements, z=wl.z,
            duration=wl.duration, seed=seed,
        )
    queries = generate_queries(stream, wl.n_queries, seed=seed, t_min=wl.T)
    inp = Inputs(stream, queries, _bucket_index(stream, wl.L))
    if wl.spark:
        from repro.spark.streaming import write_buckets

        inp.bucket_dir = os.path.join(workdir, "buckets")
        with tracer.span("streaming.write_buckets"):
            write_buckets(stream, inp.bucket_dir, wl.L)
    return inp


def setup(wl: Workload, seed: int, workdir: str, tracer, spark=None) -> tuple[Inputs, float]:
    """Set up ``SETUP_REPEATS`` times; return the last inputs and the
    median time of one set-up.  The Spark path's warm-up replay runs once,
    after the last set-up, and its time is added to the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        inp = None  # free the previous set-up's stream before generating again
        shutil.rmtree(os.path.join(workdir, "buckets"), ignore_errors=True)
        t0 = _clock()
        inp = _generate(wl, seed, workdir, tracer)
        times.append(_clock() - t0)
    setup_s = statistics.median(times)
    if wl.spark:
        t0 = _clock()
        _warm_up(wl, inp, spark, workdir)
        setup_s += _clock() - t0
    return inp, setup_s


# -- the measured loop -------------------------------------------------------

@dataclass
class Samples:
    """What one measured pass observed.

    Bucket times are keyed by bucket time (Spark path: gap index) and
    query latencies by (qid, algorithm); each key lists every timing of
    it.  ``busy_s`` sums the timed regions of every round and pass.  On
    the Spark path each replay's final state is kept as a snapshot and
    checked against a batch replay after the run (see ``check_streaming``).
    """

    bucket_ms: dict = field(default_factory=dict)
    n_elements: int = 0  # per round
    spark_ingest_s: float = 0.0  # Spark path: call to last bucket update, slowest replay
    query_ms: dict = field(default_factory=dict)
    ratio: dict = field(default_factory=lambda: {"mtts": [], "mttd": []})
    n_evaluated: dict = field(default_factory=lambda: dict.fromkeys(ALGORITHMS, 0))
    n_retrieved: dict = field(default_factory=lambda: dict.fromkeys(ALGORITHMS, 0))
    n_active_sum: int = 0
    answers: dict = field(default_factory=dict)  # (qid, alg) → (eids, value), first pass
    table6_s: float | None = None
    busy_s: float = 0.0
    rounds: int = 0
    final_state: SIRStream | None = None
    snapshots: list = field(default_factory=list)

    @staticmethod
    def add(table: dict, key, ms: float) -> None:
        table.setdefault(key, []).append(ms)


class TimedStream(SIRStream):
    """SIRStream that timestamps every bucket's state update."""

    def __init__(self, *args, tracer=tracing.NULL, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.finished: list[float] = []

    def ingest_bucket(self, elements, t):
        with self.tracer.span("bucket", group=f"b{t}"):
            super().ingest_bucket(elements, t)
        self.finished.append(_clock())


def _new_state(wl: Workload, cls=SIRStream, **kwargs) -> SIRStream:
    p = PROFILES[wl.profile]
    return cls(wl.T, wl.L, p.lam, p.eta, **kwargs)


def _query(alg: str, st: SIRStream, q, wl: Workload):
    if alg == "celf":
        return celf(st, q, wl.k)
    return (mtts if alg == "mtts" else mttd)(st, q, wl.k, eps=wl.eps)


def _answer(wl, st, qid, q, s: Samples, tracer, checker: Checker, first: bool) -> None:
    """Answer ``q`` with every algorithm at the current state, then check.

    A first answer is re-scored from scratch; a later pass at the same
    state must repeat it exactly.  Counters, quality ratios and digests
    come from the first pass only.
    """
    got = {}
    for alg in ALGORITHMS:
        op = f"{alg} q{qid} at t={st.t}"
        with tracer.span(f"{alg}.query", group=f"q{qid}"):
            t0 = _clock()
            try:
                res = _query(alg, st, q, wl)
            except Exception:
                checker.raised(op)
                continue
            dt = _clock() - t0
        s.busy_s += dt
        s.add(s.query_ms, (qid, alg), dt * 1e3)
        answer = (list(res.eids), res.value)
        if first or (qid, alg) not in s.answers:
            problems = answer_problems(st, q, res, wl.k)
            s.answers[qid, alg] = answer
        else:
            problems = [] if answer == s.answers[qid, alg] else ["differs from the first pass"]
        if checker.record(op, problems) and first:
            got[alg] = res
    if not first:
        return
    s.n_active_sum += st.window.n_active
    for alg, res in got.items():
        s.n_evaluated[alg] += res.n_evaluated
        s.n_retrieved[alg] += res.n_retrieved
    if "celf" in got and got["celf"].value > 0:
        for alg in ("mtts", "mttd"):
            if alg in got:
                s.ratio[alg].append(got[alg].value / got["celf"].value)


def _replay_batch(wl, inp: Inputs, s: Samples, tracer, checker) -> SIRStream:
    """Hand every bucket to ``make_element`` + ``ingest_bucket`` back to back;
    answer each query once every bucket ≤ q.ts is in."""
    stream, phi = inp.stream, inp.stream.model.phi
    first = s.rounds == 0
    st = _new_state(wl)
    order = sorted(range(len(inp.queries)), key=lambda i: inp.queries[i].ts)
    nxt = 0
    for t, eids in inp.buckets:
        while nxt < len(order) and inp.queries[order[nxt]].ts < t:
            qid = order[nxt]
            _answer(wl, st, qid, inp.queries[qid], s, tracer, checker, first)
            nxt += 1
        with tracer.span("bucket", group=f"b{t}"):
            t0 = _clock()
            try:
                elems = [
                    scoring.make_element(
                        e, stream.ts[e], stream.docs[e][0], stream.docs[e][1],
                        stream.topic_ids[e], stream.topic_probs[e], stream.refs[e], phi,
                    )
                    for e in eids
                ]
                st.ingest_bucket(elems, t)
            except Exception:
                checker.raised(f"bucket t={t}")
                continue
            dt = _clock() - t0
        checker.record(f"bucket t={t}", [])
        s.add(s.bucket_ms, t, dt * 1e3)
        s.busy_s += dt
    for qid in order[nxt:]:
        _answer(wl, st, qid, inp.queries[qid], s, tracer, checker, first)
    s.n_elements = st.n_ingested
    return st


def _reference_state(wl, inp: Inputs) -> SIRStream:
    """Batch replay of the same stream: what the streaming state must equal."""
    ref = _new_state(wl)
    ref.load(scoring.build_elements(inp.stream))
    ref.run_all()
    return ref


def _replay_streaming(wl, inp: Inputs, s: Samples, tracer, checker, spark, workdir) -> SIRStream:
    """Replay the bucket parquet through ``run_streaming`` into a TimedStream;
    snapshot its final state for ``check_streaming``."""
    from repro.spark.streaming import run_streaming

    path = _copy_buckets(inp.bucket_dir, workdir)
    p = PROFILES[wl.profile]
    st = _new_state(wl, TimedStream, tracer=tracer)
    t0 = _clock()
    try:
        with tracer.span("streaming.run"):
            run_streaming(spark, path, inp.stream.model.phi, wl.T, wl.L, p.lam, p.eta, state=st)
    except Exception:
        checker.raised("streaming replay")
        return st
    # busy time counts only the Python-side state updates: no wrapper acts
    # inside the JVM, and a traced run's replay meets a warmer JVM
    s.busy_s += st.update_seconds
    if st.finished:
        wall = st.finished[-1] - t0
        s.spark_ingest_s = max(s.spark_ingest_s, wall)
        for i, gap in enumerate(np.diff(st.finished)):
            s.add(s.bucket_ms, i, gap * 1e3)
    s.n_elements = st.n_ingested
    for t in range(len(st.finished)):
        checker.record(f"micro-batch {t}", [])
    s.snapshots.append(snapshot(st))
    shutil.rmtree(os.path.dirname(path), ignore_errors=True)
    return st


def check_streaming(wl, inp: Inputs, s: Samples, checker) -> None:
    """Each replay's final state must equal a batch replay of the stream.

    Run after ``peak_rss_mb`` is read: the reference is the checker's
    memory, not the program's.
    """
    if not s.snapshots:
        return
    if inp.reference is None:
        inp.reference = snapshot(_reference_state(wl, inp))
    for snap in s.snapshots:
        checker.record("streaming state vs batch replay", state_problems(snap, inp.reference))


def _table6(wl, inp: Inputs, st: SIRStream, s: Samples, tracer, checker, spark) -> None:
    """Time the Catalyst Table-6 pipelines over the first ``n_table6`` queries'
    result sets, then diff both against DuckDB."""
    import pandas as pd

    from repro.oracle import assert_equivalent
    from repro.spark.metrics import coverage_scores_df, influence_metric_df
    from repro.spark.tables import spark_tables

    from perfbench.checks import COVERAGE_SQL, influence_sql

    n = min(wl.n_table6, len(inp.queries))
    results = pd.DataFrame(
        [
            {"qid": qid, "method": alg.upper(), "eid": int(eid)}
            for (qid, alg), (eids, _) in sorted(s.answers.items())
            if qid < n
            for eid in eids
        ],
        columns=["qid", "method", "eid"],
    )
    q_pdf = pd.DataFrame(
        [
            {"qid": qid, "topic": int(i), "x": float(x)}
            for qid, q in enumerate(inp.queries[:n])
            for i, x in zip(q.topics, q.weights)
        ]
    )
    active = pd.DataFrame({"eid": sorted(st.window.active)})
    t0 = _clock()
    try:
        with tracer.span("metrics.tables"):
            tbl = spark_tables(spark, inp.stream)
            active_df = spark.createDataFrame(active)
            queries_df = spark.createDataFrame(q_pdf)
            results_df = spark.createDataFrame(results)
        with tracer.span("metrics.coverage"):
            cov = coverage_scores_df(
                tbl["elem_topics"], tbl["tokens"], active_df, queries_df, results_df
            ).toPandas()
        with tracer.span("metrics.influence"):
            inf = influence_metric_df(
                tbl["elems"], tbl["refs"], active_df, results_df, st.t, st.T, wl.k
            ).toPandas()
    except Exception:
        checker.raised("table6")
        return
    s.table6_s = _clock() - t0
    pdfs = {
        "elems": inp.stream.elems_pdf(), "tokens": inp.stream.tokens_pdf(),
        "elem_topics": inp.stream.elem_topics_pdf(), "refs": inp.stream.refs_pdf(),
        "queries": q_pdf, "results": results, "active": active,
    }
    problems = []
    for got, sql in ((cov, COVERAGE_SQL), (inf, influence_sql(st.t, st.T, wl.k))):
        try:
            assert_equivalent(spark.createDataFrame(got), sql, **pdfs)
        except AssertionError as e:
            problems.append(str(e)[:400])
    checker.record("table6 vs DuckDB", problems)


def measure(wl, inp: Inputs, seconds: float, single: bool, tracer, checker,
            spark, workdir, table6: bool) -> Samples:
    """Replay the stream ``wl.rounds`` times (more while fewer than
    ``seconds`` have passed); on the Spark path answer the query batch
    after each replay, at its end-of-stream state, and with ``table6`` run
    Table-6 over the last one.  ``single`` makes one round, as the traced
    run does."""
    s = Samples()
    rounds = 1 if single else wl.rounds
    t0 = _clock()
    while s.rounds < rounds or (not single and _clock() - t0 < seconds):
        st = None  # free the previous round's state before building the next
        if wl.spark:
            st = _replay_streaming(wl, inp, s, tracer, checker, spark, workdir)
            for qid, q in enumerate(inp.queries):
                _answer(wl, st, qid, q, s, tracer, checker, s.rounds == 0)
        else:
            st = _replay_batch(wl, inp, s, tracer, checker)
        s.rounds += 1
    if table6:
        _table6(wl, inp, st, s, tracer, checker, spark)
    s.final_state = st
    return s


# -- metrics -----------------------------------------------------------------

def _pct(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q)) if len(xs) else float("nan")


def _timings(table: dict, alg: str | None = None) -> list[list[float]]:
    return [v for key, v in table.items() if alg is None or key[1] == alg]


def _p50_p95(timings: list[list[float]]) -> tuple[float, float]:
    """p50 and p95 over each sample's slowest timing.

    On a shared 4-vCPU VM the same work ran at one speed or at ~1.8×
    that time, switching within seconds, and the share of time spent
    fast changed from minute to minute, so a whole run could be fast or
    slow.  The contended speed showed in nearly every sample's rounds
    and hardly moved.  Over ten seeds of query-aminer, the p50s over
    each sample's best timing spread 0.09–0.19 (quartile distance ÷
    median); over its slowest, 0.05–0.07.
    """
    worst = [max(v) for v in timings]
    return _pct(worst, 50), _pct(worst, 95)


def end_to_end(s: Samples, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric this pass supports, as name → (value, unit)."""
    buckets = _timings(s.bucket_ms)
    ingest_s = s.spark_ingest_s or sum(max(v) for v in buckets) / 1e3
    m = {
        "setup_s": (setup_s, "s"),
        "ingest_elems_per_s": (s.n_elements / ingest_s if ingest_s else float("nan"), "elem/s"),
    }
    m["bucket_ms_p50"], m["bucket_ms_p95"] = ((v, "ms") for v in _p50_p95(buckets))
    for alg in ALGORITHMS:
        p50, p95 = _p50_p95(_timings(s.query_ms, alg))
        m[f"{alg}_ms_p50"], m[f"{alg}_ms_p95"] = (p50, "ms"), (p95, "ms")
    for alg in ("mtts", "mttd"):
        r = s.ratio[alg]
        m[f"{alg}_score_vs_celf"] = (sum(r) / len(r) if r else float("nan"), "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def _median_span(tracer, name: str) -> float:
    """One set-up's share: the median duration of the spans ``name``."""
    spans = tracer.named(name)
    return statistics.median(sp.end - sp.start for sp in spans) if spans else 0.0


def per_layer(tracer, traced: Samples, untraced: Samples) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derived from the spans of the traced pass."""
    leaf = tracer.leaf_totals()

    def calls(name):
        return leaf[name][0] if name in leaf else 0

    def secs(*names):
        return sum(leaf[n][1] for n in names if n in leaf)

    m = {
        "corpus.generate_s": (_median_span(tracer, "corpus.generate"), "s"),
        "streaming.write_buckets_s": (_median_span(tracer, "streaming.write_buckets"), "s"),
        "scoring.make_element_calls": (calls("scoring.make_element"), "count"),
        "scoring.make_element_s": (secs("scoring.make_element"), "s"),
        "state.ingest_bucket_calls": (len(tracer.named("state.ingest_bucket")), "count"),
        "state.ingest_bucket_s": (tracer.total("state.ingest_bucket"), "s"),
    }
    window_s = tracer.total("window.ingest")
    rl_in_window = tracer.leaf_seconds_in("window.ingest", ("ranked_lists.upsert", "ranked_lists.remove"))
    m["window.ingest_s"] = (window_s, "s")
    m["window.self_s"] = (window_s - rl_in_window, "s")
    for op in ("upsert", "remove"):
        m[f"ranked_lists.{op}_calls"] = (calls(f"ranked_lists.{op}"), "count")
        m[f"ranked_lists.{op}_s"] = (secs(f"ranked_lists.{op}"), "s")
    final = traced.final_state.window
    m["window.n_active"] = (final.n_active, "count")
    m["window.store_size"] = (len(final.store), "count")
    m["ranked_lists.pop_best_calls"] = (calls("ranked_lists.pop_best"), "count")
    m["ranked_lists.traversal_s"] = (secs("ranked_lists.pop_best", "ranked_lists.upper_bound"), "s")
    m["scoring.gain_calls"] = (calls("scoring.gain"), "count")
    m["scoring.gain_s"] = (secs("scoring.gain"), "s")
    m["scoring.singleton_delta_calls"] = (calls("scoring.singleton_delta"), "count")
    m["scoring.singleton_delta_s"] = (secs("scoring.singleton_delta"), "s")
    m["window.n_active_at_queries"] = (traced.n_active_sum, "count")
    for alg in ALGORITHMS:
        spans = tracer.named(f"{alg}.query")
        q_s = sum(sp.end - sp.start for sp in spans)
        inner = sum(sec for sp in spans for _, sec in sp.leaf.values())
        m[f"{alg}.query_s"] = (q_s, "s")
        m[f"{alg}.self_s"] = (q_s - inner, "s")
        m[f"{alg}.n_evaluated"] = (traced.n_evaluated[alg], "count")
        if alg != "celf":
            m[f"{alg}.n_retrieved"] = (traced.n_retrieved[alg], "count")
        m[f"{alg}.eval_ratio"] = (traced.n_evaluated[alg] / max(1, traced.n_active_sum), "ratio")
    runs = tracer.named("streaming.run")
    run_s = sum(sp.end - sp.start for sp in runs)
    in_run = [sp for r in runs for sp in tracer.named("state.ingest_bucket", within=r)]
    make_in_run = sum(tracer.leaf_totals(within=r)["scoring.make_element"][1] for r in runs)
    m["streaming.run_s"] = (run_s, "s")
    m["streaming.micro_batches"] = (len(in_run), "count")
    m["streaming.sink_wait_s"] = (
        run_s - sum(sp.end - sp.start for sp in in_run) - make_in_run if runs else 0.0, "s"
    )
    for name in ("tables", "coverage", "influence"):
        m[f"metrics.{name}_s"] = (tracer.total(f"metrics.{name}"), "s")
    if traced.table6_s is not None:
        m["table6_s"] = (traced.table6_s, "s")
    m["trace_overhead"] = (traced.busy_s / untraced.busy_s, "ratio")
    return m


def answer_digests(s: Samples) -> dict[str, str]:
    """sha256 over (qid, eids in order) per algorithm, for eid-identity claims."""
    out = {}
    for alg in ALGORITHMS:
        h = hashlib.sha256()
        for (qid, a), (eids, _) in sorted(s.answers.items()):
            if a == alg:
                h.update(f"{qid}:{','.join(map(str, eids))}\n".encode())
        out[alg] = h.hexdigest()[:16]
    return out


# -- one run -----------------------------------------------------------------

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                 *, spark=None, cores: int = 2, trace_path: str | None = None) -> dict:
    """Set up, measure, check; with ``trace`` measure once more, traced.

    ``setup_s`` is the median of the repeated set-ups, plus the Spark
    session start and warm-up replay, which run once.

    In a traced run both passes make one round and one query pass, so
    ``trace_overhead`` compares the same work.  Table-6 runs in
    the traced pass only: none of its entry points is wrapped, and its
    ~15 s of Spark jobs per run do not fit the untraced runs' budget.  A
    Spark session is started (and stopped) here unless one is passed in.
    """
    checker = Checker()
    tracer = tracing.Tracer() if trace else tracing.NULL
    own_spark = wl.spark and spark is None
    try:
        t0 = _clock()
        if own_spark:
            spark = start_spark(workdir, cores)
        spark_s = _clock() - t0
        inp, setup_s = setup(wl, seed, workdir, tracer, spark)
        setup_s += spark_s
        untraced = measure(wl, inp, seconds, trace, tracing.NULL, checker, spark, workdir, table6=False)
        report = {
            "end_to_end": end_to_end(untraced, setup_s),
            "digests": answer_digests(untraced),
            "samples": {
                "rounds": untraced.rounds,
                "buckets": len(untraced.bucket_ms),
                "queries": len(_timings(untraced.query_ms, "celf")),
            },
            "spark_master": spark.sparkContext.master if spark is not None else None,
        }
        check_streaming(wl, inp, untraced, checker)
        if trace:
            with tracing.install(tracer, spark=wl.spark), tracer.span("measure"):
                traced = measure(wl, inp, seconds, True, tracer, checker, spark, workdir, table6=wl.spark)
            check_streaming(wl, inp, traced, checker)
            report["per_layer"] = per_layer(tracer, traced, untraced)
            if trace_path:
                tracer.dump(trace_path)
    finally:
        if own_spark and spark is not None:
            stop_spark(spark)
    report["attempted"], report["failed"] = checker.attempted, checker.failed
    report["end_to_end"]["failed_op_ratio"] = (checker.failed_ratio, "ratio")
    return report
