"""The benchmark's own tests: the checker counts tampered outputs as
failures, and every metric ``BENCHMARK.json`` declares is emitted.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""
import dataclasses
import json
import os
import tempfile

import pytest

from repro.core import SIRStream, build_elements, mtts
from repro.core.mtts import QueryResult
from repro.corpus import AMINER, generate_queries, generate_stream

from perfbench import harness, run, tracing
from perfbench.checks import Checker, answer_problems, state_problems
from perfbench.harness import WORKLOADS, run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K = 5


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def stream():
    return generate_stream(AMINER, n_elements=300, z=8, duration=240, seed=3)


def _replay(stream):
    st = SIRStream(T=120, L=15, lam=AMINER.lam, eta=AMINER.eta)
    st.load(build_elements(stream))
    st.run_all()
    return st


@pytest.fixture(scope="module")
def state(stream):
    return _replay(stream)


@pytest.fixture(scope="module")
def answer(stream, state):
    q = generate_queries(stream, 1, seed=4, t_min=120)[0]
    return q, mtts(state, q, K)


def test_true_answer_passes(state, answer):
    q, res = answer
    checker = Checker()
    assert checker.record("mtts", answer_problems(state, q, res, K))
    assert (checker.attempted, checker.failed) == (1, 0)


@pytest.mark.parametrize("tamper", ["value", "inactive", "too_many"])
def test_tampered_answer_is_a_failure(state, answer, tamper):
    q, res = answer
    eids, value = list(res.eids), res.value
    if tamper == "value":
        value += 1e-6
    elif tamper == "inactive":
        eids[-1] = next(e for e in state.window.store if e not in state.window.active)
    else:
        eids += [e for e in sorted(state.window.active) if e not in eids][: K + 1 - len(eids)]
    checker = Checker()
    checker.record("mtts", answer_problems(state, q, QueryResult(eids, value, 0, 0), K))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert checker.failed_ratio == 1.0


@pytest.mark.parametrize("tamper", ["delta", "active", "time"])
def test_tampered_streaming_state_is_a_failure(stream, state, tamper):
    got = _replay(stream)
    assert state_problems(got, state) == []
    if tamper == "delta":
        eid = next(iter(got.window.delta))
        d = got.window.delta[eid]
        i = next(iter(d))
        d[i] *= 1 + 1e-9
    elif tamper == "active":
        got.window.active.discard(next(iter(got.window.active)))
    else:
        got.ingest_bucket([], got.t + got.L)
    checker = Checker()
    checker.record("streaming state", state_problems(got, state))
    assert checker.failed == 1


def test_repeated_answer_must_match_the_first(monkeypatch, state, answer):
    q, res = answer
    calls = []

    def drifting(alg, st, query, wl):  # second pass returns a changed value
        calls.append(alg)
        return QueryResult(res.eids, res.value + (len(calls) > 3) * 1e-3, 0, 0)

    monkeypatch.setattr(harness, "_query", drifting)
    wl = dataclasses.replace(WORKLOADS["query-aminer"], k=K)
    s, checker = harness.Samples(), Checker()
    harness._answer(wl, state, 0, q, s, tracing.NULL, checker, True)
    assert checker.failed == 0  # the first pass re-scores: all three are right
    harness._answer(wl, state, 0, q, s, tracing.NULL, checker, False)
    assert (checker.attempted, checker.failed) == (6, 3)


def _tiny(name):
    """The workload at a size that runs in seconds (T = 2 h, 6 h stream)."""
    return dataclasses.replace(
        WORKLOADS[name], n_elements=400, duration=360, T=120, n_queries=12, n_table6=3,
    )


@pytest.fixture(scope="module")
def reports(request, tmp_path_factory):
    out = {}
    for name in WORKLOADS:
        wl = _tiny(name)
        spark = request.getfixturevalue("spark") if wl.spark else None
        for trace in (False, True):
            work = str(tmp_path_factory.mktemp(f"{name}-{int(trace)}"))
            out[name, trace] = run_workload(wl, 5, 0.0, trace, work, spark=spark)
    return out


def test_declared_workloads_run():
    assert {w["name"] for w in _declared()["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(reports, name, trace):
    report = reports[name, trace]
    kind = "per_layer" if trace else "end_to_end"
    assert report["failed"] == 0 and report["attempted"] > 0
    for m in _declared()[kind]:
        value, unit = report[kind][m["name"]]
        assert unit == m["unit"], m["name"]
        assert value == value, f"{m['name']} is NaN"


def test_end_to_end_metrics_are_never_zero(reports):
    for (name, trace), report in reports.items():
        for m in _declared()["end_to_end"]:
            assert report["end_to_end"][m["name"]][0] > 0, (name, m["name"])


def test_command_fails_on_a_failed_check(monkeypatch, capsys):
    def failing(*args, **kwargs):
        e2e = {m["name"]: (1.0, m["unit"]) for m in _declared()["end_to_end"]}
        e2e["failed_op_ratio"] = (1 / 3, "ratio")
        return {
            "end_to_end": e2e, "attempted": 3, "failed": 1, "digests": {},
            "samples": {}, "spark_master": None,
        }

    monkeypatch.setattr("perfbench.harness.run_workload", failing)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.gettempdir())  # main() redirects both
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    rc = run.main(["--workload", "query-aminer", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert last["correct"] is False and last["failed"] == 1
