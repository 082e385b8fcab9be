"""Efficiency and scalability harness (Section 5.3, Figures 7–14).

Per-query wall time (``perf_counter``) and result quality for CELF,
SieveStreaming, Top-k Representative, MTTS, and MTTD over a shared
window snapshot; sweeps over ε and k; and ranked-list maintenance cost
per arrival element.
These back the paper's headline claims (MTTS/MTTD speedups over the
baselines with ≤5 %/1 % quality loss, Figure 11's ≥98 % pruning, and
Figure 14's sub-millisecond updates), recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.baselines import celf, sieve_streaming, topk_representative
from repro.core import mttd, mtts
from repro.core.state import SIRStream
from repro.corpus.generator import Query
from repro.eval.config import DEFAULTS

__all__ = [
    "bench_queries", "run_algorithm", "sweep_epsilon", "sweep_k", "update_time", "ALGORITHMS",
]

ALGORITHMS = ("CELF", "SieveStreaming", "Top-k Repr", "MTTS", "MTTD")


def run_algorithm(alg: str, state: SIRStream, q: Query, k: int, eps: float):
    """Answer ``q`` with the algorithm named ``alg`` (one of ALGORITHMS)."""
    if alg == "CELF":
        return celf(state, q, k)
    if alg == "SieveStreaming":
        return sieve_streaming(state, q, k, eps=eps)
    if alg == "Top-k Repr":
        return topk_representative(state, q, k)
    if alg == "MTTS":
        return mtts(state, q, k, eps=eps)
    if alg == "MTTD":
        return mttd(state, q, k, eps=eps)
    raise ValueError(alg)


def bench_queries(
    state: SIRStream,
    queries: list[Query],
    *,
    k: int = DEFAULTS.k,
    eps: float = DEFAULTS.eps,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> pd.DataFrame:
    """Average per-query wall time (``perf_counter``), score, and
    evaluated-element ratio.

    One row per algorithm; ``score_vs_celf`` is the quality ratio of
    Figures 8/10, ``eval_ratio`` the Figure-11 ratio n'_t / n_t.
    """
    n_active = max(1, state.window.n_active)
    acc = {a: {"ms": 0.0, "val": 0.0, "ev": 0.0} for a in algorithms}
    for q in queries:
        for a in algorithms:
            t0 = time.perf_counter()
            res = run_algorithm(a, state, q, k, eps)
            acc[a]["ms"] += (time.perf_counter() - t0) * 1e3
            acc[a]["val"] += res.value
            acc[a]["ev"] += res.n_evaluated / n_active
    nq = max(1, len(queries))
    celf_val = acc.get("CELF", {"val": 0.0})["val"]
    rows = []
    for a in algorithms:
        rows.append(
            {
                "algorithm": a,
                "avg_ms": round(acc[a]["ms"] / nq, 3),
                "avg_score": round(acc[a]["val"] / nq, 4),
                "score_vs_celf": round(acc[a]["val"] / celf_val, 4) if celf_val > 0 else None,
                "eval_ratio": round(acc[a]["ev"] / nq, 4),
                "speedup_vs_celf": (
                    round(acc["CELF"]["ms"] / acc[a]["ms"], 1)
                    if "CELF" in acc and acc[a]["ms"] > 0
                    else None
                ),
            }
        )
    return pd.DataFrame(rows)


def sweep_epsilon(
    state: SIRStream,
    queries: list[Query],
    *,
    k: int = DEFAULTS.k,
    eps_grid: tuple[float, ...] = DEFAULTS.eps_grid,
) -> pd.DataFrame:
    """Figure 7/8: MTTS/MTTD query time and score as ε varies."""
    rows = []
    for eps in eps_grid:
        sub = bench_queries(state, queries, k=k, eps=eps, algorithms=("CELF", "MTTS", "MTTD"))
        sub.insert(0, "eps", eps)
        rows.append(sub)
    return pd.concat(rows, ignore_index=True)


def sweep_k(state: SIRStream, queries: list[Query]) -> pd.DataFrame:
    """Figure 9/10/11: all algorithms as k varies over ``DEFAULTS.k_grid``."""
    rows = []
    for k in DEFAULTS.k_grid:
        sub = bench_queries(state, queries, k=k)
        sub.insert(0, "k", k)
        rows.append(sub)
    return pd.concat(rows, ignore_index=True)


def sweep_scalability(profile, *, n_elements: int, seed: int) -> pd.DataFrame:
    """Figures 12–14: query/update time as z and T vary.

    Regenerates the stream per point of the Table-4 grids
    ``DEFAULTS.z_grid`` and ``DEFAULTS.T_grid`` (the paper retrains a
    topic model per z), replays it, and measures CELF/MTTS/MTTD query
    times over 15 queries plus per-element maintenance cost.  The axis
    not swept, L and the stream span are the ``DEFAULTS``.
    """
    from repro.corpus.generator import generate_queries, generate_stream
    from repro.eval.common import build_state

    rows = []
    grid = [("z", z, DEFAULTS.T) for z in DEFAULTS.z_grid] + [
        ("T", DEFAULTS.z, T) for T in DEFAULTS.T_grid
    ]
    for axis, z, T in grid:
        stream = generate_stream(
            profile, n_elements=n_elements, z=z, duration=DEFAULTS.duration, seed=seed
        )
        state = build_state(stream, T, DEFAULTS.L)
        queries = generate_queries(stream, 15, seed=seed + 1, t_min=T)
        sub = bench_queries(state, queries, algorithms=("CELF", "MTTS", "MTTD"))
        upd = update_time(state)
        for _, r in sub.iterrows():
            rows.append(
                {
                    "axis": axis, "z": z, "T": T,
                    "n_active": state.window.n_active,
                    "algorithm": r["algorithm"], "avg_ms": r["avg_ms"],
                    "speedup_vs_celf": r["speedup_vs_celf"],
                    "update_us_per_element": upd["update_us_per_element"],
                }
            )
    return pd.DataFrame(rows)


def update_time(state: SIRStream) -> dict:
    """Figure 14: ranked-list maintenance cost per arrival element."""
    n = max(1, state.n_ingested)
    return {
        "n_elements": state.n_ingested,
        "n_active": state.window.n_active,
        "update_us_per_element": round(1e6 * state.update_seconds / n, 2),
    }
