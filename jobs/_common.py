"""Shared plumbing for spark-submit job entrypoints.

Each job builds (or reuses) a SparkSession, generates the SF-scaled
streams for the requested profiles, replays them into SIRStream state,
and prints a table.  Results are also written under ``results/`` so
EXPERIMENTS.md can reference a concrete run.
"""
from __future__ import annotations

import argparse
import os

from pyspark.sql import SparkSession

from repro.corpus import PROFILES, generate_queries, generate_stream
from repro.eval.common import build_state
from repro.eval.config import DEFAULTS

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 16)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", choices=["test", "bench"], default="bench",
                   help="test ≈ seconds, bench ≈ minutes")
    p.add_argument("--datasets", nargs="+", default=["aminer", "reddit", "twitter"],
                   choices=list(PROFILES))
    p.add_argument("--seed", type=int, default=0)
    return p


def generate_for(name: str, args):
    """Generate profile ``name``'s stream at ``args.scale``.

    bench: the Table-4 z and stream span; test: 16 topics over a span of
    4/3 of the window, so a full window is still replayed.
    """
    if args.scale == "bench":
        n, z, duration = DEFAULTS.bench_n[name], DEFAULTS.z, DEFAULTS.duration
    else:
        n, z, duration = DEFAULTS.test_n[name], 16, 4 * DEFAULTS.T // 3
    return generate_stream(PROFILES[name], n_elements=n, z=z, duration=duration, seed=args.seed)


def stream_for(name: str, args) -> "tuple":
    stream = generate_for(name, args)
    return stream, build_state(stream, DEFAULTS.T, DEFAULTS.L)


def queries_for(stream, n: int, args):
    return generate_queries(stream, n, seed=args.seed + 1, t_min=DEFAULTS.T)


def save(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path
