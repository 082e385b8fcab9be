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
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
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
    p.add_argument("--z", type=int, default=DEFAULTS.z)
    p.add_argument("--T", type=int, default=DEFAULTS.T)
    p.add_argument("--L", type=int, default=DEFAULTS.L)
    return p


def generate_for(name: str, args) -> "tuple":
    """Generate profile ``name``'s stream at ``args.scale``; → (stream, T).

    T is the window length to replay it with: ``args.T``, or half the
    stream when the stream is no longer than that.
    """
    cfg = DEFAULTS
    n = (cfg.bench_n if args.scale == "bench" else cfg.test_n)[name]
    duration = cfg.duration if args.scale == "bench" else max(4 * args.T // 3, 2 * args.L)
    z = args.z if args.scale == "bench" else min(args.z, 16)
    stream = generate_stream(
        PROFILES[name], n_elements=n, z=z, duration=duration, seed=args.seed
    )
    return stream, args.T if duration > args.T else duration // 2


def stream_for(name: str, args) -> "tuple":
    stream, T = generate_for(name, args)
    return stream, build_state(stream, T, args.L)


def queries_for(stream, n: int, args):
    return generate_queries(stream, n, seed=args.seed + 1, t_min=min(args.T, stream.t_end))


def save(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path
