"""Benchmark of the k-SIR stream system; run ``python3 perfbench/run.py --help``."""
