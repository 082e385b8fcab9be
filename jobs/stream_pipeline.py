"""Structured-Streaming k-SIR pipeline demo (Figure 4 end-to-end).

Writes the bucketed stream to parquet, replays it through a
``foreachBatch`` Structured Streaming query maintaining the window +
ranked lists, then answers a batch of k-SIR queries with MTTS and MTTD
over the streamed-in state.
"""
import sys, os, tempfile
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import generate_for, parser, queries_for, save, session
from repro.core import mttd, mtts
from repro.eval.config import DEFAULTS
from repro.eval.efficiency import update_time
from repro.spark.streaming import run_streaming, write_buckets


def main() -> None:
    args = parser(__doc__).parse_args()
    spark = session("stream-pipeline")
    name = args.datasets[0]
    stream = generate_for(name, args)
    T, L = DEFAULTS.T, DEFAULTS.L
    with tempfile.TemporaryDirectory() as tmp:
        n_buckets = write_buckets(stream, tmp, L)
        state = run_streaming(
            spark, tmp, stream.model.phi, T, L, stream.profile.lam, stream.profile.eta
        )
    lines = [
        f"dataset={name} buckets={n_buckets} t={state.t} "
        f"n_active={state.window.n_active} "
        f"update_us_per_elem={update_time(state)['update_us_per_element']:.1f}"
    ]
    for q in queries_for(stream, 10, args):
        a = mtts(state, q, DEFAULTS.k)
        b = mttd(state, q, DEFAULTS.k)
        lines.append(
            f"q@{q.ts} d={len(q.topics)}: mtts={a.value:.4f} ({a.n_evaluated} ev) "
            f"mttd={b.value:.4f} ({b.n_evaluated} ev)"
        )
    text = "\n".join(lines)
    print(text)
    print("saved:", save(f"stream_pipeline_{args.scale}.txt", text + "\n"))


if __name__ == "__main__":
    main()
