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
from repro.spark.streaming import run_streaming, write_buckets


def main() -> None:
    p = parser(__doc__)
    p.add_argument("--n-queries", type=int, default=10)
    args = p.parse_args()
    spark = session("stream-pipeline")
    name = args.datasets[0]
    stream, T = generate_for(name, args)
    with tempfile.TemporaryDirectory() as tmp:
        n_buckets = write_buckets(stream, tmp, args.L)
        state = run_streaming(
            spark, tmp, stream.model.phi, T, args.L, stream.profile.lam, stream.profile.eta
        )
    lines = [
        f"dataset={name} buckets={n_buckets} t={state.t} "
        f"n_active={state.window.n_active} "
        f"update_us_per_elem={1e6 * state.update_seconds / max(1, state.n_ingested):.1f}"
    ]
    for q in queries_for(stream, args.n_queries, args):
        a = mtts(state, q, 10)
        b = mttd(state, q, 10)
        lines.append(
            f"q@{q.ts} d={len(q.topics)}: mtts={a.value:.4f} ({a.n_evaluated} ev) "
            f"mttd={b.value:.4f} ({b.n_evaluated} ev)"
        )
    text = "\n".join(lines)
    print(text)
    print("saved:", save(f"stream_pipeline_{args.scale}.txt", text + "\n"))


if __name__ == "__main__":
    main()
