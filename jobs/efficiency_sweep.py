"""Efficiency & scalability sweeps (Figures 7–14's headline numbers).

Per-query wall time / quality / evaluated-element ratios for CELF,
SieveStreaming, Top-k Representative, MTTS, MTTD; sweeps over ε and k;
ranked-list update cost.  Results back the speedup and quality-loss
claims recorded in EXPERIMENTS.md.
"""
import sys, os
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import parser, queries_for, save, stream_for
from repro.eval.efficiency import bench_queries, sweep_epsilon, sweep_k, update_time


def main() -> None:
    p = parser(__doc__)
    p.add_argument("--n-queries", type=int, default=30)
    p.add_argument("--full", action="store_true", help="run the ε and k sweeps too")
    args = p.parse_args()
    sections = []
    for name in args.datasets:
        stream, state = stream_for(name, args)
        queries = queries_for(stream, args.n_queries, args)
        head = (
            f"== {name}: n_active={state.window.n_active} t={state.t} "
            f"T={state.window.T} z={stream.model.z} ==\n"
        )
        default = bench_queries(state, queries)
        upd = update_time(state)
        body = (
            head
            + default.to_string(index=False)
            + f"\nupdate: {upd}\n"
        )
        if args.full:
            body += "\n-- sweep eps (MTTS/MTTD vs CELF) --\n"
            body += sweep_epsilon(state, queries).to_string(index=False)
            body += "\n-- sweep k (all algorithms) --\n"
            body += sweep_k(state, queries).to_string(index=False)
            body += "\n"
        print(body)
        sections.append(body)
    print("saved:", save(f"efficiency_{args.scale}.txt", "\n".join(sections)))


if __name__ == "__main__":
    main()
