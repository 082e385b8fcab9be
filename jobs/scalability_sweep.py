"""Scalability sweeps over z and T (Figures 12–14).

Regenerates a Reddit-profile stream (``--datasets`` picks another,
single profile) per point of the Table-4 z and T grids, replays it, and
reports CELF/MTTS/MTTD query time plus ranked-list maintenance cost —
the paper's claims: query time falls with z (fewer elements per topic),
rises with T (more active elements); update time rises with both but
stays sub-millisecond.
"""
import sys, os
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import parser, save
from repro.corpus import PROFILES
from repro.eval.efficiency import sweep_scalability


def main() -> None:
    p = parser(__doc__)
    p.set_defaults(datasets=["reddit"])
    args = p.parse_args()
    if len(args.datasets) > 1:
        p.error("sweeps one dataset; pass a single --datasets value")
    n = 25_000 if args.scale == "bench" else 3_000
    df = sweep_scalability(PROFILES[args.datasets[0]], n_elements=n, seed=args.seed)
    text = df.to_string(index=False)
    print(text)
    print("saved:", save(f"scalability_{args.scale}.txt", text + "\n"))


if __name__ == "__main__":
    main()
