"""Table 6 — quantitative analysis: coverage and influence (Spark job).

Random workload queries (Section 5.1) per dataset at the shared window
snapshot; averages of the normalised coverage and top-k-scaled influence
metrics per method.
"""
import sys, os
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pandas as pd

from _common import parser, queries_for, save, session, stream_for
from repro.eval.table6 import table6_quantitative


def main() -> None:
    p = parser(__doc__)
    p.add_argument("--n-queries", type=int, default=100,
                   help="queries sampled per dataset (paper: 1K at full scale)")
    args = p.parse_args()
    spark = session("table6")
    frames = []
    for name in args.datasets:
        stream, state = stream_for(name, args)
        queries = queries_for(stream, args.n_queries, args)
        frames.append(table6_quantitative(spark, stream, state, queries))
    df = pd.concat(frames, ignore_index=True)
    text = df.to_string(index=False)
    print(text)
    print("saved:", save(f"table6_{args.scale}.txt", text + "\n"))


if __name__ == "__main__":
    main()
