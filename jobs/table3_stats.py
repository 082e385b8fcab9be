"""Table 3 — dataset statistics of the synthetic streams (Spark job).

Usage: ``spark-submit jobs/table3_stats.py [--scale bench]`` (or plain
``python``; the session is created locally either way).
"""
import sys, os
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import generate_for, parser, save, session
from repro.eval.table3 import table3_frame


def main() -> None:
    args = parser(__doc__).parse_args()
    spark = session("table3")
    streams = [generate_for(name, args) for name in args.datasets]
    df = table3_frame(spark, streams)
    text = df.to_string(index=False)
    print(text)
    print("saved:", save(f"table3_{args.scale}.txt", text + "\n"))


if __name__ == "__main__":
    main()
