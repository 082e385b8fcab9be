"""Table 3 at bench scale: the Spark dataset-statistics pipeline
(distinct vocabulary, token and reference aggregations through Catalyst)
reproduces each profile's size, average length and average references.
"""
import pytest

from repro.eval.table3 import table3_stats


@pytest.mark.parametrize("name", ["aminer", "reddit", "twitter"])
def test_table3(bench, name, spark):
    stream, _, _ = bench(name)
    row = table3_stats(spark, stream)
    assert row["n_elements"] == stream.n
    assert row["avg_length"] == pytest.approx(stream.profile.avg_len, rel=0.25)
    assert row["avg_references"] == pytest.approx(stream.profile.avg_refs, rel=0.3)
