"""Baselines the paper compares against.

Efficiency baselines (Section 5.3): CELF, SieveStreaming, Top-k
Representative.  Effectiveness baselines (Section 5.2): TF-IDF top-k,
diversity-aware DIV, Sumblr-style summarisation, topic-relevance REL;
the three keyword baselines answer over one shared ``keyword_index``.
"""
from repro.baselines.celf import celf
from repro.baselines.sieve import sieve_streaming
from repro.baselines.topk_repr import topk_representative
from repro.baselines.keyword import keyword_index, tfidf_topk, div_topk
from repro.baselines.sumblr import sumblr
from repro.baselines.rel import rel_topk

__all__ = [
    "celf",
    "sieve_streaming",
    "topk_representative",
    "keyword_index",
    "tfidf_topk",
    "div_topk",
    "sumblr",
    "rel_topk",
]
