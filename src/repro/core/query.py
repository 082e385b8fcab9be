"""The k-SIR query contract shared by MTTS, MTTD and the efficiency baselines.

Every query algorithm (Algs. 2–3, CELF, SieveStreaming, Top-k
Representative) takes a query vector x (``.topics``/``.weights``), a
result size k and — where it thresholds — an accuracy ε, and returns a
:class:`QueryResult`.  :func:`parse_query` checks that contract once:
k ≥ 1, 0 < ε < 1, and x a finite non-negative vector aligned with its
topics.  :class:`Phi` is the OPT-guess set Φ = {(1+ε)^j} of
Badanidiyuru et al., *Streaming submodular maximization* (KDD'14), that
MTTS and SieveStreaming both sieve over.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.core.scoring import CoverageState

__all__ = ["QueryResult", "parse_query", "Phi"]

_EPS = 1e-12


@dataclass
class QueryResult:
    """Result of one k-SIR query: selected eids, f(S,x), and work counters."""

    eids: list[int]
    value: float
    n_evaluated: int  # elements scored (the n'_t of the complexity analysis)
    n_retrieved: int  # tuples pulled off the ranked lists

    @classmethod
    def of(cls, cov: CoverageState | None, n_evaluated: int, n_retrieved: int) -> QueryResult:
        """The result for candidate ``cov`` (``None``: the empty set)."""
        if cov is None:
            return cls([], 0.0, n_evaluated, n_retrieved)
        return cls(list(cov.S), cov.value, n_evaluated, n_retrieved)


def parse_query(query, k: int, eps: float | None = None) -> tuple[list[int], list[float]]:
    """Validate a query against the contract; → (int topics, float weights).

    Pass ``eps`` only for algorithms that take one.  Raises ``ValueError``
    before any work is done, so no algorithm can loop on bad input.
    """
    if k < 1:
        raise ValueError(f"k must be ≥ 1, got {k}")
    if eps is not None and not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    topics = [int(i) for i in query.topics]
    weights = [float(x) for x in query.weights]
    if len(topics) != len(weights):
        raise ValueError(f"{len(topics)} topics but {len(weights)} weights")
    if not all(math.isfinite(x) and x >= 0.0 for x in weights):
        raise ValueError(f"weights must be finite and ≥ 0, got {weights}")
    return topics, weights


class Phi:
    """Candidates S_φ for φ = (1+ε)^j ∈ [m, 2·k·m], m the running max δ.

    ``cands`` maps j → candidate and keeps insertion order, so ties in
    :meth:`best` resolve the same way on every run.
    """

    def __init__(self, k: int, eps: float, new_candidate: Callable[[], CoverageState]):
        self.k = k
        self.eps = eps
        self._log_base = math.log1p(eps)
        self._new = new_candidate
        self.m = 0.0
        self.cands: dict[int, CoverageState] = {}

    def guess(self, j: int) -> float:
        """The OPT guess φ_j = (1+ε)^j."""
        return (1.0 + self.eps) ** j

    def observe(self, d: float) -> None:
        """Raise m to ``d`` if larger, dropping and opening candidates."""
        if d <= self.m:
            return
        self.m = d
        j_lo = math.ceil(math.log(d) / self._log_base - 1e-9)
        j_hi = math.floor(math.log(2.0 * self.k * d) / self._log_base + 1e-9)
        for j in list(self.cands):
            if j < j_lo or j > j_hi:
                del self.cands[j]
        for j in range(j_lo, j_hi + 1):
            if j not in self.cands:
                self.cands[j] = self._new()

    def best(self) -> CoverageState | None:
        """The candidate with the largest f(S_φ, x), or ``None`` if Φ is empty."""
        return max(self.cands.values(), key=lambda c: c.value, default=None)
