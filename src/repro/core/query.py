"""The k-SIR query contract shared by MTTS, MTTD and the efficiency baselines.

Every query algorithm (Algs. 2–3, CELF, SieveStreaming, Top-k
Representative) takes a query vector x (``.topics``/``.weights``), a
result size k and — where it thresholds — an accuracy ε, and returns a
:class:`QueryResult`.  :func:`parse_query` checks that contract once:
k an integer ≥ 1 (:func:`check_k`, which the effectiveness baselines
share), 0 < ε < 1, and x a finite non-negative vector aligned with its
distinct topic ids.  :class:`Phi` is the OPT-guess set Φ = {(1+ε)^j} of
Badanidiyuru et al., *Streaming submodular maximization* (KDD'14), that
MTTS and SieveStreaming both sieve over with :meth:`Phi.offer`; guesses
holding the same S share one coverage state, so e is scored once per S.
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.core.scoring import CoverageState, Element

__all__ = ["QueryResult", "check_k", "parse_query", "Phi"]

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


def check_k(k: int) -> None:
    """Raise ``ValueError`` unless k is a Python or numpy integer ≥ 1.

    A fractional k is refused: no |S| can equal it, so no candidate
    would ever fill.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer ≥ 1, got {k!r}")


def parse_query(query, k: int, eps: float | None = None) -> tuple[list[int], list[float]]:
    """Validate a query against the contract; → (int topics, float weights).

    Pass ``eps`` only for algorithms that take one.  Raises ``ValueError``
    before any work is done, so no algorithm can loop on bad input.
    """
    check_k(k)
    if eps is not None and not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    topics = [int(i) for i in query.topics]
    weights = [float(x) for x in query.weights]
    if len(topics) != len(weights):
        raise ValueError(f"{len(topics)} topics but {len(weights)} weights")
    if len(set(topics)) != len(topics):
        raise ValueError(f"topic ids must be distinct, got {topics}")
    if not all(math.isfinite(x) and x >= 0.0 for x in weights):
        raise ValueError(f"weights must be finite and ≥ 0, got {weights}")
    return topics, weights


class Phi:
    """Candidates S_φ for φ = (1+ε)^j ∈ [m, 2·k·m], m the running max δ.

    Guesses that hold the same S — the same elements admitted in the
    same order — hold bit-identical coverage, so they share one
    :class:`CoverageState`, kept with its guesses as a run ``[state, js]``,
    js ascending and contiguous.  ``runs`` holds the runs with |S| < k in
    ascending j; ``full`` sets aside those with |S| = k.  Together they
    partition Φ.  Every empty guess shares one state, the last run's: a
    run only ever splits off a prefix, and guesses open above all others.
    """

    def __init__(self, k: int, eps: float, new_candidate: Callable[[], CoverageState]):
        self.k = k
        self.eps = eps
        self._log_base = math.log1p(eps)
        self._new = new_candidate
        self.m = 0.0
        self.runs: list[list] = []
        self.full: list[list] = []

    def guess(self, j: int) -> float:
        """The OPT guess φ_j = (1+ε)^j."""
        return (1.0 + self.eps) ** j

    def observe(self, d: float) -> None:
        """Raise m to ``d`` if larger, dropping and opening guesses."""
        if d <= self.m:
            return
        self.m = d
        j_lo = math.ceil(math.log(d) / self._log_base - 1e-9)
        j_hi = math.floor(math.log(2.0 * self.k * d) / self._log_base + 1e-9)
        # Both ends of the range only rise: guesses drop off the bottom,
        # from full runs too, and open above every kept one.
        top = max((js[-1] for _, js in self.runs + self.full), default=j_lo - 1)
        self.runs, self.full = _drop_below(self.runs, j_lo), _drop_below(self.full, j_lo)
        opened = list(range(max(j_lo, top + 1), j_hi + 1))
        if opened:
            if self.runs and not self.runs[-1][0].S:
                self.runs[-1][1].extend(opened)
            else:
                self.runs.append([self._new(), opened])

    def offer(self, e: Element, need: Callable[[int, CoverageState], float], cap: float = math.inf) -> None:
        """Admit ``e`` to every open guess j with need(j, S) ≤ min(Δ(e|S), cap).

        Walks ``runs`` in ascending j and stops at the first run whose
        first guess needs more than ``cap``.  Δ(e|S) is computed once per
        run, from one view of e.  ``need`` rises with j within a run, so
        the guesses that admit e are a prefix of its js: the state is
        extended in place when all of them admit, else the prefix moves
        to a copy.
        """
        view = None
        runs = self.runs
        filled = False
        i = 0
        while i < len(runs):
            cand, js = runs[i]
            i += 1
            if need(js[0], cand) > cap:
                break
            if view is None:
                view = cand.view(e)
            bound = min(cand.gain(e, view), cap)
            n = bisect.bisect_right(js, bound, key=lambda j: need(j, cand))
            if n == 0:
                continue
            if n < len(js):  # the rest keep S
                cand = cand.copy()
                runs.insert(i - 1, [cand, js[:n]])
                del js[:n]
                i += 1
            cand.add(e, view)
            filled |= len(cand.S) == self.k
        if filled:
            self.full += [run for run in runs if len(run[0].S) == self.k]
            self.runs = [run for run in runs if len(run[0].S) < self.k]

    def best(self) -> CoverageState | None:
        """The candidate with the largest f(S_φ, x), lowest j on a tie;
        ``None`` if Φ is empty."""
        runs = self.runs + self.full
        if not runs:
            return None
        return max(runs, key=lambda run: (run[0].value, -run[1][0]))[0]


def _drop_below(runs: list[list], j_lo: int) -> list[list]:
    """``runs`` without their guesses below ``j_lo``; runs left empty go."""
    kept = []
    for cand, js in runs:
        js = [j for j in js if j >= j_lo]
        if js:
            kept.append([cand, js])
    return kept
