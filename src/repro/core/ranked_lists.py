"""Per-topic ranked lists and their traversal (Section 4.1).

``RankedLists`` keeps, for every topic θ_i, the tuples ⟨δ_i(e), e⟩ of
active elements sorted in descending order of the topic-wise
representativeness score δ_i(e) = f_i({e}).  The lists keep no other
copy of δ: it lives only in ``ActiveWindow.delta``, their one writer.
``Traversal`` implements the two access operations the query algorithms
need — ``RL_i.first`` and ``RL_i.next`` — with the paper's cross-list
"visited" marking so each element is retrieved at most once per query.
Each list's head is traversal state: a pop re-reads only the lists
the popped element headed, so UB(x) reads no list.  A scan stops once
the m heaviest heads, m the most lists one element can be in, fall
below the caller's threshold: the threshold algorithm of Fagin, Lotem &
Naor (PODS'01) with the bound tightened to what one element can score.
"""
from __future__ import annotations

import bisect
from typing import Iterable

from repro.core.query import _EPS

__all__ = ["RankedLists", "Traversal"]


class RankedLists:
    """Sorted per-topic lists of (−δ_i(e), eid), maintained incrementally.

    Keys are negated scores so Python's ascending ``bisect`` yields
    descending-score order; ``eid`` breaks ties deterministically.  The
    caller passes a tuple's previous score to find it again.

    ``max_topics`` bounds how many lists one eid is in at once, ``None``
    while no bound is known.  ``ActiveWindow`` raises it to the largest
    |e.tp| it has ingested and never lowers it, so the bound holds after
    expiry and re-activation too.
    """

    def __init__(self) -> None:
        self.lists: dict[int, list[tuple[float, int]]] = {}
        self.max_topics: int | None = None

    def upsert(self, topic: int, eid: int, delta: float, old: float | None = None) -> None:
        """Insert ⟨delta, eid⟩ into RL_topic, replacing ⟨old, eid⟩ if given."""
        lst = self.lists.setdefault(topic, [])
        if old is not None:
            if old == delta:
                return
            lst.pop(bisect.bisect_left(lst, (-old, eid)))
        bisect.insort(lst, (-delta, eid))

    def remove(self, topic: int, eid: int, delta: float) -> None:
        """Delete the tuple ⟨delta, eid⟩ from RL_topic (Alg. 1, lines 12–13)."""
        lst = self.lists[topic]
        lst.pop(bisect.bisect_left(lst, (-delta, eid)))

    def items(self, topic: int) -> list[tuple[int, float]]:
        """(eid, δ) pairs in descending-δ order — for tests/inspection."""
        return [(eid, -negd) for negd, eid in self.lists.get(topic, ())]


class Traversal:
    """Query-time sequential traversal of the ranked lists.

    Lists are read-only snapshots during a query.  Each queried list's
    head — (x_i·δ_i, eid) of its first *unvisited* tuple, or None once
    it is exhausted — is traversal state, read once when the traversal
    is built.  ``pop_best()`` pops the element maximising
    x_i·δ_i(e^{(i)}) across lists, marks it visited and re-reads only
    the lists it headed: no other list's head can change.

    ``next_above`` stops on the tighter of two bounds on δ(e,x) of every
    unvisited e: the paper's UB(x), the sum of all heads, and the sum
    of the m = ``rl.max_topics`` largest heads.  e lies in at most m
    lists and below the head in each, so the real δ(e,x) is at most the
    real sum H of the m largest heads.  Each term x_i·δ_i(e) rounds to
    at most its head's x_i·δ_i, rounding being monotone, so the float
    bound holds term by term.  The sums round differently, though:
    ``ActiveWindow.delta_x`` adds e's terms in query order with exact
    zeros for its other topics, while the bound adds the heads in
    descending order.

    * m ≤ 2: δ(e,x) is fl(a) or fl(a + b) with a + b ≤ H, and
      fl(H₁ + H₂) rounds H, so monotone rounding gives δ(e,x) ≤ the
      bound exactly.
    * m ≥ 3: summing r ≤ m non-negative terms errs by at most
      γ_{m−1} = (m−1)u/(1−(m−1)u) relative, u = 2⁻⁵³ (Higham, *Accuracy
      and Stability of Numerical Algorithms*, §4.2), both for δ(e,x)
      and for the heads' sum Ĥ; the compensated ``sum`` of Python ≥ 3.12
      errs by about 2u.  Then δ(e,x) ≤ (1+γ)H ≤ (1+γ)/(1−γ)·Ĥ, and
      Ĥ·(1 + 4mu), rounded once more, exceeds that for every m below
      2⁵⁰.  The widening can only make a scan stop later.
    """

    def __init__(self, rl: RankedLists, topics: Iterable[int], weights: Iterable[float]):
        self._lists = [(rl.lists.get(i, ()), x) for i, x in zip(topics, weights)]
        self._cursor = [0] * len(self._lists)
        self.visited: set[int] = set()
        self.n_retrieved = 0
        self._heads = [self._read(j) for j in range(len(self._lists))]
        self._m = len(self._lists) if rl.max_topics is None else rl.max_topics
        self._widen = 1.0 if self._m <= 2 else 1.0 + self._m * 2.0**-51

    def _read(self, j: int) -> tuple[float, int] | None:
        """Move list j's cursor past visited tuples; → (x_i·δ_i, eid) or None."""
        lst, x = self._lists[j]
        c = self._cursor[j]
        while c < len(lst) and lst[c][1] in self.visited:
            c += 1
        self._cursor[j] = c
        if c == len(lst):
            return None
        negd, eid = lst[c]
        return x * -negd, eid

    def upper_bound(self) -> float:
        """UB(x) = Σ_i x_i·δ_i(e^{(i)}) over non-exhausted lists, in topic order."""
        ub = 0.0
        for h in self._heads:
            if h is not None:
                ub += h[0]
        return ub

    def pop_best(self) -> int | None:
        """Pop the element with maximum x_i·δ_i(e^{(i)}), the first topic
        on a tie; → its eid, or None once every list is exhausted."""
        best = None
        for h in self._heads:
            if h is not None and (best is None or h[0] > best[0]):
                best = h
        if best is None:
            return None
        eid = best[1]
        self.visited.add(eid)
        self.n_retrieved += 1
        for j, h in enumerate(self._heads):
            if h is not None and h[1] == eid:
                self._heads[j] = self._read(j)
        return eid

    def next_above(self, bound: float) -> int | None:
        """Pop the next eid unless UB(x) < ``bound``, UB(x) ≤ ``_EPS``, or
        the m largest heads sum below ``bound``; else None.

        The stop rule of every ranked-list scan: no unvisited element
        can score more than either sum (see the class docstring), so
        once one falls below the caller's threshold, or UB(x) to zero,
        the rest of the lists can be skipped.
        """
        ub = self.upper_bound()
        if ub < bound or ub <= _EPS:
            return None
        live = [h[0] for h in self._heads if h is not None]
        if len(live) > self._m:
            live.sort(reverse=True)
            tight = 0.0
            for v in live[: self._m]:
                tight += v
            if tight * self._widen < bound:
                return None
        return self.pop_best()
