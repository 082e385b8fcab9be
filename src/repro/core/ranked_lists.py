"""Per-topic ranked lists and their traversal (Section 4.1).

``RankedLists`` keeps, for every topic θ_i, the tuples ⟨δ_i(e), e⟩ of
active elements sorted in descending order of the topic-wise
representativeness score δ_i(e) = f_i({e}).  The lists keep no other
copy of δ: it lives only in ``ActiveWindow.delta``, their one writer.
``Traversal`` implements the two access operations the query algorithms
need — ``RL_i.first`` and ``RL_i.next`` — with the paper's cross-list
"visited" marking so each element is retrieved at most once per query.
Each list's head is traversal state: a pop re-reads only the lists
the popped element headed, so UB(x) reads no list.
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
    """

    def __init__(self) -> None:
        self.lists: dict[int, list[tuple[float, int]]] = {}

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
    """

    def __init__(self, rl: RankedLists, topics: Iterable[int], weights: Iterable[float]):
        self._lists = [(rl.lists.get(i, ()), x) for i, x in zip(topics, weights)]
        self._cursor = [0] * len(self._lists)
        self.visited: set[int] = set()
        self.n_retrieved = 0
        self._heads = [self._read(j) for j in range(len(self._lists))]

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
        """Pop the next eid while UB(x) ≥ ``bound`` and UB(x) > ``_EPS``; else None.

        The stop rule of every ranked-list scan: no unvisited element can
        score more than UB(x), so once it falls below the caller's
        threshold (or to zero) the rest of the lists can be skipped.
        """
        ub = self.upper_bound()
        if ub < bound or ub <= _EPS:
            return None
        return self.pop_best()
