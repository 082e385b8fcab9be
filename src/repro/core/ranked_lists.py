"""Per-topic ranked lists and their traversal (Section 4.1).

``RankedLists`` keeps, for every topic θ_i, the tuples ⟨δ_i(e), e⟩ of
active elements sorted in descending order of the topic-wise
representativeness score δ_i(e) = f_i({e}).  ``Traversal`` implements
the two access operations the query algorithms need — ``RL_i.first`` and
``RL_i.next`` — with the paper's cross-list "visited" marking so each
element is retrieved at most once per query.
"""
from __future__ import annotations

import bisect
from typing import Iterable

from repro.core.query import _EPS

__all__ = ["RankedLists", "Traversal"]


class RankedLists:
    """Sorted per-topic lists of (−δ_i(e), eid), maintained incrementally.

    Keys are negated scores so Python's ascending ``bisect`` yields
    descending-score order; ``eid`` breaks ties deterministically.
    """

    def __init__(self) -> None:
        self.lists: dict[int, list[tuple[float, int]]] = {}
        self._entry: dict[tuple[int, int], tuple[float, int]] = {}

    def upsert(self, topic: int, eid: int, delta: float) -> None:
        """Insert or reposition the tuple for ``eid`` on ``topic``."""
        key = (-delta, eid)
        old = self._entry.get((topic, eid))
        lst = self.lists.setdefault(topic, [])
        if old is not None:
            if old == key:
                return
            idx = bisect.bisect_left(lst, old)
            # old key is guaranteed present at idx
            lst.pop(idx)
        bisect.insort(lst, key)
        self._entry[(topic, eid)] = key

    def remove(self, topic: int, eid: int) -> None:
        old = self._entry.pop((topic, eid), None)
        if old is None:
            return
        lst = self.lists[topic]
        lst.pop(bisect.bisect_left(lst, old))

    def remove_element(self, eid: int, topics: Iterable[int]) -> None:
        """Delete the tuples of an expired element (Alg. 1, lines 12–13)."""
        for i in topics:
            self.remove(i, eid)

    def score(self, topic: int, eid: int) -> float | None:
        key = self._entry.get((topic, eid))
        return None if key is None else -key[0]

    def size(self, topic: int) -> int:
        return len(self.lists.get(topic, ()))

    def items(self, topic: int) -> list[tuple[int, float]]:
        """(eid, δ) pairs in descending-δ order — for tests/inspection."""
        return [(eid, -negd) for negd, eid in self.lists.get(topic, ())]


class Traversal:
    """Query-time sequential traversal of the ranked lists.

    Lists are read-only snapshots during a query.  ``head(i)`` returns
    the next *unvisited* tuple of RL_i; ``pop_best(weights)`` pops the
    element maximising x_i·δ_i(e^{(i)}) across lists and marks every
    copy of it visited (lazily — other cursors skip it on read).
    """

    def __init__(self, rl: RankedLists, topics: Iterable[int], weights: Iterable[float]):
        self.rl = rl
        self.topics = [int(i) for i in topics]
        self.weights = {int(i): float(x) for i, x in zip(topics, weights)}
        self._cursor = {i: 0 for i in self.topics}
        self.visited: set[int] = set()
        self.n_retrieved = 0

    def head(self, topic: int) -> tuple[int, float] | None:
        """(eid, δ_i) of the next unvisited tuple in RL_i, or None."""
        lst = self.rl.lists.get(topic, ())
        c = self._cursor[topic]
        while c < len(lst) and lst[c][1] in self.visited:
            c += 1
        self._cursor[topic] = c
        if c >= len(lst):
            return None
        negd, eid = lst[c]
        return eid, -negd

    def upper_bound(self) -> float:
        """UB(x) = Σ_i x_i·δ_i(e^{(i)}) over non-exhausted lists."""
        ub = 0.0
        for i in self.topics:
            h = self.head(i)
            if h is not None:
                ub += self.weights[i] * h[1]
        return ub

    def pop_best(self) -> tuple[int, int] | None:
        """Pop the element with maximum x_i·δ_i(e^{(i)}); → (eid, i*)."""
        best, best_i, best_v = None, None, -1.0
        for i in self.topics:
            h = self.head(i)
            if h is None:
                continue
            v = self.weights[i] * h[1]
            if v > best_v:
                best, best_i, best_v = h[0], i, v
        if best is None:
            return None
        self.visited.add(best)
        self._cursor[best_i] += 1
        self.n_retrieved += 1
        return best, best_i

    def next_above(self, bound: float) -> int | None:
        """Pop the next eid while UB(x) ≥ ``bound`` and UB(x) > ``_EPS``; else None.

        The stop rule of every ranked-list scan: no unvisited element can
        score more than UB(x), so once it falls below the caller's
        threshold (or to zero) the rest of the lists can be skipped.
        """
        ub = self.upper_bound()
        if ub < bound or ub <= _EPS:
            return None
        popped = self.pop_best()
        return None if popped is None else popped[0]

    def exhausted(self) -> bool:
        return all(self.head(i) is None for i in self.topics)
