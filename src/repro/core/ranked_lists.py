"""Per-topic ranked lists and their traversal (Section 4.1).

``RankedLists`` keeps, for every topic θ_i, the tuples ⟨δ_i(e), e⟩ of
active elements sorted in descending order of the topic-wise
representativeness score δ_i(e) = f_i({e}).  The lists keep no other
copy of δ: it lives only in ``ActiveWindow.delta``, their one writer.
``Traversal`` implements the two access operations the query algorithms
need — ``RL_i.first`` and ``RL_i.next`` — with the paper's cross-list
"visited" marking so each element is retrieved at most once per query.
The heads that UB(x) reads are kept for the pop that follows it, so
each list head is read once per pop.
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

    Lists are read-only snapshots during a query.  ``head(i)`` returns
    the next *unvisited* tuple of RL_i; ``pop_best(weights)`` pops the
    element maximising x_i·δ_i(e^{(i)}) across lists and marks every
    copy of it visited (lazily — other cursors skip it on read).
    ``upper_bound()`` and ``pop_best()`` share one read of the heads,
    which a pop invalidates.
    """

    def __init__(self, rl: RankedLists, topics: Iterable[int], weights: Iterable[float]):
        self.rl = rl
        self.topics = [int(i) for i in topics]
        self.weights = {int(i): float(x) for i, x in zip(topics, weights)}
        self._cursor = {i: 0 for i in self.topics}
        self.visited: set[int] = set()
        self.n_retrieved = 0
        self._heads: list[tuple[float, int, int]] | None = None

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

    def _read_heads(self) -> list[tuple[float, int, int]]:
        """(x_i·δ_i, eid, i) of each non-exhausted list's head, in topic
        order; read once and reused until the next pop moves a cursor."""
        if self._heads is None:
            heads = []
            for i in self.topics:
                h = self.head(i)
                if h is not None:
                    heads.append((self.weights[i] * h[1], h[0], i))
            self._heads = heads
        return self._heads

    def upper_bound(self) -> float:
        """UB(x) = Σ_i x_i·δ_i(e^{(i)}) over non-exhausted lists."""
        ub = 0.0
        for v, _, _ in self._read_heads():
            ub += v
        return ub

    def pop_best(self) -> tuple[int, int] | None:
        """Pop the element with maximum x_i·δ_i(e^{(i)}); → (eid, i*)."""
        best, best_i, best_v = None, None, -1.0
        for v, eid, i in self._read_heads():
            if v > best_v:
                best, best_i, best_v = eid, i, v
        self._heads = None
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
