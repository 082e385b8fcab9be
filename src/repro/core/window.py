"""Active window maintenance (Section 3.1 + Algorithm 1).

``ActiveWindow`` maintains, at stream time t:

* the sliding window W_t = {e | e.ts ∈ [t−T+1, t]}: one queue of
  elements in arrival order,
* per-parent in-window children I_t(e) as one arrival-ordered list of
  elements, kept only while I_t(e) ≠ ∅ and the only copy of I_t(e): the
  singleton influence I_{i,t}(e) = p_i(e)·Σ_{c∈I_t(e)} p_i(c) is summed
  from it whenever e is re-scored,
* the active set A_t = W_t ∪ {e | I_t(e) ≠ ∅} (W_t plus referred parents),
* per-element topic-wise scores δ_i(e) = λ·R_i(e) + (1−λ)/η·I_{i,t}(e)
  in ``delta``, their only copy, pushed into the window's own ranked
  lists whenever they change (the lists find a tuple by its old δ here),
* the scoring constants λ and (1−λ)/η (``lam``, ``c_inf``), which the
  query-time scorers read from the window rather than recompute,
* the largest |e.tp| ever ingested, as its ranked lists' ``max_topics``:
  no element is in more lists than that, so a traversal may stop on
  the sum of that many list heads.  It only rises, so it stays a bound
  after expiry and re-activation.

Elements arrive in the paper's order (§3.1): across all ingests ts never
decreases and eid strictly increases, and each element refers only to
eids below its own.  ``ingest`` checks that order against one (ts, eid)
cursor.  Each element is scored (σ_i(·,e), R_i(e)) and added to its
parents' children here, in ``ingest``, and nowhere else.  Sliding to t
pops W_t while ts ≤ t−T; by the arrival order each popped element heads
the children list of every parent it joined, so it is deleted from the
front, and whatever has left W_t with no child left drops from A_t.

Beyond Algorithm 1 we also *recompute parent scores when a child falls
out of W_t* (the paper notes influence "fluctuates over the sliding
window"; stale δ would invalidate the upper bounds MTTS/MTTD rely on),
and we re-activate an expired element that is referred to again — both
follow directly from the definitions of A_t and I_t.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.ranked_lists import RankedLists
from repro.core.scoring import Element, score_elements

__all__ = ["ActiveWindow"]


class ActiveWindow:
    """Sliding-window state over a social stream (one instance per stream)."""

    def __init__(self, T: int, lam: float, eta: float):
        self.T = int(T)
        self.lam = float(lam)
        self.c_inf = (1.0 - lam) / eta
        self.rl = RankedLists()
        self.rl.max_topics = 0
        self.t = 0
        self.store: dict[int, Element] = {}
        self.active: set[int] = set()
        self._window: deque[Element] = deque()  # W_t in arrival order
        self._last = (float("-inf"), float("-inf"))  # (ts, eid) of the latest arrival
        # children[p] = I_t(p) as child elements in arrival order
        self.children: dict[int, list[Element]] = {}
        self.delta: dict[int, dict[int, float]] = {}

    # -- queries over state ---------------------------------------------
    def children_of(self, eid: int) -> list[Element]:
        """I_t(eid): active in-window children (the scorer's context)."""
        return list(self.children.get(eid, ()))

    def delta_x(self, eid: int, topics, weights) -> float:
        """δ(e, x) = Σ_i x_i·δ_i(e) for a query vector."""
        d = self.delta.get(eid)
        if not d:
            return 0.0
        return sum(x * d.get(int(i), 0.0) for i, x in zip(topics, weights))

    @property
    def n_active(self) -> int:
        return len(self.active)

    # -- maintenance -----------------------------------------------------
    def ingest(self, elements: Iterable[Element], t: int) -> None:
        """Apply bucket B_t and slide to time t, scoring the bucket's
        unscored elements first (:func:`score_elements`).  ``ValueError``,
        state untouched, if t goes back, an element breaks the arrival
        order (its ts is < the last arrival's or > t, or its eid is not
        above the last arrival's: a replay would double-count its links),
        its refs repeat an eid or name an eid ≥ its own (e.ref is a set of
        earlier elements), or scoring rejects an element."""
        if t < self.t:
            raise ValueError("time must be monotone")
        elements = list(elements)
        (last_ts, last_eid), unscored = self._last, []
        for e in elements:
            if not (last_ts <= e.ts <= t and e.eid > last_eid):
                raise ValueError(f"element {e.eid}: ts {e.ts} not in [{last_ts}, {t}] or eid ≤ {last_eid}")
            refs = e.refs.tolist()
            if (refs and max(refs) >= e.eid) or len(set(refs)) < len(refs):
                raise ValueError(f"element {e.eid}: refs {refs} repeat an eid or name itself or a later one")
            last_ts, last_eid = e.ts, e.eid
            if e.sigma is None:
                unscored.append(e)
        score_elements(unscored)
        self._last = (last_ts, last_eid)
        dirty: set[int] = set()
        for e in elements:
            if len(e.tp) > self.rl.max_topics:
                self.rl.max_topics = len(e.tp)
            self.store[e.eid] = e
            self.active.add(e.eid)
            dirty.add(e.eid)
            for p in e.refs.tolist():
                if p not in self.store:
                    continue  # reference to an element outside the run
                self.children.setdefault(p, []).append(e)
                self.active.add(p)  # (re-)enters A_t by definition
                dirty.add(p)
            self._window.append(e)
        self.t = t
        self._expire(dirty)
        for eid in dirty:
            self._refresh(eid)

    def _expire(self, dirty: set[int]) -> None:
        cut = self.t - self.T  # largest ts already outside W_t
        while self._window and self._window[0].ts <= cut:
            e = self._window.popleft()
            if e.eid not in self.children:
                self._drop(e.eid, dirty)
            for p in e.refs.tolist():
                kids = self.children.get(p)
                if kids is None:
                    continue  # p is outside the run: e joined no list
                del kids[0]
                if kids:
                    dirty.add(p)
                else:
                    # p arrived before e, so it has left W_t too
                    del self.children[p]
                    self._drop(p, dirty)

    def _drop(self, eid: int, dirty: set[int]) -> None:
        """Remove eid from A_t and its δ tuples from the ranked lists."""
        self.active.discard(eid)
        for i, d in self.delta.pop(eid, {}).items():
            self.rl.remove(i, eid, d)
        dirty.discard(eid)

    def _refresh(self, eid: int) -> None:
        """Recompute δ_i(eid) for its topics and reposition in RL_i.

        Σ_{c∈I_t(e)} p_i(c) is added left to right in arrival order, so
        δ depends on I_t(e) and not on the history that led to it.  Not
        by ``sum``: from Python 3.12 it is compensated and rounds otherwise."""
        e = self.store[eid]
        kids = self.children.get(eid, ())
        old = self.delta.get(eid, {})
        d: dict[int, float] = {}
        for i, pe in e.tp.items():
            s = 0.0
            for c in kids:
                pc = c.tp.get(i)
                if pc:
                    s += pc
            inf = pe * s
            d[i] = self.lam * e.R[i] + self.c_inf * inf
            self.rl.upsert(i, eid, d[i], old.get(i))
        self.delta[eid] = d
