"""The paper's running example (Table 1), used as a golden fixture.

Words w1..w16 map to ids 0..15, topics θ1/θ2 to 0/1, elements e1..e8 to
eids 1..8 with ts = eid.  The θ1 probability of w15 is blank in the
paper's table; 0.13 is the unique value making the column sum to 1
(θ2 already sums to 1).  Example 1 confirms natural-log entropy weights
against this table (σ_2(w_9,e_2) = 0.15, …).
"""
from __future__ import annotations

import numpy as np

from repro.core.scoring import Element, make_element, score_elements
from repro.core.state import SIRStream

# (word, p_θ1, p_θ2) in paper order w1..w16
_TOPIC_WORD = [
    (0.00, 0.03), (0.06, 0.04), (0.09, 0.00), (0.10, 0.09),
    (0.05, 0.04), (0.11, 0.12), (0.12, 0.00), (0.00, 0.06),
    (0.00, 0.07), (0.11, 0.00), (0.00, 0.11), (0.15, 0.14),
    (0.08, 0.00), (0.00, 0.07), (0.13, 0.12), (0.00, 0.11),
]

# eid -> (word ids [1-based wN -> N-1], (p1, p2), parent eids)
_ELEMENTS = {
    1: ([0, 5, 7, 13, 15], (0.20, 0.80), []),
    2: ([3, 8, 10], (0.26, 0.74), []),
    3: ([2, 4, 9, 12], (0.89, 0.11), []),
    4: ([6, 9], (1.00, 0.00), [3]),
    5: ([5, 7, 15], (0.29, 0.71), [1]),
    6: ([1, 6, 9, 11], (0.70, 0.30), [3]),
    7: ([3, 10], (0.33, 0.67), [2]),
    8: ([9, 10, 14], (0.51, 0.49), [2, 3, 6]),
}

LAM, ETA, T, L = 0.5, 2.0, 4, 1


def phi() -> np.ndarray:
    """The (2 × 16) topic-word matrix of Table 1 (b)/(c)."""
    return np.array(_TOPIC_WORD).T.copy()


def elements() -> list[Element]:
    """All eight elements, eids 1..8, ts = eid, scored."""
    p = phi()
    out = []
    for eid, (words, (p1, p2), refs) in _ELEMENTS.items():
        w = np.array(words)
        out.append(
            make_element(
                eid, eid, w, np.ones(len(w)), [0, 1], [p1, p2], np.array(refs), p
            )
        )
    score_elements(out)
    return out


def state_at_8() -> SIRStream:
    """Stream state after ingesting e1..e8 with T=4, L=1 (t = 8)."""
    s = SIRStream(T=T, L=L, lam=LAM, eta=ETA)
    s.load(elements())
    s.run_all(8)
    return s


class Vec:
    """Minimal query-vector object (.topics / .weights)."""

    def __init__(self, x1: float, x2: float):
        ids, wts = [], []
        for i, x in enumerate((x1, x2)):
            if x > 0:
                ids.append(i)
                wts.append(x)
        self.topics = np.array(ids)
        self.weights = np.array(wts)
