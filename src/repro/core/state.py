"""Bucketed stream driver: the "Active Window + Ranked Lists" box of
Figure 4, advanced at discrete times L, 2L, … (Section 4).

``SIRStream`` owns an :class:`~repro.core.window.ActiveWindow` and its
ranked lists and consumes a materialised element sequence bucket by
bucket.  Both the batch harnesses and the Structured-Streaming
``foreachBatch`` sink drive the same class, so streaming ≡ batch is
testable bit-for-bit.
"""
from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.scoring import Element
from repro.core.window import ActiveWindow

__all__ = ["SIRStream"]


class SIRStream:
    """Maintains window + ranked lists over a stream of elements.

    Parameters mirror the paper: window length ``T`` and bucket length
    ``L`` in stream time units (minutes), scoring constants ``lam``/``eta``.
    """

    def __init__(self, T: int, L: int, lam: float, eta: float):
        self.T, self.L = int(T), int(L)  # perfbench's Table-6 check reads T
        self.window = ActiveWindow(T, lam, eta)
        self.lam, self.eta = float(lam), float(eta)
        self._pending: list[Element] = []
        self._pos = 0
        # cumulative perf_counter wall time inside window.ingest: σ/R
        # scoring of each bucket plus window upkeep, on every path
        self.update_seconds = 0.0
        self.n_ingested = 0

    @property
    def t(self) -> int:
        return self.window.t

    def load(self, elements: Sequence[Element]) -> None:
        """Register the element sequence (must be ts-ascending)."""
        self._pending = list(elements)
        self._pos = 0

    def ingest_bucket(self, elements: Iterable[Element], t: int) -> None:
        """Apply one bucket directly (streaming entrypoint)."""
        elements = list(elements)
        start = time.perf_counter()
        self.window.ingest(elements, t)
        self.update_seconds += time.perf_counter() - start
        self.n_ingested += len(elements)

    def advance_to(self, t: int) -> None:
        """Process every bucket boundary L, 2L, … ≤ t from the loaded
        sequence (no-op boundaries still slide the window)."""
        b = (self.t // self.L + 1) * self.L
        while b <= t:
            batch: list[Element] = []
            while self._pos < len(self._pending) and self._pending[self._pos].ts <= b:
                batch.append(self._pending[self._pos])
                self._pos += 1
            self.ingest_bucket(batch, b)
            b += self.L

    def run_all(self, t_end: int | None = None) -> None:
        """Consume the whole loaded sequence (up to ``t_end``)."""
        if t_end is None:
            t_end = self._pending[-1].ts if self._pending else 0
        # round end time up to a bucket boundary so the tail is ingested
        t_end = ((t_end + self.L - 1) // self.L) * self.L
        self.advance_to(t_end)
