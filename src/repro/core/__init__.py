"""The paper's primary contribution: k-SIR scoring, stream state, and the
MTTS / MTTD query-processing algorithms (Sections 3–4)."""
from repro.core.scoring import (
    Element,
    CoverageState,
    build_elements,
    make_element,
    score_elements,
    semantic_set_score,
    influence_set_score,
    f_set_score,
)
from repro.core.window import ActiveWindow
from repro.core.ranked_lists import RankedLists, Traversal
from repro.core.state import SIRStream
from repro.core.mtts import mtts
from repro.core.mttd import mttd

__all__ = [
    "Element",
    "CoverageState",
    "build_elements",
    "make_element",
    "score_elements",
    "semantic_set_score",
    "influence_set_score",
    "f_set_score",
    "ActiveWindow",
    "RankedLists",
    "Traversal",
    "SIRStream",
    "mtts",
    "mttd",
]
