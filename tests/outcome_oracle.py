"""Per-payload reference for a bundle's outcomes.

`payload_outcomes` gives every payload of a finished bundle its own
outcome, None for done or its failure cause, with one failure draw per
payload and one cause draw per failure. `bundle_outcomes` in the library,
which draws the same way straight into counts, must agree with
`outcome_counts` of it and leave the stream in the same place.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from backfillsim import FailureModel


def draw_causes(model: FailureModel, n: int, rng: np.random.Generator) -> list[Optional[str]]:
    """None means the payload succeeded; otherwise the failure cause."""
    failed = rng.random(n) < model.failure_prob
    causes: list[Optional[str]] = [None] * n
    idx = np.flatnonzero(failed)
    if len(idx):
        names = [name for name, _ in model.failure_mix]
        weights = np.array([w for _, w in model.failure_mix])
        picks = rng.choice(len(names), size=len(idx), p=weights / weights.sum())
        for i, pick in zip(idx, picks):
            causes[i] = names[pick]
    return causes


def payload_outcomes(makespans: np.ndarray, elapsed: float, model: FailureModel,
                     rng: np.random.Generator) -> list[Optional[str]]:
    """Walltime cut-offs fail outright; the rest succeed unless the failure
    draw says otherwise."""
    causes = draw_causes(model, len(makespans), rng)
    return ["walltime" if m > elapsed else causes[i] for i, m in enumerate(makespans)]


def outcome_counts(outcomes: list[Optional[str]],
                   model: FailureModel) -> tuple[int, dict[str, int]]:
    """(payloads done, failures by cause), every cause listed."""
    counts = Counter(outcomes)
    causes = ["walltime"] + [name for name, _ in model.failure_mix]
    return counts[None], {cause: counts[cause] for cause in causes}
