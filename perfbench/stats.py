"""Order statistics and failure counting for the benchmark's samples."""

import math

# Candidate percentiles for the tail figure, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values):
    """(pct, value) of the highest percentile with at least ten samples
    strictly beyond it, or None when the run has too few samples."""
    best = None
    for pct in TAIL_PERCENTILES:
        v = nearest_rank(values, pct)
        if sum(1 for x in values if x > v) >= TAIL_MIN_BEYOND:
            best = (pct, v)
    return best


def fail_frac(outcomes):
    """Failed units over attempted units; an outcome is a list of problems,
    empty when the unit passed every check."""
    if not outcomes:
        raise ValueError("no units attempted")
    return sum(1 for problems in outcomes if problems) / len(outcomes)
