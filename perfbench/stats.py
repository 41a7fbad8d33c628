"""Tail percentiles of a timing sample."""

TAIL_BEYOND = 10


def _beyond(values, beyond):
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n


def tail(values):
    """The 90th percentile, or the highest percentile with ten samples
    beyond it when there are fewer than 100 samples. Returns (value,
    percentile); with ten or fewer samples, the maximum and 100.

    A fixed count of ten beyond is an extreme-value statistic: with epochs
    of a few tens of milliseconds, host hiccups of similar length decide it,
    and it moved by a quarter between runs of the same code."""
    return _beyond(values, max(TAIL_BEYOND, len(values) // 10))


def highest_tail(values):
    """The highest percentile with ten samples beyond it (reported for
    reference)."""
    return _beyond(values, TAIL_BEYOND)
