"""Order statistics and the latency arithmetic the benchmark reports."""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_name(name):
    """A metric or workload name: letters, digits, `_`, `.`, `-`."""
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def median(values):
    return statistics.median(values)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(values, min_beyond=10):
    """The highest percentile in TAIL_PERCENTILES that has at least
    `min_beyond` samples above it, as `(percentile, value, count)`.
    Returns `(None, None, count)` when even the median has too few."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-n * p // 100))
        if n - rank >= min_beyond:
            return p, s[int(rank) - 1], n
    return None, None, n


def due_latencies(due, done):
    """Latency of each request from the time it was due to be sent, not
    the time it was sent, so a stall is charged to every request queued
    behind it. `due` and `done` map request id to a clock reading; ids
    without a response are absent from the result."""
    return {i: done[i] - t for i, t in due.items() if i in done}


def lateness(due, sent):
    """How late the generator sent each request (never negative)."""
    return {i: max(0.0, sent[i] - t) for i, t in due.items() if i in sent}
