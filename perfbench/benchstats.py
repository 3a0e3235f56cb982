"""Statistics shared by perfbench/run.py and perfbench/compare.py.

Percentiles are nearest-rank over the sorted samples. A tail is the
highest percentile of TAIL_LADDER that still has at least TAIL_MIN_BEYOND
samples beyond it; failed work counts as +inf there, since it misses any
latency limit. Latencies are reduced per window of measured time and
the median over windows is reported, so a host stall moves one window
rather than the run; a windowed tail uses the one percentile every
window supports.

The verdict follows the choosing-metrics rule for a small sandbox: a
gain needs nine tenths of the pairs won and a median shift wider than
the parent's own quartile spread; a spread wider than the bound leaves
a metric unresolved rather than unchanged.
"""

import math
import statistics

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def _rank(pct, n):
    """1-based nearest rank of percentile pct among n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return min(n, max(1, math.ceil(round(pct / 100.0 * n, 9))))


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list (pct in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it (the lowest rung when none has)."""
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen


def tail(values):
    """(pct, value, n) of the tail of one sample set."""
    samples = sorted(values)
    if not samples:
        raise ValueError("tail of no samples")
    pct = tail_percentile(len(samples))
    return pct, percentile(samples, pct), len(samples)


def merge_short_windows(windows):
    """Folds each window holding under half the median window's samples
    into its predecessor (a run's last window may be cut short)."""
    windows = [list(w) for w in windows if w]
    if not windows:
        return []
    floor = statistics.median(len(w) for w in windows) / 2.0
    merged = [windows[0]]
    for w in windows[1:]:
        if len(w) < floor:
            merged[-1].extend(w)
        else:
            merged.append(w)
    return merged


def windowed(windows, pct):
    """Median over windows of each window's pct-th percentile."""
    windows = [sorted(w) for w in merge_short_windows(windows)]
    if not windows:
        raise ValueError("percentile of no samples")
    return statistics.median(percentile(w, pct) for w in windows)


def windowed_tail(windows):
    """(pct, value, smallest window size, window count): the windowed
    value at the highest percentile every window supports."""
    merged = merge_short_windows(windows)
    if not merged:
        raise ValueError("tail of no samples")
    pct = min(tail_percentile(len(w)) for w in merged)
    return (pct, windowed(merged, pct), min(len(w) for w in merged),
            len(merged))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def _better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    """Compares paired runs of one metric (pairs share an index).

    Returns (verdict, win_fraction): 'improved', 'unchanged', 'worse' or
    'unresolved'.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("verdict needs equally many paired runs")
    wins = sum(1 for p, c in zip(parent, change) if _better(c, p, direction))
    win_frac = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = (pm - cm) if direction == "lower" else (cm - pm)
    rel_gain = gain / abs(pm) if pm else 0.0
    if win_frac >= 0.9 and gain > (p3 - p1):
        return "improved", win_frac
    if spread(parent) > bound:
        all_better = all(_better(c, p, direction)
                         for c in change for p in parent)
        return ("unchanged" if all_better else "unresolved"), win_frac
    if rel_gain < -bound:
        return "worse", win_frac
    return "unchanged", win_frac
