"""Sample statistics used by the benchmark report (tested by test_stats.py)."""

import math
import statistics
from fractions import Fraction

# Candidate percentiles, lowest first. A percentile is reported only when at
# least MIN_TAIL samples lie beyond it; otherwise one outlier decides it.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_TAIL = 10


def _rank(n, p):
    """ceil(p% of n), in exact arithmetic (0.999 * 10000 is not 9990 in
    binary floating point)."""
    return math.ceil(Fraction(str(p)) * n / 100)


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    return ordered[max(_rank(len(ordered), p), 1) - 1]


def samples_beyond(n, p):
    """Samples strictly above the p-th percentile's rank out of n."""
    return n - _rank(n, p)


def highest_reportable_percentile(n):
    """The highest candidate percentile with at least MIN_TAIL samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in CANDIDATE_PERCENTILES:
        if samples_beyond(n, p) >= MIN_TAIL:
            best = p
    return best


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def failure_fraction(failed, attempted):
    """Failed share of attempted requests, with its base: (fraction, text)."""
    if attempted <= 0:
        raise ValueError("no attempted requests")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted, f"{failed}/{attempted}"


def windows(n, k):
    """Splits range(n) into k consecutive slices of near-equal length
    (fewer when n < k)."""
    k = max(1, min(k, n))
    bounds = [i * n // k for i in range(k + 1)]
    return [slice(bounds[i], bounds[i + 1]) for i in range(k)]


def window_median(n, k, fn):
    """Median over k consecutive windows of fn(window slice): a burst of
    host noise shorter than half the run moves it by at most one window."""
    return median([fn(w) for w in windows(n, k)])


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4, its default 'exclusive' method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
