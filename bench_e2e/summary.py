"""Sample summaries for the end-to-end benchmark.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count. With
too few samples there is no such percentile, and the summary says so
instead of passing the maximum off as a tail.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_samples, pct):
    """The nearest-rank pct-th percentile of an ascending list."""
    n = len(sorted_samples)
    # The epsilon keeps float noise (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing the rank one place up.
    k = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return sorted_samples[k - 1], n - k


def percentile(samples, pct):
    """The nearest-rank pct-th percentile of unsorted samples, None when
    there are none."""
    return nearest_rank(sorted(samples), pct)[0] if samples else None


def tail(samples):
    """(percentile, value) of the highest ladder percentile with at least
    MIN_BEYOND samples above its rank, or None when no percentile has."""
    s = sorted(samples)
    for pct in TAIL_LADDER:
        if not s:
            break
        value, beyond = nearest_rank(s, pct)
        if beyond >= MIN_BEYOND:
            return pct, value
    return None


def summarize(samples):
    """{"n", "median", "tail_pct", "tail"}; the tail fields are None when
    the samples are too few for any tail percentile, and every field but n
    is None for no samples."""
    n = len(samples)
    t = tail(samples)
    return {
        "n": n,
        "median": statistics.median(samples) if n else None,
        "tail_pct": t[0] if t else None,
        "tail": t[1] if t else None,
    }


def describe(summary, scale=1.0, unit=""):
    """One-line rendering: 'p50 1.23 ms, p99.9 4.56 ms (n=41000)'."""
    if summary["median"] is None:
        return "no samples"
    text = "p50 %.4g %s" % (summary["median"] * scale, unit)
    if summary["tail"] is None:
        text += ", no tail percentile"
    else:
        text += ", p%g %.4g %s" % (summary["tail_pct"], summary["tail"] * scale,
                                   unit)
    return text + " (n=%d)" % summary["n"]


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of run results, with
    the quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")
