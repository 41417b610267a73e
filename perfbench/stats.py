"""Order statistics and interval arithmetic used by the benchmark."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values: "list[float]") -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n)``: the sample at rank ``n - 10`` of the
    sorted values, the percentile that rank is (``100 * (n - 10) / n``) and
    the sample count.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def quartile_spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median (the bound's scale)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def covered(interval: tuple[float, float], children: "list[tuple[float, float]]") -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children may overlap each other (parallel pool workers) and may stick
    out of the interval; each is clipped to it first.
    """
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total
