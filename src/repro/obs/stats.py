"""Shared percentile/summary math for every reporting surface.

Percentile code used to be on the verge of growing three times over -- once
for the metrics histograms, once for ``trace-report``, and once for the
simulator's experiment metadata -- each with its own answer to the awkward
questions (empty series, a single sample, q exactly 0 or 100).  This module
is the single implementation all of them import, with the edge-case semantics
spelled out:

* an **empty series** has no percentiles: :func:`percentile` returns ``None``
  and :func:`summarize` reports ``count == 0`` with every statistic ``None``;
* a **single sample** *is* every percentile (p0 == p50 == p100 == the sample);
* between samples, percentiles use **linear interpolation** on the sorted
  series (the numpy default), so p50 of ``[1, 2]`` is ``1.5``.
"""

from __future__ import annotations

#: The quantiles every summary reports, in display order.
SUMMARY_QUANTILES = (50.0, 95.0, 99.0)


def percentile(values, q: float):
    """The q-th percentile (0 <= q <= 100) of a series, or ``None`` if empty.

    Linear interpolation between closest ranks on the sorted series; the
    input need not be sorted and is never mutated.
    """
    return sorted_percentile(sorted(values), q)


def sorted_percentile(data, q: float):
    """:func:`percentile` of a series that is already in ascending order.

    For callers that sort once and ask for several percentiles.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not data:
        return None
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] + (data[high] - data[low]) * fraction


def percentiles(values, qs=SUMMARY_QUANTILES) -> dict:
    """Several percentiles of one series in a single sort pass.

    Returns ``{"p50": ..., "p95": ..., ...}`` with ``None`` values for an
    empty series (the keys are always present, so callers can rely on the
    shape).
    """
    data = sorted(values)
    out = {}
    for q in qs:
        key = f"p{q:g}".replace(".", "_")
        out[key] = sorted_percentile(data, q) if data else None
    return out


def mean(values):
    """Arithmetic mean, or ``None`` for an empty series."""
    data = list(values)
    if not data:
        return None
    return sum(data) / len(data)


def summarize(values, qs=SUMMARY_QUANTILES) -> dict:
    """The standard summary block: count/total/min/mean/max plus percentiles.

    The dict shape is fixed regardless of input: an empty series yields
    ``count == 0``, ``total == 0.0``, and ``None`` for every order statistic.
    """
    data = sorted(values)
    summary = {
        "count": len(data),
        "total": float(sum(data)),
        "min": data[0] if data else None,
        "mean": (sum(data) / len(data)) if data else None,
        "max": data[-1] if data else None,
    }
    summary.update(percentiles(data, qs))
    return summary
