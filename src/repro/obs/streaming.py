"""Bounded log-bucketed streaming histograms.

A serving tier observes millions of request latencies, so it cannot keep
every sample: exact quantiles would cost O(n) memory and a sort per
read.  :class:`StreamingHistogram` is the sketch every obs histogram is
built on (:class:`~repro.obs.metrics.Histogram` is this class plus a
name and a help string):

* **Fixed memory.**  Values land in geometrically spaced buckets
  (``growth`` ratio between consecutive bounds) spanning ``[lo, hi]``,
  plus underflow/overflow buckets — a flat integer array whose size is
  set at construction and never grows.
* **Bounded quantile error.**  A quantile is answered by walking the
  cumulative counts to the bucket holding the nearest-rank sample and
  returning the bucket's geometric midpoint, so the result is within one
  half bucket of the true order statistic: a relative error of at most
  ``sqrt(growth) - 1`` (plus one bucket of float-boundary slack).  The
  default ``growth=1.04`` keeps p50/p95/p99/p999 within a few percent.
* **Mergeable.**  Two histograms with identical bucket geometry merge by
  adding their count arrays — engine-pool replicas can each record
  locally and fold into one distribution for the run report.
* **Exportable.**  ``cumulative_buckets()`` yields Prometheus-style
  ``(upper_bound, cumulative_count)`` pairs for the non-empty buckets,
  which is exactly the ``_bucket{le="..."}`` series shape.

Values at or below ``lo`` (zeros, negatives) fall into the underflow
bucket and quantiles landing there report the exact observed minimum;
values above ``hi`` symmetrically report the exact maximum.  ``min`` /
``max`` / ``sum`` / ``count`` are always tracked exactly.  An empty
histogram answers 0 for ``min``, ``max``, ``mean`` and every quantile.
"""

from __future__ import annotations

import math

__all__ = ["StreamingHistogram"]


class StreamingHistogram:
    """A fixed-memory distribution sketch over positive values.

    Args:
        growth: ratio between consecutive bucket bounds (>1).  Smaller
            is more accurate and more buckets; 1.04 ≈ 2% quantile error
            in ~1200 buckets for the default range.
        lo: lower edge of the bucketed range; values ``<= lo`` (including
            zeros and negatives) count in the underflow bucket.
        hi: upper edge of the bucketed range; values ``> hi`` count in
            the overflow bucket.
    """

    __slots__ = (
        "growth",
        "lo",
        "hi",
        "_log_growth",
        "_counts",
        "_first",
        "underflow",
        "overflow",
        "count",
        "total",
        "_min",
        "_max",
    )

    def __init__(self, growth: float = 1.04, lo: float = 1e-9, hi: float = 1e9) -> None:
        if not growth > 1.0:
            raise ValueError("growth must be > 1")
        if not 0.0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        self.growth = float(growth)
        self.lo = float(lo)
        self.hi = float(hi)
        self._log_growth = math.log(self.growth)
        n = int(math.ceil(math.log(self.hi / self.lo) / self._log_growth))
        self._counts = [0] * n
        #: Lowest occupied bucket (``len(_counts)`` while none is), where
        #: quantile walks start instead of at the empty low end.
        self._first = n
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value``; ``count > 1`` records it that many times.

        The weighted form lets callers fold a batch of identical
        observations (e.g. the per-request kernel time of one dispatched
        micro-batch) into one bucket update instead of N.
        """
        value = float(value)
        self.count += count
        self.total += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= self.lo:
            self.underflow += count
        elif value > self.hi:
            self.overflow += count
        else:
            index = int(math.log(value / self.lo) / self._log_growth)
            counts = self._counts
            if index >= len(counts):
                index = len(counts) - 1
            counts[index] += count
            if index < self._first:
                self._first = index

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0 when empty)."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0 when empty)."""
        return self._max if self.count else 0.0

    def _bound(self, index: int) -> float:
        """Upper bound of bucket ``index`` (0-based)."""
        return self.lo * math.exp((index + 1) * self._log_growth)

    def quantile(self, q: float) -> float:
        """Nearest-rank q-quantile estimate; 0 when empty (see :meth:`quantiles`)."""
        return self.quantiles((q,))[0]

    def quantiles(self, qs) -> list[float]:
        """Nearest-rank estimates for every ``q`` in ``qs``, in one walk.

        Each answer is the geometric midpoint of the bucket containing
        the ``ceil(q * count)``-th smallest observation, clamped into
        the exact observed ``[min, max]``; ``q <= 0`` answers the
        minimum, ``q >= 1`` the maximum, and an empty histogram 0.  The
        ranks are sorted once, so the cumulative walk over the buckets
        happens once however many quantiles are asked for.
        """
        out = [0.0] * len(qs)
        if self.count == 0:
            return out
        smallest, largest = self._min, self._max
        pending = []
        for i, q in enumerate(qs):
            if q <= 0.0:
                out[i] = smallest
            elif q >= 1.0:
                out[i] = largest
            else:
                pending.append((max(1, math.ceil(q * self.count)), i))
        pending.sort()
        n, k = len(pending), 0
        cumulative = self.underflow
        # Ranks down in the underflow bucket (values <= lo) answer min.
        while k < n and pending[k][0] <= cumulative:
            out[pending[k][1]] = smallest
            k += 1
        if k < n:
            counts = self._counts
            for index in range(self._first, len(counts)):
                bucket = counts[index]
                if not bucket:
                    continue
                cumulative += bucket
                if pending[k][0] <= cumulative:
                    mid = self.lo * math.exp((index + 0.5) * self._log_growth)
                    mid = min(largest, max(smallest, mid))
                    while k < n and pending[k][0] <= cumulative:
                        out[pending[k][1]] = mid
                        k += 1
                    if k == n:
                        break
        # Ranks past every regular bucket fell in the overflow bucket.
        for _, i in pending[k:]:
            out[i] = largest
        return out

    def summary(self) -> dict:
        """JSON-ready count/sum/mean/min/max and p50/p95/p99/p999."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        p50, p95, p99, p999 = self.quantiles((0.5, 0.95, 0.99, 0.999))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "p999": p999,
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_bound, cumulative_count)`` pairs.

        Prometheus-histogram shaped: counts are cumulative from below,
        and the overflow bucket is implicit in the caller's ``+Inf``
        series (whose value is :attr:`count`).
        """
        out: list[tuple[float, int]] = []
        cumulative = self.underflow
        if self.underflow:
            out.append((self.lo, cumulative))
        counts = self._counts
        for index in range(self._first, len(counts)):
            bucket = counts[index]
            if bucket:
                cumulative += bucket
                out.append((self._bound(index), cumulative))
        return out

    # ------------------------------------------------------------------
    # Merging (engine-pool replicas)
    # ------------------------------------------------------------------
    def compatible_with(self, other: StreamingHistogram) -> bool:
        return (
            isinstance(other, StreamingHistogram)
            and other.growth == self.growth
            and other.lo == self.lo
            and other.hi == self.hi
        )

    def merge(self, other: StreamingHistogram) -> StreamingHistogram:
        """Fold ``other``'s observations into this histogram (in place)."""
        if not self.compatible_with(other):
            raise ValueError("cannot merge histograms with different bucket geometry")
        counts = other._counts
        for index in range(other._first, len(counts)):
            if counts[index]:
                self._counts[index] += counts[index]
        self._first = min(self._first, other._first)
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self
