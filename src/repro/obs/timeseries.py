"""Windowed time-series: fixed-width ring-buffered buckets over metrics.

The registry's instruments (:mod:`repro.obs.registry`) answer "what
happened since the process started".  Serving needs the other question —
"what is happening *now*": rolling hit rate over the last minute, p99
over the last 10 seconds, the in-flight high-watermark per second.  This
module provides that as a family of *windowed* instruments backed by one
shared mechanism:

* time is divided into fixed-width buckets (``bucket index =
  floor(t / width)``);
* each instrument keeps the newest ``n_buckets`` buckets in a ring —
  observing into a bucket the ring has rotated past resets that slot;
* queries are evaluated *at* a caller-supplied time ``t`` and cover the
  window ``(t - n_buckets * width, t]``.

Nothing here reads a wall clock: every observation and every query takes
an explicit timestamp, which the serving layer feeds from ``loop.time()``.
Under :class:`~repro.serve.vclock.VirtualTimeLoop` the timestamps are
simulated seconds, so two runs of the same workload produce identical
bucket contents — windowed telemetry is as deterministic as the replay
itself.

Instruments:

* :class:`WindowedCounter` — per-bucket sums; rolling totals and rates.
  ``observe_total`` mirrors an existing monotonic
  :class:`~repro.obs.registry.Counter` by bucketing its deltas.
* :class:`WindowedGauge` — per-bucket last value and high-watermark.
* :class:`WindowedHistogram` — per-bucket
  :class:`~repro.obs.registry.StreamingHistogram`; rolling quantiles are
  nearest-rank over the window's pooled reservoirs.
* :class:`ExemplarRing` — per-bucket top-K slow-request exemplars, each
  carrying its full segment timeline (a
  :meth:`~repro.obs.record.RequestRecord.exemplar` payload, rendered
  only when the ring is read).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.record import RequestRecord
from repro.obs.registry import StreamingHistogram, nearest_rank

__all__ = [
    "ExemplarRing",
    "TimeSeriesRegistry",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
]


class _BucketRing:
    """Ring of ``n`` fixed-width buckets addressed by timestamp.

    Subclass state lives in per-slot payloads created by ``factory``.
    A payload is recycled (re-created) whenever its slot is claimed by a
    newer bucket index, so a ring never holds data older than the
    window.
    """

    __slots__ = ("width_s", "n_buckets", "_index", "_payload", "_factory")

    def __init__(
        self, width_s: float, n_buckets: int, factory: Callable[[], Any]
    ) -> None:
        if width_s <= 0:
            raise ValueError(f"width_s must be positive, got {width_s}")
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.width_s = width_s
        self.n_buckets = n_buckets
        self._index: List[Optional[int]] = [None] * n_buckets
        self._payload: List[Any] = [None] * n_buckets
        self._factory = factory

    def bucket_index(self, t: float) -> int:
        return int(math.floor(t / self.width_s))

    def payload_at(self, t: float) -> Any:
        """The live payload for time ``t``, resetting a stale slot."""
        idx = self.bucket_index(t)
        slot = idx % self.n_buckets
        if self._index[slot] != idx:
            self._index[slot] = idx
            self._payload[slot] = self._factory()
        return self._payload[slot]

    def live(self, t: float) -> List[Tuple[int, Any]]:
        """``(bucket_index, payload)`` for buckets inside the window at
        ``t``, oldest first.  Buckets never observed are absent."""
        newest = self.bucket_index(t)
        oldest = newest - self.n_buckets + 1
        out: List[Tuple[int, Any]] = []
        for idx in range(oldest, newest + 1):
            slot = idx % self.n_buckets
            if self._index[slot] == idx:
                out.append((idx, self._payload[slot]))
        return out


class WindowedCounter:
    """Per-bucket event sums over a ring of fixed-width buckets."""

    def __init__(self, width_s: float = 1.0, n_buckets: int = 60) -> None:
        self._ring = _BucketRing(width_s, n_buckets, lambda: [0.0])
        self._last_total: Optional[float] = None

    @property
    def width_s(self) -> float:
        return self._ring.width_s

    @property
    def n_buckets(self) -> int:
        return self._ring.n_buckets

    def inc(self, t: float, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"increment must be non-negative, got {n}")
        self._ring.payload_at(t)[0] += n

    def observe_total(self, t: float, total: float) -> None:
        """Mirror a monotonic cumulative counter by bucketing its delta
        since the previous call (first call seeds the baseline)."""
        if self._last_total is None:
            self._last_total = total
            return
        delta = total - self._last_total
        self._last_total = total
        if delta < 0:
            raise ValueError("observe_total requires a monotonic total")
        if delta:
            self.inc(t, delta)

    def total(self, t: float) -> float:
        """Events inside the window at ``t``."""
        return sum(p[0] for _, p in self._ring.live(t))

    def rate(self, t: float) -> float:
        """Events per second over the full window span at ``t``."""
        return self.total(t) / (self._ring.width_s * self._ring.n_buckets)

    def per_bucket(self, t: float) -> List[Tuple[float, float]]:
        """``(bucket_start_s, count)`` rows, oldest first."""
        w = self._ring.width_s
        return [(idx * w, p[0]) for idx, p in self._ring.live(t)]

    def snapshot(self, t: float) -> Dict[str, Any]:
        return {
            "type": "windowed_counter",
            "window_s": self._ring.width_s * self._ring.n_buckets,
            "total": self.total(t),
            "rate": self.rate(t),
            "buckets": self.per_bucket(t),
        }


class WindowedGauge:
    """Per-bucket last value and high-watermark."""

    def __init__(self, width_s: float = 1.0, n_buckets: int = 60) -> None:
        # payload = [last, max]
        self._ring = _BucketRing(
            width_s, n_buckets, lambda: [0.0, float("-inf")]
        )

    @property
    def width_s(self) -> float:
        return self._ring.width_s

    @property
    def n_buckets(self) -> int:
        return self._ring.n_buckets

    def observe(self, t: float, value: float) -> None:
        payload = self._ring.payload_at(t)
        payload[0] = float(value)
        if value > payload[1]:
            payload[1] = float(value)

    def last(self, t: float) -> float:
        live = self._ring.live(t)
        return live[-1][1][0] if live else float("nan")

    def high_watermark(self, t: float) -> float:
        """Largest value observed anywhere in the window (nan if none)."""
        live = self._ring.live(t)
        return max(p[1] for _, p in live) if live else float("nan")

    def per_bucket(self, t: float) -> List[Tuple[float, float, float]]:
        """``(bucket_start_s, last, max)`` rows, oldest first."""
        w = self._ring.width_s
        return [(idx * w, p[0], p[1]) for idx, p in self._ring.live(t)]

    def snapshot(self, t: float) -> Dict[str, Any]:
        live = self._ring.live(t)
        return {
            "type": "windowed_gauge",
            "window_s": self._ring.width_s * self._ring.n_buckets,
            "last": self.last(t) if live else None,
            "high_watermark": self.high_watermark(t) if live else None,
            "buckets": self.per_bucket(t),
        }


#: Per-bucket reservoir size: buckets are short, so a small reservoir
#: keeps the ring cheap while window quantiles pool across buckets.
BUCKET_RESERVOIR = 256


class WindowedHistogram:
    """Per-bucket streaming histograms with rolling window quantiles."""

    def __init__(
        self,
        width_s: float = 1.0,
        n_buckets: int = 60,
        reservoir_size: int = BUCKET_RESERVOIR,
    ) -> None:
        self._ring = _BucketRing(
            width_s,
            n_buckets,
            lambda: StreamingHistogram(reservoir_size=reservoir_size),
        )

    @property
    def width_s(self) -> float:
        return self._ring.width_s

    @property
    def n_buckets(self) -> int:
        return self._ring.n_buckets

    def observe(self, t: float, value: float) -> None:
        self._ring.payload_at(t).add(value)

    def count(self, t: float) -> int:
        return sum(h.count for _, h in self._ring.live(t))

    def total(self, t: float) -> float:
        """Sum of all observed values inside the window at ``t``."""
        return sum(h.total for _, h in self._ring.live(t))

    def quantile(self, t: float, q: float) -> float:
        """Rolling percentile over the window at ``t``.

        Exact at the extremes (tracked min/max); nearest-rank over the
        pooled per-bucket reservoirs in between.  ``nan`` when empty.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        live = [h for _, h in self._ring.live(t) if h.count]
        if not live:
            return float("nan")
        if q == 0:
            return min(h.min for h in live)
        if q == 100:
            return max(h.max for h in live)
        pooled = sorted(x for h in live for x in h.samples())
        return nearest_rank(pooled, q / 100)

    def mean(self, t: float) -> float:
        live = [h for _, h in self._ring.live(t) if h.count]
        if not live:
            return float("nan")
        return sum(h.total for h in live) / sum(h.count for h in live)

    def per_bucket(self, t: float) -> List[Dict[str, Any]]:
        """One summary dict per live bucket, oldest first."""
        w = self._ring.width_s
        rows = []
        for idx, h in self._ring.live(t):
            rows.append(
                {
                    "t_start": idx * w,
                    "count": h.count,
                    "mean": h.total / h.count if h.count else None,
                    "p50": h.quantile(50) if h.count else None,
                    "p99": h.quantile(99) if h.count else None,
                    "max": h.max if h.count else None,
                }
            )
        return rows

    def snapshot(self, t: float) -> Dict[str, Any]:
        n = self.count(t)
        return {
            "type": "windowed_histogram",
            "window_s": self._ring.width_s * self._ring.n_buckets,
            "count": n,
            "mean": self.mean(t) if n else None,
            "p50": self.quantile(t, 50) if n else None,
            "p99": self.quantile(t, 99) if n else None,
            "max": self.quantile(t, 100) if n else None,
            "buckets": self.per_bucket(t),
        }


class ExemplarRing:
    """Top-K slowest requests per bucket, with full segment timelines.

    Aggregates tell you *that* p99 moved; exemplars tell you *why*: each
    retained entry is the complete phase breakdown of one concrete slow
    request.  Retention is per bucket (so a quiet minute cannot be
    crowded out of the ring by a busy one) and bounded to ``k`` entries
    per bucket, kept in descending latency order.

    An entry is a payload dict or a
    :class:`~repro.obs.record.RequestRecord`; a record renders its
    payload in :meth:`top`, so only exemplars that are read pay for it.
    """

    def __init__(
        self, width_s: float = 1.0, n_buckets: int = 60, k: int = 5
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._ring = _BucketRing(width_s, n_buckets, list)

    def observe(self, t: float, latency_s: float, entry: Any) -> None:
        """Offer one completed request; retained iff it is among the
        bucket's ``k`` slowest so far."""
        bucket: List[Tuple[float, Any]] = self._ring.payload_at(t)
        if len(bucket) == self.k and latency_s <= bucket[-1][0]:
            return
        bucket.append((latency_s, entry))
        bucket.sort(key=lambda pair: -pair[0])
        del bucket[self.k:]

    def top(self, t: float, k: Optional[int] = None) -> List[Dict[str, Any]]:
        """The ``k`` slowest exemplars across the whole window at ``t``."""
        k = self.k if k is None else k
        entries = [
            pair for _, bucket in self._ring.live(t) for pair in bucket
        ]
        entries.sort(key=lambda pair: -pair[0])
        return [
            dict(
                entry.exemplar() if isinstance(entry, RequestRecord) else entry,
                latency_s=latency,
            )
            for latency, entry in entries[:k]
        ]

    def snapshot(self, t: float) -> Dict[str, Any]:
        return {
            "type": "exemplars",
            "window_s": self._ring.width_s * self._ring.n_buckets,
            "top": self.top(t),
        }


class TimeSeriesRegistry:
    """Get-or-create registry of named windowed instruments.

    All instruments share one bucket geometry so their per-bucket rows
    line up column-for-column in snapshots and the ``repro top`` view.
    """

    def __init__(self, width_s: float = 1.0, n_buckets: int = 60) -> None:
        if width_s <= 0:
            raise ValueError(f"width_s must be positive, got {width_s}")
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.width_s = width_s
        self.n_buckets = n_buckets
        self._instruments: Dict[str, Any] = {}

    @property
    def window_s(self) -> float:
        return self.width_s * self.n_buckets

    def counter(self, name: str) -> WindowedCounter:
        return self._get_or_create(
            name,
            WindowedCounter,
            lambda: WindowedCounter(self.width_s, self.n_buckets),
        )

    def gauge(self, name: str) -> WindowedGauge:
        return self._get_or_create(
            name,
            WindowedGauge,
            lambda: WindowedGauge(self.width_s, self.n_buckets),
        )

    def histogram(self, name: str) -> WindowedHistogram:
        return self._get_or_create(
            name,
            WindowedHistogram,
            lambda: WindowedHistogram(self.width_s, self.n_buckets),
        )

    def exemplars(self, name: str, k: int = 5) -> ExemplarRing:
        return self._get_or_create(
            name,
            ExemplarRing,
            lambda: ExemplarRing(self.width_s, self.n_buckets, k=k),
        )

    def _get_or_create(self, name, expected_type, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, expected_type):
            raise TypeError(
                f"series {name!r} already registered as "
                f"{type(instrument).__name__}, not {expected_type.__name__}"
            )
        return instrument

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self, t: float) -> Dict[str, Dict[str, Any]]:
        """All windowed instruments evaluated at time ``t``."""
        return {
            name: self._instruments[name].snapshot(t)
            for name in sorted(self._instruments)
        }
