"""Lightweight span tracer with ring-buffered JSONL export.

Instrumented code asks for the module-level tracer at call time and opens
spans around interesting work::

    from repro.obs.trace import get_tracer

    def serve(query):
        tracer = get_tracer()
        with tracer.span("serve_query", query=query) as span:
            ...
            span.set_attr("hit", hit)

By default :func:`get_tracer` returns a shared no-op singleton whose
``span()`` hands back one reusable null context manager — no allocation,
no clock reads — so instrumentation is near-free until a caller installs
a recording tracer with :func:`enable`.  Inner loops that want to skip
even attribute packing can guard on ``tracer.enabled``.

The recording tracer keeps the newest ``capacity`` records in a ring
buffer (old spans fall off the back of million-query replays instead of
exhausting memory) and serializes them to JSON Lines, one record per
line, via :meth:`Tracer.export_jsonl`.

The tracer tracks the open-span stack in a :class:`~contextvars.ContextVar`,
so spans nest correctly both across worker threads *and* across
interleaved asyncio tasks: each task (and each thread) sees its own
stack, and a task spawned inside a span parents its spans under the span
that was open at spawn time.  Record storage is guarded by a lock, so
many tasks and threads can finish spans concurrently.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "Segment",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "disable",
    "enable",
    "get_tracer",
    "set_tracer",
]

#: Default ring-buffer capacity: enough for a full small replay while
#: bounding memory for unbounded runs (~150 bytes/record -> ~40 MB).
DEFAULT_CAPACITY = 262_144


@dataclass
class SpanRecord:
    """One completed span or point event.

    Attributes:
        name: span name (e.g. ``"serve_query"``).
        span_id: unique id within this tracer.
        parent_id: enclosing span's id, or ``None`` at top level.
        t_start: start offset in seconds since the tracer was created.
        duration_s: wall-clock duration (0.0 for point events).
        kind: ``"span"`` or ``"event"``.
        attrs: caller-supplied attributes.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    t_start: float
    duration_s: float
    kind: str = "span"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start": self.t_start,
            "duration_s": self.duration_s,
            "kind": self.kind,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class Segment:
    """One contiguous phase of a request's lifetime.

    Attributes:
        name: phase label (``"queue_wait"``, ``"batch_wait"``,
            ``"service"``, ``"refresh_blocked"``, ...).
        t_start: loop-clock start of the phase.
        t_end: loop-clock end of the phase.
    """

    name: str
    t_start: float
    t_end: float

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration_s": self.duration_s,
        }


class TraceContext:
    """Request-scoped trace: one id plus causally ordered phase marks.

    A context is created at admission time and threaded along with the
    request (queue tuple → session worker → miss batcher), collecting a
    *mark* at each phase boundary.  Phases are defined **between
    consecutive marks**, so the segment durations telescope: their sum
    is exactly ``last mark - first mark``, which is what lets a response
    assert ``queue_wait + refresh_blocked + batch_wait + service ==
    end-to-end latency`` to float equality rather than within some
    slop.

    Marks carry the *name of the phase they end*.  ``annotations`` is a
    free-form dict for causal links (e.g. the leader trace a piggybacked
    miss rode on) and backend facts (hit/miss, refreshes applied).

    ``energy`` mirrors the time breakdown in joules: the serving layer
    attaches an :class:`~repro.obs.energy.EnergyBreakdown` once the
    request's share of the radio timeline is known (post miss-batching),
    and it rides along into exemplar payloads via :meth:`to_dict`.
    """

    __slots__ = ("trace_id", "marks", "annotations", "energy")

    def __init__(self, trace_id: int, t_origin: float) -> None:
        self.trace_id = trace_id
        #: ``(phase_name, t)`` pairs; index 0 is the origin mark.
        self.marks: List[Tuple[str, float]] = [("enqueued", t_origin)]
        self.annotations: Dict[str, Any] = {}
        #: attributed energy breakdown (set by the serving layer)
        self.energy: Optional[Any] = None

    @property
    def t_origin(self) -> float:
        return self.marks[0][1]

    @property
    def t_last(self) -> float:
        return self.marks[-1][1]

    def mark(self, phase: str, t: float) -> None:
        """Close phase ``phase`` at loop time ``t``."""
        self.marks.append((phase, t))

    def annotate(self, **attrs: Any) -> None:
        self.annotations.update(attrs)

    def segments(self) -> List[Segment]:
        """The causally ordered phase timeline."""
        return [
            Segment(name, self.marks[i - 1][1], t)
            for i, (name, t) in enumerate(self.marks)
            if i > 0
        ]

    def breakdown(self) -> Dict[str, float]:
        """Phase -> seconds; keys in first-marked order."""
        out: Dict[str, float] = {}
        for i, (name, t) in enumerate(self.marks):
            if i == 0:
                continue
            out[name] = out.get(name, 0.0) + (t - self.marks[i - 1][1])
        return out

    def end_to_end_s(self) -> float:
        """First mark to last mark — the full traced lifetime."""
        return self.t_last - self.t_origin

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "trace_id": self.trace_id,
            "t_origin": self.t_origin,
            "end_to_end_s": self.end_to_end_s(),
            "segments": [s.to_dict() for s in self.segments()],
            "breakdown": self.breakdown(),
            "annotations": dict(self.annotations),
        }
        if self.energy is not None:
            out["energy"] = self.energy.to_dict()
        return out


class _ActiveSpan:
    """An open span; used as a context manager."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "t_start", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        t_start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start = t_start
        self.attrs = attrs

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        """Attach several attributes to the span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)
        return False


class _NullSpan:
    """Reusable do-nothing span handed out by the disabled tracer."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``span()`` returns one shared null context manager, so the cost of an
    instrumented call site with tracing off is a method call and nothing
    else.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def records(self) -> List[SpanRecord]:
        return []

    def clear(self) -> None:
        pass

    def export_jsonl(self, path: str) -> int:
        raise RuntimeError(
            "tracing is disabled; call repro.obs.trace.enable() first"
        )


NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer with a bounded ring buffer.

    Args:
        capacity: maximum retained records; older records are evicted.
        clock: monotonic time source (injectable for tests).
        sample_rate: fraction of finished records kept, in (0, 1].
            Sampling is *systematic* (an accumulator keeps every
            ``1/rate``-th record) rather than random, so a sampled trace
            of a deterministic run is itself deterministic.  Sampled-out
            records count toward :attr:`spans_dropped` so a thinned
            trace is detectable from its meta line.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.perf_counter,
        sample_rate: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {sample_rate}"
            )
        self.capacity = capacity
        self.sample_rate = sample_rate
        self._sample_acc = 0.0
        self.sampled_out = 0  # records discarded by sampling
        self._clock = clock
        self._epoch = clock()
        self._records: deque = deque(maxlen=capacity)
        # The open-span stack is an immutable tuple held in a ContextVar:
        # every thread and every asyncio task sees (and rebinds) its own
        # stack, so concurrent spans never corrupt each other's parents.
        self._stack_var: ContextVar[Tuple["_ActiveSpan", ...]] = ContextVar(
            "repro_obs_span_stack", default=()
        )
        self._lock = threading.Lock()
        self._next_id = 0
        self.dropped = 0  # records evicted from the ring
        self._drop_warned = False

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        stack = self._stack_var.get()
        parent_id = stack[-1].span_id if stack else None
        span = _ActiveSpan(
            self, name, self._new_id(), parent_id, self._now(), attrs
        )
        self._stack_var.set(stack + (span,))
        return span

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration point event under the current span."""
        stack = self._stack_var.get()
        parent_id = stack[-1].span_id if stack else None
        self._append(
            SpanRecord(
                name=name,
                span_id=self._new_id(),
                parent_id=parent_id,
                t_start=self._now(),
                duration_s=0.0,
                kind="event",
                attrs=attrs,
            )
        )

    def _finish(self, span: _ActiveSpan) -> None:
        stack = self._stack_var.get()
        # Tolerate out-of-order exits (generators, exceptions): unwind to
        # the closing span rather than corrupting the stack.  A span
        # finished from a different task/thread than the one that opened
        # it simply isn't on this context's stack — leave it untouched.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                self._stack_var.set(stack[:i])
                break
        self._append(
            SpanRecord(
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                t_start=span.t_start,
                duration_s=self._now() - span.t_start,
                kind="span",
                attrs=span.attrs,
            )
        )

    # -- record access ------------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """A snapshot of the retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all retained records (open spans are unaffected)."""
        with self._lock:
            self._records.clear()
            self.dropped = 0
            self.sampled_out = 0
            self._sample_acc = 0.0
            self._drop_warned = False

    @property
    def spans_dropped(self) -> int:
        """Records not retained since the last clear: ring evictions
        plus records discarded by the sampler."""
        return self.dropped + self.sampled_out

    def export_jsonl(self, path: str) -> int:
        """Write retained records as JSON Lines; returns the record count.

        The first line is a ``meta`` record carrying the ring capacity
        and the eviction count, so a truncated trace is detectable from
        the file alone.
        """
        records = self.records()
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "meta",
                        "capacity": self.capacity,
                        "spans_dropped": self.spans_dropped,
                        "sampled_out": self.sampled_out,
                        "sample_rate": self.sample_rate,
                        "n_records": len(records),
                    }
                )
                + "\n"
            )
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        return len(records)

    # -- internals ----------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _append(self, record: SpanRecord) -> None:
        warn_now = False
        with self._lock:
            if self.sample_rate < 1.0:
                self._sample_acc += self.sample_rate
                if self._sample_acc >= 1.0:
                    self._sample_acc -= 1.0
                else:
                    self.sampled_out += 1
                    return
            if len(self._records) == self.capacity:
                self.dropped += 1
                if not self._drop_warned:
                    self._drop_warned = True
                    warn_now = True
            self._records.append(record)
        if warn_now:
            warnings.warn(
                f"span ring buffer full (capacity {self.capacity}); oldest "
                "spans are being dropped — raise the tracer capacity for a "
                "complete trace",
                RuntimeWarning,
                stacklevel=3,
            )


# -- module-level tracer -----------------------------------------------------

_tracer = NULL_TRACER


def get_tracer():
    """The process-wide tracer (a no-op singleton unless enabled)."""
    return _tracer


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the process-wide tracer."""
    global _tracer
    _tracer = tracer


def enable(
    capacity: int = DEFAULT_CAPACITY, sample_rate: float = 1.0
) -> Tracer:
    """Install and return a fresh recording tracer."""
    tracer = Tracer(capacity=capacity, sample_rate=sample_rate)
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Restore the no-op tracer."""
    set_tracer(NULL_TRACER)


def load_jsonl(path: str) -> List[SpanRecord]:
    """Read a trace file written by :meth:`Tracer.export_jsonl`."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if raw.get("kind") == "meta":
                continue
            records.append(
                SpanRecord(
                    name=raw["name"],
                    span_id=raw["span_id"],
                    parent_id=raw["parent_id"],
                    t_start=raw["t_start"],
                    duration_s=raw["duration_s"],
                    kind=raw.get("kind", "span"),
                    attrs=raw.get("attrs", {}),
                )
            )
    return records


def span_breakdown(records: Iterable[SpanRecord]) -> List[Dict[str, Any]]:
    """Aggregate records into a per-name span-time table.

    Self time is a span's duration minus its direct children's durations
    (events contribute zero).  Rows are sorted by total self time,
    descending — the profile view of ``repro profile``.
    """
    records = list(records)
    child_time: Dict[int, float] = {}
    for r in records:
        if r.parent_id is not None:
            child_time[r.parent_id] = (
                child_time.get(r.parent_id, 0.0) + r.duration_s
            )
    rows: Dict[str, Dict[str, Any]] = {}
    for r in records:
        row = rows.setdefault(
            r.name,
            {"name": r.name, "kind": r.kind, "count": 0, "total_s": 0.0,
             "self_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += r.duration_s
        row["self_s"] += max(0.0, r.duration_s - child_time.get(r.span_id, 0.0))
    out = sorted(rows.values(), key=lambda d: d["self_s"], reverse=True)
    for row in out:
        row["mean_ms"] = row["total_s"] / row["count"] * 1e3
    return out
