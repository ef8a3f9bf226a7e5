"""Request/response types of the online serving layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.obs.energy import EnergyBreakdown
from repro.obs.record import SEGMENT_NAMES, TIER_NAMES, hop_split
from repro.obs.trace import TraceContext
from repro.pocketsearch.content import DEFAULT_RECORD_BYTES
from repro.sim.metrics import QueryOutcome

__all__ = [
    "Overloaded",
    "SEGMENT_NAMES",
    "ServeRequest",
    "ServeResponse",
    "ServeReply",
    "TIER_NAMES",
]


@dataclass(frozen=True)
class ServeRequest:
    """One live request from a device.

    Attributes:
        device_id: the phone issuing the request (one cache per device).
        key: the lookup key — a query string for PocketSearch, a URL for
            PocketWeb, a packed tile key for PocketMaps.
        timestamp: logical event time in log seconds; carried into the
            recorded :class:`~repro.sim.metrics.QueryOutcome` so serve
            accounting lines up with replay accounting.
        clicked_url: the result the user selects (drives personalization).
        record_bytes: stored size of the clicked result.
        navigational: optional nav flag recorded in the outcome.
    """

    device_id: int
    key: str
    timestamp: float = 0.0
    clicked_url: str = ""
    record_bytes: int = DEFAULT_RECORD_BYTES
    navigational: Optional[bool] = None


@dataclass(frozen=True)
class ServeResponse:
    """A served (admitted and completed) request.

    Times are loop-clock seconds (simulated or wall, depending on the
    loop the server ran under).  The *modelled* device-side cost lives in
    ``outcome``; queueing the serve layer added on top is the difference
    between ``sojourn_s`` and the model latency.
    """

    request: ServeRequest
    outcome: QueryOutcome
    enqueued_at: float
    started_at: float
    completed_at: float
    #: miss piggybacked on another device's identical in-flight fetch
    shared_fetch: bool = False
    #: request-scoped trace: id + causally ordered phase segments
    trace: Optional[TraceContext] = field(default=None, compare=False)
    #: attributed energy breakdown (shared-fetch radio energy already
    #: split across participants); observability metadata, never fed
    #: back into ``outcome``
    energy: Optional[EnergyBreakdown] = field(default=None, compare=False)
    #: simulated radio-timeline joules this response reports for the
    #: conservation ledger (full fetch for a leader/solo, 0.0 for riders)
    radio_timeline_j: float = field(default=0.0, compare=False)
    #: which tier answered: ``"device"`` (personal cache hit), ``"edge"``
    #: (owning cloudlet's community slice), or ``"origin"`` (full fetch)
    tier: str = field(default="device", compare=False)
    #: cloudlet node consulted on the edge path (None off the edge path)
    edge_node: Optional[int] = field(default=None, compare=False)

    ok = True

    @property
    def queue_wait_s(self) -> float:
        return self.started_at - self.enqueued_at

    @property
    def sojourn_s(self) -> float:
        """Submission-to-completion time as the user experienced it."""
        return self.completed_at - self.enqueued_at

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None

    @property
    def energy_j(self) -> float:
        """Total attributed joules (0.0 when no breakdown was recorded)."""
        return self.energy.total_j if self.energy is not None else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Phase -> seconds over :data:`SEGMENT_NAMES`.

        Segments telescope between consecutive trace marks, so the
        values sum *exactly* to ``sojourn_s`` — the property the
        trace-propagation tests assert to 1e-9.
        """
        if self.trace is None:
            out = {name: 0.0 for name in SEGMENT_NAMES}
            out["queue_wait"] = self.queue_wait_s
            out["service"] = self.sojourn_s - self.queue_wait_s
            return out
        got = self.trace.breakdown()
        return {name: got.get(name, 0.0) for name in SEGMENT_NAMES}

    def hop_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-tier latency seconds and attributed joules
        (:func:`~repro.obs.record.hop_split` of :meth:`breakdown`)."""
        return hop_split(self.breakdown(), self.energy, self.tier)


@dataclass(frozen=True)
class Overloaded:
    """Typed shed response: the server refused the request at admission.

    Reasons:
        ``"device-queue-full"`` — the per-device bounded queue was full;
        ``"server-busy"`` — the global in-flight cap was reached;
        ``"edge-queue-full"`` — the owning cloudlet node's in-flight
        bound was reached (shed mid-flight, on the edge hop).
    """

    request: ServeRequest
    reason: str
    t: float
    #: trace of the rejected request (one ``shed`` segment)
    trace: Optional[TraceContext] = field(default=None, compare=False)

    ok = False

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None


#: What a submitted request resolves to.
ServeReply = Union[ServeResponse, Overloaded]
