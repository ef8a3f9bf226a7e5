"""One record per completed request, folded by every serve observer.

Like the paper's per-request cost split (Table 4), the serving stack
describes each completed request once: the telemetry plane builds one
immutable :class:`RequestRecord` per response, and every view — the
registry's ``serve.*`` instruments, the rolling windows, energy and
battery, the SLO monitor, the exemplars, the flight recorder and the
run report — is a fold over it.  ``obs`` may not import ``serve``, so
:meth:`RequestRecord.of` reads a
:class:`~repro.serve.requests.ServeResponse` by duck typing.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional

__all__ = ["RequestRecord", "SEGMENT_NAMES", "TIER_NAMES", "hop_split"]

#: Fields of the flight bundle's ``request`` row (besides ``kind``).
_ROW_FIELDS = (
    "t", "trace_id", "device_id", "key", "hit", "shared", "tier",
    "edge_node", "sojourn_s", "segments", "energy_j", "hop_err_s",
    "hop_err_j",
)

#: Segment names every response breakdown reports, in causal order.
#: The edge segments stay 0.0 when no cloudlet tier is configured.
SEGMENT_NAMES = (
    "queue_wait",
    "refresh_blocked",
    "edge_hop",
    "edge_serve",
    "batch_wait",
    "service",
)

#: The serving tiers a request can be answered by, fetch-chain order.
TIER_NAMES = ("device", "edge", "origin")


def hop_split(
    segments: Dict[str, float], energy: Any, tier: str
) -> Dict[str, Dict[str, float]]:
    """Per-tier latency seconds and attributed joules.

    Latency goes to the tier that spent it (device: queueing, refresh
    blocking, local service; edge: the cloudlet round trip and service;
    origin: the batched radio fetch).  Radio joules go to the tier the
    radio reached (the device itself for hits); storage, render and
    base joules stay on the device.  Both re-sum to the end-to-end
    seconds / joules within 1e-9 (float association order).
    """
    latency = {
        "device": (segments["queue_wait"] + segments["refresh_blocked"])
        + segments["service"],
        "edge": segments["edge_hop"] + segments["edge_serve"],
        "origin": segments["batch_wait"],
    }
    joules = {name: 0.0 for name in TIER_NAMES}
    if energy is not None:
        joules["device"] = (energy.storage_j + energy.render_j) + energy.base_j
        radio_tier = tier if tier in TIER_NAMES else "device"
        joules[radio_tier] += energy.radio_j
    return {
        name: {"latency_s": latency[name], "energy_j": joules[name]}
        for name in TIER_NAMES
    }


class RequestRecord(NamedTuple):
    """Everything the observers need about one completed request.

    A named tuple: immutable and cheap to build on the request path.
    ``t`` is the loop-clock completion time, ``source`` the outcome's
    service source (``"cache"``, ``"3g"``, ...), ``energy`` the
    attributed :class:`~repro.obs.energy.EnergyBreakdown` (None without
    one; ``energy_j`` is then None too) and ``timeline_j`` the radio
    timeline joules the request reports to the conservation ledger.
    ``hop_err_s`` / ``hop_err_j`` are the re-sum errors of the segments
    against the sojourn and of the energy components against their
    total.  ``trace`` is kept so an exemplar can render its timeline
    when the ring is read (:meth:`exemplar`).
    """

    t: float
    trace_id: Optional[int]
    device_id: int
    key: str
    hit: bool
    shared: bool
    tier: str
    edge_node: Optional[int]
    source: str
    sojourn_s: float
    segments: Dict[str, float]
    energy: Any
    energy_j: Optional[float]
    timeline_j: float
    hop_err_s: float
    hop_err_j: float
    trace: Any

    @classmethod
    def of(cls, t: float, response: Any) -> "RequestRecord":
        """The record of ``response`` completed at loop time ``t``."""
        segments = response.breakdown()
        sojourn = response.sojourn_s
        energy = response.energy
        if energy is not None:
            energy_j = energy.total_j
            err_j = abs(
                ((energy.storage_j + energy.render_j) + energy.base_j)
                + energy.radio_j
                - energy_j
            )
        else:
            energy_j = None
            err_j = 0.0
        request = response.request
        outcome = response.outcome
        return cls(
            t=t,
            trace_id=response.trace_id,
            device_id=request.device_id,
            key=request.key,
            hit=outcome.hit,
            shared=response.shared_fetch,
            tier=response.tier,
            edge_node=response.edge_node,
            source=outcome.source.value,
            sojourn_s=sojourn,
            segments=segments,
            energy=energy,
            energy_j=energy_j,
            timeline_j=response.radio_timeline_j,
            hop_err_s=abs(sum(segments.values()) - sojourn),
            hop_err_j=err_j,
            trace=response.trace,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The flight bundle's ``request`` row."""
        row: Dict[str, Any] = {"kind": "request"}
        for name in _ROW_FIELDS:
            row[name] = getattr(self, name)
        return row

    def exemplar(self) -> Dict[str, Any]:
        """The slow-request exemplar payload: the full trace timeline
        plus who asked what and which tier answered."""
        payload = self.trace.to_dict()
        payload.update(
            device_id=self.device_id, key=self.key, hit=self.hit, tier=self.tier
        )
        if self.edge_node is not None:
            payload["edge_node"] = self.edge_node
        return payload
