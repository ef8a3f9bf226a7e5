"""The serving stack's always-on telemetry plane.

One :class:`ServeTelemetry` instance rides along with each
:class:`~repro.serve.server.CloudletServer`: the server calls its three
hooks (submit / shed / response) on the request path, and everything
else — rolling windows, slow-request exemplars, SLO burn-rate alerts,
live-view callbacks — derives from those events.  Each completed
response becomes one :class:`~repro.obs.record.RequestRecord`, and
every per-request view (the registry's ``serve.*`` instruments
included) is a fold over it.

Design constraints, in order:

* **deterministic** — all state is keyed by loop-clock timestamps the
  server passes in, so under
  :class:`~repro.serve.vclock.VirtualTimeLoop` two runs of a workload
  produce identical windows, identical exemplars, and identical alert
  sequences;
* **cheap** — a few ring-bucket updates per request, no allocation
  proportional to traffic, no background task (SLO evaluation is
  piggybacked on the first event of each new bucket);
* **complete** — sheds are first-class events, not gaps: shed-rate
  windows and shed-aware SLO rules see every rejected request.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.energy import EnergyWindows
from repro.obs.record import RequestRecord
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOAlert, SLOMonitor, SLOPolicy
from repro.obs.timeseries import TimeSeriesRegistry
from repro.obs.trace import get_tracer
from repro.serve.requests import Overloaded, ServeResponse
from repro.sim.battery import DEFAULT_CAPACITY_J, FleetBatteries

__all__ = ["ServeTelemetry"]

#: Default bucket geometry: 1-second buckets, 2-minute window.
DEFAULT_BUCKET_WIDTH_S = 1.0
DEFAULT_N_BUCKETS = 120
DEFAULT_EXEMPLAR_K = 5


class ServeTelemetry:
    """Windowed metrics + exemplars + SLO monitoring for one server.

    Args:
        bucket_width_s: ring bucket width in loop seconds.
        n_buckets: buckets retained (window = width * buckets).
        exemplar_k: slow-request exemplars kept per bucket.
        slo_policy: optional SLO policy to monitor; alerts surface as
            ``slo_alert`` tracer events and in :meth:`verdict`.
        battery_capacity_j: full-charge energy of each device's modelled
            battery (drained by every attributed response).
        battery_worst_k: most-drained devices surfaced per snapshot.
    """

    def __init__(
        self,
        bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S,
        n_buckets: int = DEFAULT_N_BUCKETS,
        exemplar_k: int = DEFAULT_EXEMPLAR_K,
        slo_policy: Optional[SLOPolicy] = None,
        battery_capacity_j: float = DEFAULT_CAPACITY_J,
        battery_worst_k: int = 8,
    ) -> None:
        self.windows = TimeSeriesRegistry(bucket_width_s, n_buckets)
        w = self.windows
        self._requests = w.counter("serve.requests")
        self._completed = w.counter("serve.completed")
        self._hits = w.counter("serve.hits")
        self._shed = w.counter("serve.shed")
        self._fetches = w.counter("serve.fetches")
        self._piggybacked = w.counter("serve.piggybacked")
        self._sojourn = w.histogram("serve.sojourn_s")
        self._queue_wait = w.histogram("serve.queue_wait_s")
        self._batch_wait = w.histogram("serve.batch_wait_s")
        self._service = w.histogram("serve.service_s")
        #: cloudlet time (edge_hop + edge_serve) of edge-path requests
        self._edge_hop = w.histogram("serve.edge_hop_s")
        #: per-answering-tier completion counters, created lazily
        self._tiers: Dict[str, Any] = {}
        self._inflight = w.gauge("serve.inflight")
        self.exemplars = w.exemplars("serve.slow_requests", k=exemplar_k)
        #: windowed per-request energy attribution + conservation ledger
        self.energy = EnergyWindows(w)
        #: per-device battery drain (projections feed the SLO engine)
        self.batteries = FleetBatteries(capacity_j=battery_capacity_j)
        self.battery_worst_k = battery_worst_k
        self.slo: Optional[SLOMonitor] = (
            SLOMonitor(slo_policy, width_s=bucket_width_s)
            if slo_policy is not None
            else None
        )
        #: called as ``fn(t, self)`` once per completed bucket — the
        #: ``repro top`` live view hangs off this.
        self.on_tick: List[Callable[[float, "ServeTelemetry"], None]] = []
        #: attached :class:`~repro.obs.flight.FlightRecorder` (None when
        #: no black-box capture rides along); set by ``attach()``.
        self.flight: Optional[Any] = None
        #: more folds: ``on_record(record)`` / ``on_shed(t, reply)``
        #: objects (the flight recorder, a run's report)
        self.folds: List[Any] = []
        #: registry of the ``serve.*`` completion instruments (wired by
        #: the server; None folds nothing)
        self.registry: Optional[MetricsRegistry] = None
        #: zero-arg edge-tier stats thunk (``EdgeTier.stats``), wired by
        #: the server when a cloudlet tier is configured — feeds the
        #: per-node Prometheus samples and the flight recorder's
        #: per-tick edge snapshots.
        self.edge_stats_fn: Optional[Callable[[], Dict[str, Any]]] = None
        self._last_bucket: Optional[int] = None
        self._t_last = 0.0

    @property
    def window_s(self) -> float:
        return self.windows.window_s

    @property
    def t_last(self) -> float:
        """Loop time of the latest event seen (0.0 before any)."""
        return self._t_last

    # -- server hooks --------------------------------------------------------

    def on_submit(self, t: float, inflight: int) -> None:
        self._maybe_tick(t)
        self._requests.inc(t)
        self._inflight.observe(t, inflight)

    def on_shed(self, t: float, reply: Overloaded) -> None:
        self._maybe_tick(t)
        self._shed.inc(t)
        if self.slo is not None:
            self.slo.record_request(t, shed=True)
        for fold in self.folds:
            fold.on_shed(t, reply)

    def on_response(self, t: float, response: ServeResponse, inflight: int) -> None:
        """Build the response's :class:`~repro.obs.record.RequestRecord`
        and fold it into every view."""
        self._maybe_tick(t)
        record = RequestRecord.of(t, response)
        if self.registry is not None:
            self._fold_registry(record)
        segments = record.segments
        self._completed.inc(t)
        if record.hit:
            self._hits.inc(t)
        elif record.shared:
            self._piggybacked.inc(t)
        elif segments["batch_wait"] > 0:
            self._fetches.inc(t)
        sojourn = record.sojourn_s
        self._sojourn.observe(t, sojourn)
        self._queue_wait.observe(t, segments["queue_wait"])
        self._batch_wait.observe(t, segments["batch_wait"])
        self._service.observe(t, segments["service"])
        self._inflight.observe(t, inflight)
        tier_counter = self._tiers.get(record.tier)
        if tier_counter is None:
            tier_counter = self.windows.counter("serve.tier." + record.tier)
            self._tiers[record.tier] = tier_counter
        tier_counter.inc(t)
        edge_s = segments["edge_hop"] + segments["edge_serve"]
        if edge_s > 0:
            self._edge_hop.observe(t, edge_s)
        burn_per_day: Optional[float] = None
        if record.energy is not None:
            self.energy.on_request(
                t,
                source=record.source,
                hit=record.hit,
                breakdown=record.energy,
                timeline_j=record.timeline_j,
            )
            self.batteries.drain(record.device_id, record.energy_j, t)
            burn_per_day = self.batteries.burn_per_day(record.device_id, t)
        if record.trace is not None:
            self.exemplars.observe(t, sojourn, record)
        if self.slo is not None:
            self.slo.record_request(
                t,
                latency_s=sojourn,
                hit=record.hit,
                energy_j=record.energy_j,
                battery_burn_per_day=burn_per_day,
            )
        for fold in self.folds:
            fold.on_record(record)

    def _fold_registry(self, record: RequestRecord) -> None:
        reg = self.registry
        reg.counter("serve.completed").inc()
        if record.hit:
            reg.counter("serve.hits").inc()
        else:
            reg.counter("serve.misses").inc()
        if record.shared:
            reg.counter("serve.shared_fetches").inc()
        reg.counter("serve.tier." + record.tier).inc()
        reg.histogram("serve.queue_wait_s").add(record.segments["queue_wait"])
        reg.histogram("serve.sojourn_s").add(record.sojourn_s)
        if record.energy is not None:
            reg.histogram("serve.energy_j").add(record.energy_j)

    # -- bucket ticks --------------------------------------------------------

    def _maybe_tick(self, t: float) -> None:
        """Run once-per-bucket work when an event lands in a new bucket."""
        self._t_last = max(self._t_last, t)
        bucket = int(t // self.windows.width_s)
        if self._last_bucket is None:
            self._last_bucket = bucket
            return
        if bucket == self._last_bucket:
            return
        # Evaluate at the boundary the previous bucket closed on, so
        # alert timestamps are bucket-aligned and run-to-run stable.
        t_eval = bucket * self.windows.width_s
        self._last_bucket = bucket
        self._evaluate(t_eval)
        for callback in self.on_tick:
            callback(t_eval, self)

    def _evaluate(self, t: float) -> List[SLOAlert]:
        if self.slo is None:
            return []
        fired = self.slo.evaluate(t)
        if fired:
            tracer = get_tracer()
            for alert in fired:
                tracer.event("slo_alert", **alert.to_dict())
            if self.flight is not None:
                self.flight.on_alerts(t, fired)
        return fired

    def finalize(self, t: Optional[float] = None) -> None:
        """Close out the run: one last SLO evaluation at ``t`` (defaults
        to the latest event time)."""
        self._evaluate(self._t_last if t is None else t)

    def verdict(self) -> Optional[Dict[str, Any]]:
        """The SLO verdict (None when no policy is attached)."""
        return self.slo.verdict() if self.slo is not None else None

    # -- read side -----------------------------------------------------------

    def rolling(self, t: float) -> Dict[str, Any]:
        """Headline rolling stats over the window ending at ``t``."""
        requests = self._requests.total(t)
        completed = self._completed.total(t)
        shed = self._shed.total(t)
        fetches = self._fetches.total(t)
        piggybacked = self._piggybacked.total(t)
        shared_total = fetches + piggybacked
        return {
            "request_rate_rps": self._requests.rate(t),
            "completed_rate_rps": self._completed.rate(t),
            "requests": requests,
            "completed": completed,
            "shed": shed,
            "hit_rate": (
                self._hits.total(t) / completed if completed else float("nan")
            ),
            "shed_rate": shed / requests if requests else 0.0,
            "sojourn_p50_s": self._sojourn.quantile(t, 50),
            "sojourn_p99_s": self._sojourn.quantile(t, 99),
            "queue_wait_p99_s": self._queue_wait.quantile(t, 99),
            "batch_wait_p99_s": self._batch_wait.quantile(t, 99),
            "service_p99_s": self._service.quantile(t, 99),
            "batch_efficiency": (
                piggybacked / shared_total if shared_total else 0.0
            ),
            "edge_hop_p99_s": self._edge_hop.quantile(t, 99),
            "tiers": {
                name: counter.total(t)
                for name, counter in sorted(self._tiers.items())
            },
            "inflight": self._inflight.last(t),
            "inflight_hwm": self._inflight.high_watermark(t),
        }

    def per_bucket(self, t: float) -> List[Dict[str, Any]]:
        """Aligned per-bucket rows (completed, hit rate, shed, p99,
        in-flight high-watermark), oldest first."""
        completed = dict(self._completed.per_bucket(t))
        hits = dict(self._hits.per_bucket(t))
        shed = dict(self._shed.per_bucket(t))
        requests = dict(self._requests.per_bucket(t))
        inflight = {
            row[0]: row[2] for row in self._inflight.per_bucket(t)
        }
        sojourn = {
            row["t_start"]: row for row in self._sojourn.per_bucket(t)
        }
        starts = sorted(
            set(completed) | set(shed) | set(requests) | set(inflight)
            | set(sojourn)
        )
        rows = []
        for start in starts:
            done = completed.get(start, 0.0)
            hit = hits.get(start, 0.0)
            srow = sojourn.get(start, {})
            rows.append(
                {
                    "t_start": start,
                    "requests": requests.get(start, 0.0),
                    "completed": done,
                    "shed": shed.get(start, 0.0),
                    "hit_rate": hit / done if done else None,
                    "sojourn_p50_s": srow.get("p50"),
                    "sojourn_p99_s": srow.get("p99"),
                    "inflight_hwm": inflight.get(start),
                }
            )
        return rows

    def prometheus_samples(self, t: Optional[float] = None) -> List[Any]:
        """Labeled gauge samples for the Prometheus endpoint.

        Per-source rolling wattage and joules, the fleet battery
        aggregates, and the worst-drained devices' charge levels —
        dimensions the flat process registry cannot carry.
        """
        t = self._t_last if t is None else t
        samples: List[Any] = []
        rolling = self.energy.rolling(t)
        for source, stats in rolling["sources"].items():
            labels = {"source": source}
            samples.append(("serve.energy.source_power_w", labels, stats["power_w"]))
            samples.append(("serve.energy.source_joules", labels, stats["energy_j"]))
        conservation = rolling["conservation"]
        samples.append(
            ("serve.energy.attributed_radio_j", {},
             conservation["attributed_radio_j"])
        )
        samples.append(
            ("serve.energy.timeline_radio_j", {},
             conservation["timeline_radio_j"])
        )
        batteries = self.batteries.snapshot(t, worst_k=self.battery_worst_k)
        if batteries["n_devices"]:
            samples.append(
                ("serve.battery.min_level", {}, batteries["min_level"])
            )
            samples.append(
                ("serve.battery.mean_level", {}, batteries["mean_level"])
            )
            for row in batteries["worst"]:
                samples.append(
                    (
                        "serve.battery.level",
                        {"device": str(row["device_id"])},
                        row["level"],
                    )
                )
        if self.edge_stats_fn is not None:
            for node in self.edge_stats_fn()["nodes"]:
                labels = {"node": str(node["node_id"])}
                for field, value in (
                    ("hits", node["hits"]),
                    ("misses", node["misses"]),
                    ("inflight", node["inflight"]),
                    ("sheds", node["sheds"]),
                    ("slice_size", node["size"]),
                ):
                    samples.append(
                        ("serve.edge.node_" + field, labels, value)
                    )
        return samples

    def snapshot(self, t: Optional[float] = None) -> Dict[str, Any]:
        """One JSON-ready document: rolling stats, per-bucket series,
        exemplars, and SLO status — the ``/metrics.json`` extra section
        and the ``repro top`` data source."""
        t = self._t_last if t is None else t
        doc: Dict[str, Any] = {
            "t": t,
            "bucket_width_s": self.windows.width_s,
            "window_s": self.windows.window_s,
            "rolling": self.rolling(t),
            "per_bucket": self.per_bucket(t),
            "exemplars": self.exemplars.top(t),
            "energy": self.energy.snapshot(t),
            "batteries": self.batteries.snapshot(
                t, worst_k=self.battery_worst_k
            ),
        }
        if self.slo is not None:
            doc["slo"] = {
                "status": self.slo.status(t),
                "alerts_total": len(self.slo.alerts),
            }
        if self.flight is not None:
            doc["flight"] = self.flight.status()
        return doc
