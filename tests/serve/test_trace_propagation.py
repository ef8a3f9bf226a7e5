"""Trace propagation through the serving stack under the virtual clock.

The acceptance bar: every reply carries a trace id, segment breakdowns
sum to end-to-end latency within 1e-9 (they are exact by construction —
segments telescope between marks), and segment timelines are identical
run-to-run under :class:`~repro.serve.vclock.VirtualTimeLoop`.
"""

import asyncio

from repro.obs.registry import MetricsRegistry
from repro.serve.backends import BackendResult
from repro.serve.requests import (
    Overloaded,
    SEGMENT_NAMES,
    ServeRequest,
    ServeResponse,
)
from repro.serve.server import CloudletServer, ServeConfig
from repro.serve.vclock import run_simulated
from repro.sim.metrics import QueryOutcome, ServiceSource


class StubBackend:
    """Hits on keys in ``cached``; misses pay radio + local time."""

    def __init__(
        self,
        cached=frozenset(),
        hit_latency_s=0.1,
        miss_latency_s=2.0,
        radio_s=1.5,
        annotations=None,
    ):
        self.cached = set(cached)
        self.hit_latency_s = hit_latency_s
        self.miss_latency_s = miss_latency_s
        self.radio_s = radio_s
        self.annotations = dict(annotations or {})

    def serve(self, request: ServeRequest) -> BackendResult:
        hit = request.key in self.cached
        outcome = QueryOutcome(
            query=request.key,
            hit=hit,
            source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
            latency_s=self.hit_latency_s if hit else self.miss_latency_s,
            energy_j=0.0,
            timestamp=request.timestamp,
        )
        return BackendResult(
            outcome=outcome,
            radio_s=0.0 if hit else self.radio_s,
            annotations=dict(self.annotations),
        )


def _request(device_id=1, key="q", timestamp=0.0):
    return ServeRequest(device_id=device_id, key=key, timestamp=timestamp)


async def _mixed_scenario():
    """Hits, leader/rider misses, and queue pressure on two devices."""
    server = CloudletServer(
        lambda uid: StubBackend(cached={"hit"}),
        ServeConfig(queue_depth=64),
        registry=MetricsRegistry(),
    )
    futures = [server.submit(_request(device_id=1, key="hit"))]
    futures.append(server.submit(_request(device_id=1, key="miss-a")))
    futures.append(server.submit(_request(device_id=2, key="miss-a")))
    futures.append(server.submit(_request(device_id=2, key="hit")))
    await asyncio.sleep(0.05)
    futures.append(server.submit(_request(device_id=1, key="miss-b")))
    await server.drain()
    replies = [f.result() for f in futures]
    await server.close()
    return replies


class TestTraceIds:
    def test_every_reply_has_a_unique_trace_id(self):
        replies = run_simulated(_mixed_scenario())
        ids = [r.trace_id for r in replies]
        assert all(isinstance(i, int) and i > 0 for i in ids)
        assert len(set(ids)) == len(ids)

    def test_trace_ids_are_submission_ordered(self):
        replies = run_simulated(_mixed_scenario())
        assert [r.trace_id for r in replies] == [1, 2, 3, 4, 5]

    def test_sheds_carry_traces_too(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(cached={"q"}),
                ServeConfig(queue_depth=1),
                registry=MetricsRegistry(),
            )
            futures = [
                server.submit(_request(key=f"q{i}")) for i in range(4)
            ]
            await server.drain()
            replies = [f.result() for f in futures]
            await server.close()
            return replies

        replies = run_simulated(scenario())
        sheds = [r for r in replies if isinstance(r, Overloaded)]
        assert sheds
        for shed in sheds:
            assert shed.trace_id is not None
            assert shed.trace.annotations["shed_reason"] == shed.reason
            # A shed trace is closed at admission: zero-length lifetime.
            assert shed.trace.end_to_end_s() == 0.0


class TestSegmentBreakdown:
    def test_breakdown_sums_to_sojourn_exactly(self):
        replies = run_simulated(_mixed_scenario())
        responses = [r for r in replies if isinstance(r, ServeResponse)]
        assert responses
        for response in responses:
            breakdown = response.breakdown()
            assert set(breakdown) == set(SEGMENT_NAMES)
            assert abs(sum(breakdown.values()) - response.sojourn_s) <= 1e-9

    def test_segments_match_legacy_timestamps(self):
        replies = run_simulated(_mixed_scenario())
        for response in replies:
            if not isinstance(response, ServeResponse):
                continue
            breakdown = response.breakdown()
            assert breakdown["queue_wait"] == (
                response.started_at - response.enqueued_at
            )
            assert response.trace.t_origin == response.enqueued_at
            assert response.trace.t_last == response.completed_at

    def test_miss_pays_batch_wait_hit_does_not(self):
        replies = run_simulated(_mixed_scenario())
        by_key = {}
        for r in replies:
            if isinstance(r, ServeResponse):
                by_key.setdefault(r.request.key, []).append(r)
        for hit in by_key["hit"]:
            assert hit.breakdown()["batch_wait"] == 0.0
        for miss in by_key["miss-a"]:
            assert miss.breakdown()["batch_wait"] > 0.0

    def test_backend_annotations_land_in_trace(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(annotations={"refreshes_applied": 2}),
                registry=MetricsRegistry(),
            )
            future = server.submit(_request(key="miss"))
            await server.drain()
            reply = future.result()
            await server.close()
            return reply

        reply = run_simulated(scenario())
        assert reply.trace.annotations["refreshes_applied"] == 2


class TestBatcherCausality:
    def test_rider_links_to_leader_and_leader_counts_riders(self):
        replies = run_simulated(_mixed_scenario())
        misses = [
            r for r in replies
            if isinstance(r, ServeResponse) and r.request.key == "miss-a"
        ]
        assert len(misses) == 2
        leaders = [m for m in misses if not m.shared_fetch]
        riders = [m for m in misses if m.shared_fetch]
        assert len(leaders) == 1 and len(riders) == 1
        leader, rider = leaders[0], riders[0]
        assert leader.trace.annotations["batch_role"] == "leader"
        assert leader.trace.annotations["batch_riders"] == 1
        assert rider.trace.annotations["batch_role"] == "rider"
        assert (
            rider.trace.annotations["batch_leader_trace"]
            == leader.trace_id
        )


class TestDeterminism:
    def test_segment_timelines_identical_run_to_run(self):
        def timelines():
            replies = run_simulated(_mixed_scenario())
            return [
                (
                    reply.trace_id,
                    tuple(reply.trace.marks),
                    tuple(sorted(reply.trace.annotations.items())),
                )
                for reply in replies
            ]

        first, second = timelines(), timelines()
        assert first == second
