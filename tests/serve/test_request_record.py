"""One ``RequestRecord`` per completed request, and every view a fold
over it: the trace is walked once per request, and exemplar payloads are
rendered only for the exemplars that are read."""

import pytest

from repro.edge.tier import EdgeTopology
from repro.obs.flight import FlightRecorder
from repro.obs.record import RequestRecord
from repro.obs.trace import TraceContext
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.telemetry import ServeTelemetry

from .test_telemetry import _response


@pytest.fixture
def trace_calls(monkeypatch):
    """Count calls of the trace methods that walk a request's marks."""
    calls = {"breakdown": 0, "to_dict": 0}
    for name in calls:
        original = getattr(TraceContext, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TraceContext, name, counted)
    return calls


class TestComputedOnce:
    def test_one_trace_walk_per_completed_request(self, small_log, trace_calls):
        telemetry = ServeTelemetry()
        FlightRecorder().attach(telemetry)
        report, _ = run_loadtest(
            small_log,
            LoadGenConfig(duration_s=120.0, rate_multiplier=2000.0, seed=3),
            ServeConfig(queue_depth=4),
            telemetry=telemetry,
            edge_topology=EdgeTopology(n_nodes=2),
        )
        assert report.completed > 50
        # The report read the exemplar ring once; each payload it
        # rendered walked its trace once more (``to_dict`` calls
        # ``breakdown``).
        assert trace_calls["to_dict"] == len(report.exemplars) > 0
        assert (
            trace_calls["breakdown"] - trace_calls["to_dict"]
            == report.completed
        )

    def test_exemplars_render_only_when_read(self, trace_calls):
        telemetry = ServeTelemetry(exemplar_k=2)
        for i in range(10):
            t = 0.5 + i * 0.01
            telemetry.on_response(
                t,
                _response(trace_id=i + 1, enqueued_at=0.0, completed_at=t),
                inflight=0,
            )
        assert trace_calls["to_dict"] == 0
        top = telemetry.exemplars.top(1.0)
        assert [e["trace_id"] for e in top] == [10, 9]
        assert trace_calls["to_dict"] == 2


class TestRecord:
    def test_record_matches_response_views(self):
        response = _response(enqueued_at=1.0, completed_at=3.0, hit=False)
        record = RequestRecord.of(3.0, response)
        assert record.segments == response.breakdown()
        assert record.sojourn_s == 2.0
        assert record.hop_err_s == 0.0
        assert record.to_dict()["kind"] == "request"
        payload = record.exemplar()
        assert payload["trace_id"] == response.trace_id
        assert payload["tier"] == record.tier
