"""Golden serve regression: one small load test, pinned byte for byte.

The serve counterpart of ``tests/fixtures/golden_replay.json``.  A
checked-in fixture (``tests/fixtures/golden_loadtest.json``) pins what a
small, fully deterministic ``run_loadtest`` reports through every
observer of the serve stack — edge tier, SLO policy, background refresh,
and an attached flight recorder all on:

* ``ServeReport.to_metrics()`` and ``report.exemplars``;
* the run's ``MetricsRegistry`` snapshot;
* ``ServeTelemetry.snapshot()`` at the end of the run;
* the sha256 of the flight bundle's ``events.jsonl``.

The determinism tests elsewhere compare a run against a second run of
the same code; this one compares against a recorded run, so a refactor
of the observers that moves any number — or any byte of the bundle —
fails here.

Regenerate (after an *intentional* behaviour change) with::

    PYTHONPATH=src python tests/serve/test_golden_loadtest.py --regenerate
"""

import hashlib
import json
import math
import os
import tempfile

import pytest

from repro.edge.tier import EdgeTopology
from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.obs.flight import EVENTS_FILENAME, FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOPolicy
from repro.obs.triggers import TriggerConfig, TriggerEngine
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.telemetry import ServeTelemetry

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "golden_loadtest.json"
)

#: Everything about the golden run is pinned here; the fixture records
#: it so a config drift is detected as loudly as a code drift.
GOLDEN_CONFIG = {
    "vocabulary": {"n_nav_topics": 200, "n_non_nav_topics": 250, "seed": 13},
    "population": {"n_users": 80, "seed": 17},
    "generator": {"months": 2, "seed": 41},
    "loadgen": {
        "duration_s": 120.0,
        "rate_multiplier": 3000.0,
        "seed": 5,
        "max_devices": 30,
    },
    "serve": {"queue_depth": 4, "max_inflight": 8},
    "refresh_interval_s": 30.0,
    "edge": {
        "n_nodes": 2,
        "node_max_inflight": 2,
        "warm": True,
        "propagation_interval_s": 30.0,
    },
    "slo_policy": {
        "burn_threshold": 2.0,
        "long_window_s": 30.0,
        "short_window_s": 5.0,
        "rules": [
            {"name": "p99-latency", "kind": "latency",
             "threshold_s": 2.0, "objective": 0.99},
            {"name": "hit-rate", "kind": "hit_rate", "objective": 0.4},
            {"name": "shed", "kind": "shed_rate", "objective": 0.95},
            {"name": "joules", "kind": "energy",
             "threshold_j": 2.0, "objective": 0.9},
        ],
    },
}


def _canon(value):
    """JSON-comparable form: non-finite floats become their repr (NaN
    never equals itself), tuples become lists, keys become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _golden_run() -> dict:
    log = generate_logs(
        community=CommunityModel(
            Vocabulary.build(VocabularyConfig(**GOLDEN_CONFIG["vocabulary"]))
        ),
        population=UserPopulation.build(
            PopulationConfig(**GOLDEN_CONFIG["population"])
        ),
        config=GeneratorConfig(**GOLDEN_CONFIG["generator"]),
    )
    with tempfile.TemporaryDirectory() as bundle_dir:
        engine = TriggerEngine(
            TriggerConfig(
                slo_alert=False, shed_spike=None, bundle_dir=bundle_dir
            )
        )
        telemetry = ServeTelemetry(
            slo_policy=SLOPolicy.from_dict(GOLDEN_CONFIG["slo_policy"])
        )
        flight = FlightRecorder(
            config={"scenario": "golden"}, seed=5, triggers=engine
        ).attach(telemetry)
        registry = MetricsRegistry()
        report, _ = run_loadtest(
            log,
            LoadGenConfig(**GOLDEN_CONFIG["loadgen"]),
            ServeConfig(**GOLDEN_CONFIG["serve"]),
            refresh_interval_s=GOLDEN_CONFIG["refresh_interval_s"],
            telemetry=telemetry,
            registry=registry,
            edge_topology=EdgeTopology(**GOLDEN_CONFIG["edge"]),
        )
        flight.finalize(force=True)
        (bundle,) = engine.dumped
        with open(os.path.join(bundle, EVENTS_FILENAME), "rb") as fh:
            events_sha256 = hashlib.sha256(fh.read()).hexdigest()
    snapshot = telemetry.snapshot()
    # Bundle paths name a temporary directory: keep their basenames.
    snapshot["flight"]["bundles"] = [
        os.path.basename(path) for path in snapshot["flight"]["bundles"]
    ]
    return _canon(
        {
            "config": GOLDEN_CONFIG,
            "metrics": report.to_metrics(),
            "exemplars": report.exemplars,
            "registry": registry.snapshot(),
            "telemetry": snapshot,
            "events_sha256": events_sha256,
        }
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def observed() -> dict:
    return _golden_run()


class TestGoldenLoadtest:
    def test_config_pinned(self, golden, observed):
        assert observed["config"] == golden["config"]

    def test_run_exercises_every_observer(self, observed):
        metrics = observed["metrics"]
        assert metrics["completed"] > 100
        assert metrics["shed_device_queue_full"] > 0
        assert metrics["shed_server_busy"] > 0
        assert metrics["shed_edge_queue_full"] > 0
        assert metrics["edge_hits"] > 0
        assert metrics["edge_flushes"] > 0
        assert metrics["slo_alerts_total"] > 0
        assert "slo_passed" in metrics
        assert observed["registry"]["serve.refreshes"]["value"] > 0
        assert observed["telemetry"]["flight"]["bundles"]

    def test_report_metrics_exact(self, golden, observed):
        assert observed["metrics"] == golden["metrics"]

    def test_report_exemplars_exact(self, golden, observed):
        assert observed["exemplars"] == golden["exemplars"]

    def test_registry_snapshot_exact(self, golden, observed):
        assert observed["registry"] == golden["registry"]

    def test_telemetry_snapshot_exact(self, golden, observed):
        assert observed["telemetry"] == golden["telemetry"]

    def test_flight_bundle_events_byte_identical(self, golden, observed):
        assert observed["events_sha256"] == golden["events_sha256"]


def _regenerate() -> None:
    observed = _golden_run()
    path = os.path.abspath(FIXTURE_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(observed, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
