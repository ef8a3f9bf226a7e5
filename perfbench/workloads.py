"""The four host-cost workloads: configuration, timed call and output check.

Each workload is one call into a public entry point of ``repro``
(``repro.serve.run_loadtest`` or ``repro.sim.replay.run_replay``) on a
search log generated from the workload seed.  The seed also drives the
arrival schedule (``LoadGenConfig.seed``) and the replay user selection
(``ReplayConfig.seed``), so one ``--seed`` fixes every input.

Simulated statistics (hits, sheds, sojourn times, joules, replay
results) are model outputs.  They are checked after the timed call,
never reported as performance: invariants that hold at any seed, plus an
exact model fingerprint at the default seed.

Every workload generates all load from one process and one thread.  The
serve clock is virtual (open loop, arrivals fixed up front from the
seed), so the host runs each schedule as fast as it can and the metric
is work per host second at the stated input size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

DEFAULT_SEED = 23

#: Worst |per-hop re-sum - end-to-end| the edge tier may show, in s and J.
HOP_RESUM_BOUND = 1e-9


@dataclass
class CallResult:
    """What one timed call resolved, and whether its outputs check out."""

    #: operations submitted (serve) or log events selected (replay)
    attempted: int
    #: operations resolved (completed or shed; replayed events)
    resolved: int
    #: model outputs compared against the default-seed fingerprint
    fingerprint: Dict[str, float]
    #: invariant violations, one line each (empty when correct)
    errors: List[str] = field(default_factory=list)
    #: model counts the traced run needs beside its spans
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Unresolved operations; every operation when a check failed."""
        return self.attempted if self.errors else self.attempted - self.resolved


@dataclass(frozen=True)
class Loadtest:
    """``run_loadtest``: 600 simulated s, ``queue_depth=32``."""

    rate_multiplier: float
    max_devices: int
    edge: bool = False
    refresh_interval_s: Optional[float] = None

    def call(self, log, seed: int) -> Any:
        from repro.edge.tier import EdgeTopology
        from repro.obs.registry import MetricsRegistry
        from repro.serve import run_loadtest
        from repro.serve.loadgen import LoadGenConfig
        from repro.serve.server import ServeConfig

        registry = MetricsRegistry()
        report, schedule = run_loadtest(
            log,
            LoadGenConfig(
                duration_s=600.0,
                rate_multiplier=self.rate_multiplier,
                seed=seed,
                max_devices=self.max_devices,
            ),
            ServeConfig(queue_depth=32),
            refresh_interval_s=self.refresh_interval_s,
            registry=registry,
            edge_topology=EdgeTopology(n_nodes=8, warm=True) if self.edge else None,
        )
        return report, schedule, registry

    def check(self, log, seed: int, output: Any) -> CallResult:
        report, schedule, registry = output
        attempted = schedule.n_requests
        resolved = report.completed + report.shed
        errors = []
        if report.requests != attempted or resolved != attempted:
            errors.append(
                f"lost requests: {attempted} submitted, {report.requests}"
                f" replied, {report.completed} completed + {report.shed} shed"
            )
        if report.energy_conserved is not True:
            errors.append(
                "energy ledger does not conserve:"
                f" {report.conservation_error_j} J"
            )
        if self.edge and not (
            report.hop_resum_error_s <= HOP_RESUM_BOUND
            and report.hop_resum_error_j <= HOP_RESUM_BOUND
        ):
            errors.append(
                f"edge hop re-sum error {report.hop_resum_error_s} s /"
                f" {report.hop_resum_error_j} J exceeds {HOP_RESUM_BOUND}"
            )
        if (
            self.refresh_interval_s is not None
            and registry.counter("serve.refreshes").value <= 0
        ):
            errors.append("refresh task never ran")
        counts = {}
        if report.edge is not None:
            counts["edge.community_hits"] = report.edge["community_hits"]
        return CallResult(
            attempted=attempted,
            resolved=resolved,
            fingerprint={
                "requests": report.requests,
                "completed": report.completed,
                "shed": report.shed,
                "hits": report.hits,
                "sojourn_p99_s": report.sojourn_p99_s,
            },
            errors=errors,
            counts=counts,
        )


@dataclass(frozen=True)
class Replay:
    """``run_replay``: vectorized engine, daily updates, FULL mode."""

    users_per_class: int

    def _config(self, seed: int):
        from repro.sim.replay import ReplayConfig

        return ReplayConfig(
            users_per_class=self.users_per_class,
            daily_updates=True,
            engine="vectorized",
            workers=1,
            seed=seed,
        )

    def call(self, log, seed: int) -> Any:
        from repro.sim.replay import CacheMode, run_replay

        return run_replay(log, self._config(seed), modes=[CacheMode.FULL])[
            CacheMode.FULL
        ]

    def check(self, log, seed: int, output: Any) -> CallResult:
        from repro.logs.schema import MONTH_SECONDS
        from repro.sim.replay import select_replay_users

        config = self._config(seed)
        # The expected event count is derived independently of the
        # replay: the selected users' logged events in the replay month.
        selected = select_replay_users(
            log, config.replay_month, config.users_per_class, config.seed
        )
        t_start = config.replay_month * MONTH_SECONDS
        attempted = sum(
            log.for_user(uid).window(t_start, t_start + MONTH_SECONDS).n_events
            for uids in selected.values()
            for uid in uids
        )
        replayed = sum(user.metrics.count for user in output.users)
        errors = []
        if replayed != attempted:
            errors.append(
                f"replayed {replayed} events, selected users logged {attempted}"
            )
        n_selected = sum(len(uids) for uids in selected.values())
        if len(output.users) != n_selected:
            errors.append(
                f"replayed {len(output.users)} users, selected {n_selected}"
            )
        return CallResult(
            attempted=attempted,
            resolved=min(replayed, attempted),
            fingerprint={
                "events": replayed,
                "hits": sum(user.metrics.hits for user in output.users),
            },
            errors=errors,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the workload is in the benchmark (also in BENCHMARK.json)
    why: str
    entry: Any  # Loadtest or Replay
    #: model outputs at DEFAULT_SEED, measured on the tree that added
    #: the benchmark
    fingerprint: Dict[str, float]
    #: timed calls per run, each in a fresh child; ops_per_s is their
    #: median.  Identical calls differed by up to 50% on a shared 2-vCPU
    #: host, so no run rests on one call.
    calls: int = 3

    def check(self, log, seed: int, output: Any) -> CallResult:
        """Invariants at any seed; the fingerprint at the default seed."""
        result = self.entry.check(log, seed, output)
        if seed == DEFAULT_SEED:
            for key, expected in self.fingerprint.items():
                got = result.fingerprint.get(key)
                if got != expected:
                    result.errors.append(
                        f"model output {key} = {got!r}, expected"
                        f" {expected!r} at seed {DEFAULT_SEED}"
                    )
        return result


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_fleet",
            why=(
                "run_loadtest x300, 300 devices, 8-node warm edge: ~10"
                " requests per device, so per-device cache builds set time"
                " and RSS; the only workload using the edge tier"
            ),
            entry=Loadtest(rate_multiplier=300.0, max_devices=300, edge=True),
            fingerprint={
                "requests": 3245,
                "completed": 3245,
                "shed": 0,
                "hits": 2160,
                "sojourn_p99_s": 10.573040438369674,
            },
        ),
        Workload(
            name="serve_burst",
            why=(
                "run_loadtest x2000, 20 devices: the per-request path"
                " (admission, shedding, loop, telemetry, serve_query)"
                " dominates; bypasses cache-build savings"
            ),
            entry=Loadtest(rate_multiplier=2000.0, max_devices=20),
            fingerprint={
                "requests": 21788,
                "completed": 10125,
                "shed": 11663,
                "hits": 8680,
                "sojourn_p99_s": 147.17128369137257,
            },
        ),
        Workload(
            name="serve_refresh",
            why=(
                "run_loadtest x300, 10 devices, refresh every 60 s: the"
                " scalar cache write path (prune, merge, compact) runs"
                " beside reads"
            ),
            entry=Loadtest(
                rate_multiplier=300.0, max_devices=10, refresh_interval_s=60.0
            ),
            fingerprint={
                "requests": 3245,
                "completed": 2968,
                "shed": 277,
                "hits": 2333,
                "sojourn_p99_s": 143.81267834321955,
            },
        ),
        Workload(
            name="replay_daily",
            why=(
                "run_replay vectorized, daily updates, FULL, 25 users per"
                " class: the offline paper-experiment path, no asyncio and"
                " no serve layer"
            ),
            # A user's replay costs about the same whatever its event
            # count, so events/s follows the selected users' mean event
            # count.  Over seeds 11-20 its IQR/median was 0.033 at 25
            # users per class and 0.154 at 12; hence 25 users, and two
            # calls (15-18 s each) rather than three.
            entry=Replay(users_per_class=25),
            calls=2,
            fingerprint={"events": 27910, "hits": 20706},
        ),
    )
}
