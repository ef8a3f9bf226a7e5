"""Query-stream replay harness (Section 6.2).

Reproduces the paper's hit-rate methodology:

1. build the community cache content from one month of logs;
2. randomly select N users per Table 6 class based on their *replay*
   month volume;
3. replay each user's next-month query stream against a fresh
   PocketSearch cache (each user has their own phone), in one of three
   modes: full, community-only (personalization off), or
   personalization-only (community content empty);
4. aggregate hit rates per class, per week, and by navigational split.

Optionally applies daily server updates during the replay (Section
6.2.2), refreshing the community component from a trailing log window.

Each user's replay is independent (one phone per user), so the harness
is embarrassingly parallel: ``ReplayConfig(workers=N)`` partitions the
selected users into shards dispatched to a ``multiprocessing`` pool (see
:mod:`repro.sim.shard`).  All randomness is derived per user from
``np.random.SeedSequence`` spawn keys over the user id — never from a
shared stream — so results are bit-identical regardless of worker count,
shard size, or scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.logs.generator import SearchLog
from repro.logs.schema import MONTH_SECONDS, UserClass, classify_user
from repro.obs.trace import get_tracer
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import (
    CacheContent,
    ContentPolicy,
    PAPER_OPERATING_POINT,
    _record_bytes,
    build_cache_content,
)
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.metrics import MetricsCollector
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash

DAY_SECONDS = 24 * 3600


def replay_day(t, t_start: float, n_days: int):
    """Replay day of an event at ``t``: whole days since ``t_start``,
    clamped to the last of ``n_days`` mined contents.

    Takes a float timestamp or a numpy float64 array of them alike.
    """
    return np.minimum((t - t_start) // DAY_SECONDS, n_days - 1).astype(
        np.int64
    )


class CacheMode:
    """The three Figure 17 cache configurations."""

    FULL = "full"
    COMMUNITY_ONLY = "community"
    PERSONALIZATION_ONLY = "personalization"

    ALL = (FULL, COMMUNITY_ONLY, PERSONALIZATION_ONLY)


@dataclass(frozen=True)
class ReplayConfig:
    """Replay experiment parameters."""

    build_month: int = 0
    replay_month: int = 1
    users_per_class: int = 100
    policy: ContentPolicy = PAPER_OPERATING_POINT
    seed: int = 97
    daily_updates: bool = False
    #: Use bounded-memory streaming collectors instead of retaining every
    #: QueryOutcome (see :class:`repro.sim.metrics.MetricsCollector`).
    bounded_metrics: bool = False
    #: Worker processes for the replay fan-out.  1 (the default) keeps
    #: the exact in-process serial path; N > 1 dispatches user shards to
    #: a multiprocessing pool.  Results are bit-identical either way.
    workers: int = 1
    #: Users per shard when ``workers > 1``.  ``None`` auto-sizes to
    #: roughly four shards per worker (load balancing without excessive
    #: per-shard dispatch overhead).  Affects scheduling only, never
    #: results.
    shard_size: Optional[int] = None
    #: Replay engine: ``"scalar"`` is the per-event
    #: :class:`PocketSearchEngine` loop; ``"vectorized"`` batch-evaluates
    #: each user's stream (:mod:`repro.sim.vectorized`).  Results are
    #: bit-identical; composes with ``workers`` sharding.
    engine: str = "scalar"

    ENGINES = ("scalar", "vectorized")

    def __post_init__(self) -> None:
        if self.users_per_class <= 0:
            raise ValueError("users_per_class must be positive")
        if self.build_month == self.replay_month:
            raise ValueError("build and replay months must differ")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError("shard_size must be positive when given")
        if self.engine not in self.ENGINES:
            raise ValueError(
                f"engine must be one of {self.ENGINES}, got {self.engine!r}"
            )


@dataclass
class UserReplayResult:
    """Outcome of one user's month-long replay."""

    user_id: int
    user_class: UserClass
    metrics: MetricsCollector


@dataclass
class ReplayResult:
    """All user replays of one mode."""

    mode: str
    users: List[UserReplayResult] = field(default_factory=list)

    def _mean_rate_by_class(self, user_rate) -> Dict[UserClass, float]:
        """Bucket per-user rates by class and average each bucket.

        ``user_rate`` maps a :class:`UserReplayResult` to a rate or
        ``None`` (user excluded from their class bucket).  Classes with
        no contributing users yield NaN.
        """
        rates: Dict[UserClass, List[float]] = {c: [] for c in UserClass}
        for user in self.users:
            rate = user_rate(user)
            if rate is not None:
                rates[user.user_class].append(rate)
        return {
            c: float(np.mean(v)) if v else float("nan")
            for c, v in rates.items()
        }

    def hit_rate_by_class(self) -> Dict[UserClass, float]:
        """Mean per-user hit rate for each class (the Figure 17 bars)."""
        return self._mean_rate_by_class(lambda user: user.metrics.hit_rate)

    def overall_hit_rate(self) -> float:
        """Mean per-user hit rate across all replayed users."""
        if not self.users:
            return 0.0
        return float(np.mean([u.metrics.hit_rate for u in self.users]))

    def hit_rate_by_class_windowed(
        self, t_start: float, t_end: float
    ) -> Dict[UserClass, float]:
        """Figure 18: per-class hit rate restricted to a time window."""

        def windowed_rate(user: UserReplayResult) -> Optional[float]:
            window = user.metrics.window(t_start, t_end)
            return window.hit_rate if window.count else None

        return self._mean_rate_by_class(windowed_rate)

    def navigational_breakdown(self) -> Dict[UserClass, Dict[str, float]]:
        """Figure 19: cache-hit split into nav / non-nav per class."""
        bounded = any(u.metrics.bounded for u in self.users)
        out: Dict[UserClass, Dict[str, float]] = {}
        for user_class in UserClass:
            merged = MetricsCollector(bounded=bounded)
            for user in self.users:
                if user.user_class is user_class:
                    merged.merge(user.metrics)
            out[user_class] = merged.hit_breakdown_navigational()
        return out


# Spawn-key domains partitioning the per-user seed space: the selection
# lottery and the replay itself must draw from unrelated streams.
_SELECTION_DOMAIN = 0
_REPLAY_DOMAIN = 1


def derive_user_seed(seed: int, user_id: int) -> int:
    """Deterministic per-user replay seed, keyed by (seed, user id).

    Derived through ``np.random.SeedSequence`` spawn keys rather than a
    shared stream, so a user's seed never depends on how many draws other
    users consumed — the property that makes sharded replays bit-identical
    to serial ones regardless of scheduling order.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(_REPLAY_DOMAIN, user_id))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _selection_priority(seed: int, user_id: int) -> int:
    """Per-user lottery ticket for :func:`select_replay_users`."""
    seq = np.random.SeedSequence(seed, spawn_key=(_SELECTION_DOMAIN, user_id))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def select_replay_users(
    log: SearchLog,
    month: int,
    users_per_class: int,
    seed: int = 97,
) -> Dict[UserClass, List[int]]:
    """Randomly pick ``users_per_class`` users per Table 6 class.

    Classification uses the user's volume in the replay month, and users
    below the 20-queries/month floor are excluded, as in the paper.

    Selection is a per-user lottery keyed by ``(seed, user_id)``: each
    eligible user draws an independent priority and the
    ``users_per_class`` lowest tickets win.  Because no shared RNG stream
    is consumed, one class's candidate pool never perturbs another
    class's selection, and adding or removing unrelated users leaves
    existing picks stable (no draw-order coupling).
    """
    volumes = log.user_monthly_volumes(month=month)
    buckets: Dict[UserClass, List[int]] = {c: [] for c in UserClass}
    for uid, volume in volumes.items():
        user_class = classify_user(volume)
        if user_class is not None:
            buckets[user_class].append(uid)
    selected = {}
    for user_class, uids in buckets.items():
        if len(uids) > users_per_class:
            ranked = sorted(
                uids, key=lambda uid: (_selection_priority(seed, uid), uid)
            )
            uids = ranked[:users_per_class]
        selected[user_class] = sorted(uids)
    return selected


def make_cache(
    content: Optional[CacheContent],
    mode: str,
    results_per_entry: int = 2,
) -> PocketSearchCache:
    """A fresh cache in the given mode (a run's community image)."""
    from repro.pocketsearch.hashtable import QueryHashTable

    database = ResultDatabase(FlashFilesystem(NandFlash()))
    cache = PocketSearchCache(
        hashtable=QueryHashTable(results_per_entry=results_per_entry),
        database=database,
        personalization_enabled=(mode != CacheMode.COMMUNITY_ONLY),
    )
    if mode != CacheMode.PERSONALIZATION_ONLY and content is not None:
        cache.load_community(content)
    return cache


def community_image(
    content: Optional[CacheContent], mode: str, config: ReplayConfig
) -> Optional[PocketSearchCache]:
    """The mode's community cache image, built once per run or worker.

    Every user the scalar engine replays starts from a clone of it
    (:meth:`PocketSearchCache.clone`); the image itself is never
    replayed on.  ``None`` for the vectorized engine, which builds no
    :class:`PocketSearchCache`.
    """
    if config.engine == "vectorized":
        return None
    return make_cache(content, mode)


def replay_user(
    engine: PocketSearchEngine,
    log: SearchLog,
    user_id: int,
    t_start: float,
    t_end: float,
    metrics: Optional[MetricsCollector] = None,
    daily_contents: Optional[List[CacheContent]] = None,
) -> MetricsCollector:
    """Replay one user's events in [t_start, t_end) through an engine.

    With ``daily_contents``, the nightly community refresh of Section
    6.2.2 runs before the first event of each new replay day
    (:func:`replay_day`), skipped days included, in order.
    """
    stream = log.for_user(user_id).window(t_start, t_end)
    if metrics is None:
        metrics = MetricsCollector()
    tracer = get_tracer()
    daily = daily_contents is not None
    server = CacheUpdateServer() if daily else None
    attrs = {"daily_updates": True} if daily else {}
    with tracer.span(
        "replay_user", user_id=user_id, n_events=stream.n_events, **attrs
    ) as span:
        day = 0
        for i in range(stream.n_events):
            t = float(stream.timestamps[i])
            if daily:
                event_day = replay_day(t, t_start, len(daily_contents))
                while day <= event_day:
                    with tracer.span("community_refresh", day=day):
                        server.refresh_with_content(
                            engine.cache, daily_contents[day]
                        )
                    day += 1
            qkey = int(stream.query_keys[i])
            rkey = int(stream.result_keys[i])
            result = engine.serve_query(
                query=stream.query_string(qkey),
                clicked_url=stream.result_url(rkey),
                record_bytes=_record_bytes(stream, rkey),
                navigational=bool(stream.navigational[i]),
                timestamp=t,
            )
            metrics.record(result.outcome)
        span.set_attr("hit_rate", metrics.hit_rate)
    return metrics


def run_replay(
    log: SearchLog,
    config: ReplayConfig = ReplayConfig(),
    modes: Iterable[str] = CacheMode.ALL,
    selected_users: Optional[Dict[UserClass, List[int]]] = None,
) -> Dict[str, ReplayResult]:
    """The full Section 6.2 experiment.

    Args:
        log: a log spanning at least the build and replay months.
        config: experiment parameters.
        modes: which cache modes to run.
        selected_users: pre-selected users (else sampled per Table 6).

    Returns:
        mode -> :class:`ReplayResult`.
    """
    tracer = get_tracer()
    with tracer.span("build_cache_content", month=config.build_month):
        build_log = log.month(config.build_month)
        content = build_cache_content(build_log, config.policy)
    if selected_users is None:
        selected_users = select_replay_users(
            log, config.replay_month, config.users_per_class, config.seed
        )
    t_start = config.replay_month * MONTH_SECONDS
    t_end = t_start + MONTH_SECONDS

    daily_contents: List[CacheContent] = []
    if config.daily_updates:
        with tracer.span("mine_daily_contents"):
            daily_contents = _daily_contents(log, config)

    work: List[Tuple[UserClass, int]] = [
        (user_class, uid)
        for user_class, uids in selected_users.items()
        for uid in uids
    ]

    results: Dict[str, ReplayResult] = {}
    for mode in modes:
        with tracer.span("replay_mode", mode=mode) as mode_span:
            if config.workers > 1 and len(work) > 1:
                from repro.sim.shard import run_sharded_mode

                users, stats = run_sharded_mode(
                    log, content, daily_contents, config, mode, work,
                    t_start, t_end,
                )
                mode_span.set_attrs(**stats)
            else:
                image = community_image(content, mode, config)
                users = [
                    replay_one_user(
                        log, content, daily_contents, config, mode,
                        user_class, uid, t_start, t_end, image,
                    )
                    for user_class, uid in work
                ]
            result = ReplayResult(mode=mode, users=users)
            mode_span.set_attrs(
                n_users=len(result.users),
                overall_hit_rate=result.overall_hit_rate(),
            )
        results[mode] = result
    return results


def replay_one_user(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: List[CacheContent],
    config: ReplayConfig,
    mode: str,
    user_class: UserClass,
    user_id: int,
    t_start: float,
    t_end: float,
    image: Optional[PocketSearchCache],
) -> UserReplayResult:
    """Replay a single user on a fresh phone (shared by serial/sharded paths).

    Everything a user's outcome depends on — the cache content (and the
    mode's :func:`community_image` built from it), the log window, and
    the per-user seed — is passed in explicitly, so the result is
    identical whether this runs inline or in a worker process.  The
    scalar engine replays on a clone of ``image``; the vectorized
    engine reads ``content`` and takes ``image=None``.  The
    personalization-only cache holds no community part to refresh.
    """
    if not config.daily_updates or mode == CacheMode.PERSONALIZATION_ONLY:
        daily_contents = None
    if config.engine == "vectorized":
        from repro.sim.vectorized import replay_one_user_vectorized

        return replay_one_user_vectorized(
            log, content, daily_contents, config, mode,
            user_class, user_id, t_start, t_end,
        )
    engine = PocketSearchEngine(image.clone())
    metrics = _new_collector(config, user_id)
    replay_user(
        engine, log, user_id, t_start, t_end, metrics, daily_contents
    )
    return UserReplayResult(
        user_id=user_id, user_class=user_class, metrics=metrics
    )


def _new_collector(config: ReplayConfig, user_id: int) -> MetricsCollector:
    """A per-user collector honouring the config's memory mode.

    Bounded collectors get a reservoir seed derived from the user id so
    percentile estimates are reproducible across serial and sharded runs.
    """
    if not config.bounded_metrics:
        return MetricsCollector()
    return MetricsCollector(
        bounded=True, reservoir_seed=derive_user_seed(config.seed, user_id)
    )


def _daily_contents(log: SearchLog, config: ReplayConfig) -> List[CacheContent]:
    """Pre-mine the popular set once per replay day (trailing 30 days)."""
    t_replay = config.replay_month * MONTH_SECONDS
    contents = []
    for day in range(30):
        t_end = t_replay + day * DAY_SECONDS
        window = log.window(t_end - MONTH_SECONDS, t_end)
        contents.append(build_cache_content(window, config.policy))
    return contents
