"""Vectorized/scalar fallback-seam coverage.

The vectorized engine batch-evaluates refresh-free segments and falls
back to an exact scalar mirror of ``CacheUpdateServer.refresh_with_content``
at daily-update boundaries.  These tests pin the seam itself:

* a mid-stream daily update forces a segment flush whose
  :class:`UpdatePatch` accounting — byte counts, pair/result add/remove
  counts, pruned queries, compaction costs — is identical to driving the
  real scalar server against a real cache;
* degenerate batches (users with no events, single-event users, empty
  shards) pass through the batch path without crashing and produce the
  scalar engine's outcomes.
"""

import numpy as np
import pytest

from repro.logs.columnar import EVENT_DTYPE
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import (
    CacheContent,
    CacheEntry,
    build_cache_content,
)
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.hashtable import hash64
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    _daily_contents,
    _record_bytes,
    make_cache,
    select_replay_users,
)
from repro.sim.shard import partition_shards
from repro.sim.vectorized import (
    DAY_SECONDS,
    ReplayUniverse,
    _DayImage,
    _UserCacheState,
    _emit_outcomes,
    _replay_user_arrays,
    clear_caches,
    replay_user_vectorized,
)

T_START = 1 * MONTH_SECONDS
T_END = T_START + MONTH_SECONDS


@pytest.fixture(scope="module")
def small_content(request):
    small_log = request.getfixturevalue("small_log")
    config = ReplayConfig()
    return build_cache_content(
        small_log.month(config.build_month), config.policy
    )


@pytest.fixture(scope="module")
def daily_contents(request):
    small_log = request.getfixturevalue("small_log")
    return _daily_contents(small_log, ReplayConfig(daily_updates=True))


@pytest.fixture(scope="module")
def replay_users(request):
    small_log = request.getfixturevalue("small_log")
    selected = select_replay_users(small_log, 1, 3)
    return [uid for uids in selected.values() for uid in uids]


def _scalar_patches(log, content, daily, uid, mode):
    """Drive the real scalar server/cache, collecting every UpdatePatch."""
    cache = make_cache(content, mode)
    engine = PocketSearchEngine(cache)
    server = CacheUpdateServer()
    stream = log.for_user(uid).window(T_START, T_END)
    patches = []
    outcomes = []
    day = 0
    for i in range(stream.n_events):
        t = float(stream.timestamps[i])
        event_day = min(int((t - T_START) // DAY_SECONDS), len(daily) - 1)
        while day <= event_day:
            patches.append(server.refresh_with_content(cache, daily[day]))
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
        outcomes.append(result.outcome)
    return patches, outcomes


class TestUpdatePatchParity:
    @pytest.mark.parametrize("mode", [CacheMode.FULL, CacheMode.COMMUNITY_ONLY])
    def test_mid_batch_refresh_has_identical_accounting(
        self, small_log, small_content, daily_contents, replay_users, mode
    ):
        """Every refresh the scalar server performs — including skipped-day
        catch-ups and database compactions — must appear in the vectorized
        run with field-identical UpdatePatch records."""
        checked_patches = 0
        for uid in replay_users:
            expected_patches, expected_outcomes = _scalar_patches(
                small_log, small_content, daily_contents, uid, mode
            )
            metrics, patches = replay_user_vectorized(
                small_log,
                small_content,
                daily_contents,
                mode,
                uid,
                T_START,
                T_END,
                collect_patches=True,
            )
            assert metrics.outcomes == expected_outcomes, uid
            assert len(patches) == len(expected_patches), uid
            for got, want in zip(patches, expected_patches):
                # Dataclass equality covers bytes up/down, pair and result
                # add/remove counts, pruned queries, per-file patch bytes,
                # and the CompactionResult (including float costs).
                assert got == want, uid
            checked_patches += len(patches)
        assert checked_patches > 0  # the seam was actually exercised

    def test_compaction_occurs_and_matches(
        self, small_log, small_content, daily_contents, replay_users
    ):
        """At least one refresh in the matrix must trigger compaction —
        otherwise the compaction mirror is dead code in this suite."""
        compactions = 0
        for uid in replay_users:
            _, patches = replay_user_vectorized(
                small_log, small_content, daily_contents,
                CacheMode.FULL, uid, T_START, T_END,
                collect_patches=True,
            )
            compactions += sum(1 for p in patches if p.compaction is not None)
        assert compactions > 0


class TestDegenerateBatches:
    def test_user_with_no_events(self, small_log, small_content):
        """An empty slice (user absent from the window) yields an empty
        collector, not a crash."""
        metrics, patches = replay_user_vectorized(
            small_log, small_content, None, CacheMode.FULL,
            10**9, T_START, T_END,
        )
        assert metrics.count == 0
        assert metrics.outcomes == []
        assert patches is None

    def test_single_event_user(self, small_log, small_content, replay_users):
        """A one-event window exercises the batch path's minimal case and
        still matches the scalar engine exactly."""
        uid = replay_users[0]
        stream = small_log.for_user(uid).window(T_START, T_END)
        t0 = float(stream.timestamps[0])
        t1 = float(stream.timestamps[1])
        metrics, _ = replay_user_vectorized(
            small_log, small_content, None, CacheMode.FULL, uid, t0, t1
        )
        assert metrics.count == 1

        cache = make_cache(small_content, CacheMode.FULL)
        engine = PocketSearchEngine(cache)
        qkey = int(stream.query_keys[0])
        rkey = int(stream.result_keys[0])
        expected = engine.serve_query(
            query=stream.query_string(qkey),
            clicked_url=stream.result_url(rkey),
            record_bytes=_record_bytes(stream, rkey),
            navigational=bool(stream.navigational[0]),
            timestamp=t0,
        ).outcome
        assert metrics.outcomes == [expected]

    def test_empty_shard_partition(self, replay_users):
        """More shards than users leaves trailing shards empty; the
        partitioner never emits them and never drops a user."""
        work = [(None, uid) for uid in replay_users[:3]]
        shards = partition_shards(work, shard_size=1)
        assert all(shard for shard in shards)
        assert sorted(uid for shard in shards for _, uid in shard) == sorted(
            uid for _, uid in work
        )

    def test_daily_user_with_no_events_still_no_refresh(
        self, small_log, small_content, daily_contents
    ):
        """No events → no segments → the update server is never invoked
        (matching the scalar loop, which only refreshes ahead of events)."""
        metrics, patches = replay_user_vectorized(
            small_log, small_content, daily_contents, CacheMode.FULL,
            10**9, T_START, T_END,
            collect_patches=True,
        )
        assert metrics.count == 0
        assert patches == []


# -- the day image -----------------------------------------------------------
#
# The refresh lays each user's retained pairs over one shared, immutable
# table per day's content.  A hand-built three-day scenario drives every
# branch of that overlay through both engines; the replay tests below
# check the image is built once and never written.


def _events(rows):
    """An event array for ``_replay_user_arrays`` from (t, qkey, rkey)."""
    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (t, qkey, rkey) in enumerate(rows):
        events[i]["timestamp"] = t
        events[i]["query_key"] = qkey
        events[i]["result_key"] = rkey
    return events


def _scalar_events(log, content, daily, events, mode):
    """Serve ``events`` on a real cache with the real update server."""
    cache = make_cache(content, mode)
    engine = PocketSearchEngine(cache)
    server = CacheUpdateServer()
    patches, outcomes, day = [], [], 0
    for event in events:
        t = float(event["timestamp"])
        event_day = min(int((t - T_START) // DAY_SECONDS), len(daily) - 1)
        while day <= event_day:
            patches.append(server.refresh_with_content(cache, daily[day]))
            day += 1
        qkey = int(event["query_key"])
        rkey = int(event["result_key"])
        outcomes.append(
            engine.serve_query(
                query=log.query_string(qkey),
                clicked_url=log.result_url(rkey),
                record_bytes=_record_bytes(log, rkey),
                navigational=bool(event["navigational"]),
                timestamp=t,
            ).outcome
        )
    return patches, outcomes, cache


def _vectorized_events(log, content, daily, events, mode, monkeypatch):
    """Serve ``events`` on the vectorized engine; also returns its state."""
    states = []
    init = _UserCacheState.__init__

    def keeping(self, *args, **kwargs):
        states.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_UserCacheState, "__init__", keeping)
    universe = ReplayUniverse(log, content, mode)
    patches = []
    hit, latency, energy = _replay_user_arrays(
        universe, events, mode, daily, T_START, patches
    )
    (state,) = states
    outcomes = _emit_outcomes(universe, events, hit, latency, energy)
    return patches, outcomes, state


def _scalar_tables(cache):
    """(hash table in chain order, result database in index order)."""
    table = {
        query: cache.hashtable.slots_for(query)
        for query in cache.query_registry.values()
    }
    database = [
        (h, s.file_index, s.offset, s.record_bytes)
        for h, s in cache.database._index.items()
    ]
    return table, database


def _vectorized_tables(log, state):
    queries = list(state.image.slots) + [
        qid for qid in state.slots if qid not in state.image.slots
    ]
    table = {
        log.query_string(qid): [
            (hash64(log.result_url(rid)), score, accessed)
            for rid, score, accessed in state.slots_of(qid)
        ]
        for qid in queries
    }
    database = [
        (hash64(log.result_url(rid)), *stored)
        for rid, stored in state.db.items()
    ]
    return table, database


class TestDayImage:
    @pytest.fixture(scope="class")
    def scenario(self, small_log):
        """Three days of hand-built content and one user's clicks.

        * ``a``: day 0 lists (a, a1) twice at different scores (and
          record sizes: the first one is stored); the user
          clicks it, and day 1 lists it twice again (a retained pair that
          reappears: none of its entries count as added) below two new
          results tied on score, so only the retained score keeps a1 in
          the top two, and only the image's slot order picks a3 over a2.
        * ``d``: the user clicks d1 once, then d2 forty times, decaying
          d1's accessed pair below the retention threshold; day 2 merges
          two new results after the retained d2.
        * ``c``: only on day 0 and never clicked, so day 1 prunes the
          query; ``filler`` pairs swap out wholesale on day 1, leaving
          enough garbage to compact the database.
        """
        community = small_log.community
        keys = []
        seen = set()
        for key, text in enumerate(community.query_strings):
            if text not in seen:
                seen.add(text)
                keys.append(key)
        q = dict(zip(["a", "b", "c", "d", "e"], keys[:5]))
        fillers = keys[5:25]
        urls = []
        seen = set()
        for key, url in enumerate(community.result_urls):
            if url not in seen:
                seen.add(url)
                urls.append(key)
        r = dict(zip(["a1", "a2", "a3", "b1", "c1", "d1", "d2", "e1"], urls))
        filler_urls = urls[8:28]

        def entry(qkey, rkey, score, extra_bytes=0):
            return CacheEntry(
                query=community.query_strings[qkey],
                url=community.result_urls[rkey],
                volume=1,
                score=score,
                navigational=False,
                record_bytes=_record_bytes(small_log, rkey) + extra_bytes,
            )

        def content(entries):
            return CacheContent(entries=entries, total_log_volume=100)

        initial = content([entry(q["b"], r["b1"], 0.5)])
        day0 = content(
            [
                entry(q["a"], r["a1"], 0.9),
                entry(q["a"], r["a2"], 0.5),
                entry(q["a"], r["a1"], 0.6, extra_bytes=100),
                entry(q["b"], r["b1"], 0.7),
                entry(q["c"], r["c1"], 0.4),
                entry(q["d"], r["d1"], 0.8),
            ]
            + [entry(f, u, 0.3) for f, u in zip(fillers[:10], filler_urls)]
        )
        day1 = content(
            [
                entry(q["a"], r["a1"], 0.3),
                entry(q["a"], r["a3"], 0.5),
                entry(q["a"], r["a1"], 0.4),
                entry(q["a"], r["a2"], 0.5),
                entry(q["b"], r["b1"], 0.7),
            ]
            + [
                entry(f, u, 0.3)
                for f, u in zip(fillers[10:], filler_urls[10:])
            ]
        )
        day2 = content(
            day1.entries[:2]
            + [
                entry(q["e"], r["e1"], 0.6),
                entry(q["d"], r["d1"], 0.5),
                entry(q["d"], r["c1"], 0.5),
            ]
        )
        day = DAY_SECONDS
        rows = [(T_START + 10, q["a"], r["a1"]), (T_START + 20, q["d"], r["d1"])]
        rows += [(T_START + 30 + i, q["d"], r["d2"]) for i in range(40)]
        rows += [
            (T_START + day + 10, q["b"], r["b1"]),
            (T_START + day + 20, q["c"], r["c1"]),
            (T_START + day + 30, q["a"], r["a3"]),
            (T_START + day + 40, q["d"], r["d2"]),
            (T_START + 2 * day + 10, q["e"], r["e1"]),
            (T_START + 2 * day + 20, q["a"], r["a1"]),
        ]
        return {
            "initial": initial,
            "daily": [day0, day1, day2],
            "events": _events(rows),
            "q": q,
            "r": r,
        }

    @pytest.mark.parametrize(
        "mode", [CacheMode.FULL, CacheMode.COMMUNITY_ONLY]
    )
    def test_overlay_matches_scalar_server(
        self, small_log, scenario, mode, monkeypatch
    ):
        args = (
            small_log, scenario["initial"], scenario["daily"],
            scenario["events"], mode,
        )
        want_patches, want_outcomes, cache = _scalar_events(*args)
        patches, outcomes, state = _vectorized_events(*args, monkeypatch)
        assert outcomes == want_outcomes
        assert patches == want_patches
        # Slot order, scores and flags per query, and the database layout.
        assert _vectorized_tables(small_log, state) == _scalar_tables(cache)
        # The scenario reaches every branch it claims to.
        assert any(p.compaction is not None for p in patches)
        assert patches[1].queries_pruned > 0
        if mode == CacheMode.FULL:
            q, r = scenario["q"], scenario["r"]
            # (a, a1) was kept, so neither of its day-1 entries is new.
            assert patches[1].pairs_added == len(
                scenario["daily"][1].entries
            ) - 2
            # d1 was accessed, then decayed out; d2 stays.
            assert patches[1].pairs_removed >= 1
            d_slots = cache.hashtable.slots_for(small_log.query_string(q["d"]))
            assert [s[0] for s in d_slots] == [
                hash64(small_log.result_url(r[name]))
                for name in ("d2", "d1", "c1")
            ]

    def test_image_is_built_once_per_content(
        self, small_log, small_content, daily_contents, replay_users,
        monkeypatch,
    ):
        built = []
        init = _DayImage.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_DayImage, "__init__", counting)
        clear_caches()
        for uid in replay_users:
            replay_user_vectorized(
                small_log, small_content, daily_contents, CacheMode.FULL,
                uid, T_START, T_END,
            )
        clear_caches()
        # One image per daily content, plus the initial community load.
        assert len(built) == len(daily_contents) + 1

    def test_user_order_does_not_matter(
        self, small_log, small_content, daily_contents, replay_users
    ):
        """The image is shared and never written: replaying two users in
        either order on one universe gives identical results."""
        first, second = replay_users[0], replay_users[-1]

        def run(order):
            clear_caches()
            out = {}
            for uid in order:
                metrics, patches = replay_user_vectorized(
                    small_log, small_content, daily_contents,
                    CacheMode.FULL, uid, T_START, T_END,
                    collect_patches=True,
                )
                out[uid] = (metrics.outcomes, patches)
            clear_caches()
            return out

        assert run([first, second]) == run([second, first])
