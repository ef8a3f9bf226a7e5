"""Vectorized replay engine: batch-evaluated cache service, bit-identical
to the scalar :class:`~repro.pocketsearch.engine.PocketSearchEngine` path.

The scalar harness serves one event at a time: each
``engine.serve_query`` call performs multiple MD5-based ``hash64``
lookups, builds dataclasses, and walks the hash-table/ranker/database
object graph.  All of that work is *deterministic arithmetic* over the
event stream — the costs are pure functions of the database layout, the
miss cost is a constant, and hit/miss classification is a membership
function — so a whole user's stream can be evaluated as numpy array
operations plus a small per-query "mini-sim" for ranking state.

Bit-identity, not approximation:

* every cost is priced by the models' own cost functions, called on
  numpy arrays: :meth:`FlashFilesystem.read_cost` (over
  :meth:`NandFlash.page_read_cost`), :meth:`ResultDatabase.fetch_cost`
  and :meth:`~ResultDatabase.compaction_cost`, and
  :meth:`PocketSearchEngine.hit_cost` / :meth:`~PocketSearchEngine.miss_cost`
  of a default phone (:class:`_DefaultPhone`).  They keep one
  left-to-right association for scalars and arrays alike, so each
  element equals the scalar path's float;
* ranking-score evolution (Equations 1-2) is replayed per (user, query)
  group with the same ``math.exp`` decay and stable top-2 sort;
* outcomes are fed to the same :class:`MetricsCollector` in stream
  order, so bounded-mode reservoirs draw the identical RNG sequence.

The nightly community refresh of Section 6.2.2 runs between
day-segments of the batch and reproduces
:meth:`CacheUpdateServer.refresh_with_content` field for field,
including :class:`UpdatePatch` accounting and database compaction costs.
It does not rebuild the table: each day's refreshed community table is
built once per content (:class:`_DayImage`) and shared by every user,
whose cache is a copy-on-write overlay of the pairs they wrote on top of
it.  A refresh walks only those owned pairs; its counts follow from the
image's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.logs.generator import SearchLog
from repro.logs.schema import UserClass
from repro.pocketsearch.content import CacheContent, _record_bytes
from repro.pocketsearch.database import HEADER_ENTRY_BYTES, CompactionResult
from repro.pocketsearch.engine import (
    RESULTS_PER_PAGE,
    _SOURCE_BY_RADIO,
    PocketSearchEngine,
)
from repro.pocketsearch.hashtable import QueryHashTable, hash64
from repro.pocketsearch.manager import CacheUpdateServer, UpdatePatch
from repro.sim.browser import SERP_BYTES
from repro.sim.metrics import MetricsCollector, QueryOutcome, ServiceSource
from repro.sim.replay import (
    DAY_SECONDS,
    CacheMode,
    UserReplayResult,
    _new_collector,
    make_cache,
    replay_day,
)

__all__ = [
    "DAY_SECONDS",
    "replay_one_user_vectorized",
    "replay_user_vectorized",
]


class _DefaultPhone:
    """The phone every scalar replay starts from, and its constant costs.

    A :class:`PocketSearchEngine` over the scalar harness's own
    :func:`make_cache`, with its database, the update server and the
    ranker's decay.  The hit, miss and render constants come from the
    engine's cost functions, so a change to any model default moves both
    engines alike.
    """

    def __init__(self) -> None:
        engine = PocketSearchEngine(make_cache(None, CacheMode.FULL))
        table = engine.cache.hashtable
        self.engine = engine
        self.database = engine.cache.database
        self.read_cost = self.database.filesystem.read_cost
        self.server = CacheUpdateServer()
        self.width = table.results_per_entry
        self.lookup_s = table.lookup_latency_s
        self.render_s = engine.browser.model.render_seconds(SERP_BYTES)
        radio_latency, _parts, radio_energy = engine.radio_cost()
        self.miss_latency_s, self.miss_energy_j = engine.miss_cost(
            self.lookup_s, radio_latency, radio_energy, self.render_s
        )
        self.miss_source = _SOURCE_BY_RADIO[engine.radio.name]
        # Personalization decay factor (Equation 2), evaluated once: the
        # scalar ranker calls math.exp per click, which is deterministic.
        self.decay = math.exp(-engine.cache.ranker.decay_lambda)


_PHONE: Optional[_DefaultPhone] = None


def _default_phone() -> _DefaultPhone:
    global _PHONE
    if _PHONE is None:
        _PHONE = _DefaultPhone()
    return _PHONE


def _canonical_ids(strings: List[str]):
    """(string -> first id) map plus an id -> canonical-id array.

    Two keys with identical text are one entry to the MD5-keyed hash
    table, so they must collapse to one canonical id.  The common case —
    all strings distinct — resolves at C speed; duplicates take a slow
    first-occurrence-wins pass.
    """
    n = len(strings)
    mapping = dict(zip(strings, range(n)))
    if len(mapping) == n:
        return mapping, np.arange(n, dtype=np.int64)
    mapping = {}
    canonical = np.empty(n, dtype=np.int64)
    for key, text in enumerate(strings):
        canonical[key] = mapping.setdefault(text, key)
    return mapping, canonical


class _DayImage:
    """One content's community table as every refreshed cache holds it.

    The update protocol (Section 5.4) drops every pair a user never
    accessed and merges in the day's popular set, so a refreshed table
    is the content's table plus the user's few retained pairs.  The
    image is that shared part, built once per content and never
    mutated:

    * ``slots``: per-query slot tuples ``(rid, score, False)`` in first
      occurrence order, with the maximum score of repeated pairs;
    * ``n_entries`` / ``n_pairs``: its hash-table entry and pair counts;
    * ``results``: each referenced result's first record size, in
      content order;
    * ``n_content`` / ``repeats``: the number of content entries, and
      the entries beyond the first of each ``(qid, rid)`` pair that
      repeats (a pair's entry count is ``1 + repeats.get(pair, 0)``).

    A query whose slots equal those in ``previous`` (the image built
    before this one) shares its tuple: consecutive days mine overlapping
    trailing windows, so about half the queries carry over unchanged.
    """

    __slots__ = (
        "slots", "n_entries", "n_pairs", "results", "n_content", "repeats",
    )

    def __init__(
        self,
        entries: List[Tuple],
        width: int,
        previous: Optional["_DayImage"] = None,
    ) -> None:
        merged: Dict[int, Dict[int, float]] = {}
        self.results: Dict[int, int] = {}
        self.repeats: Dict[Tuple[int, int], int] = {}
        for qid, rid, score, record_bytes in entries:
            scores = merged.setdefault(qid, {})
            old = scores.get(rid)
            if old is None:
                scores[rid] = score
            else:
                scores[rid] = max(old, score)
                self.repeats[qid, rid] = self.repeats.get((qid, rid), 0) + 1
            self.results.setdefault(rid, record_bytes)
        shared = previous.slots if previous is not None else {}
        self.slots: Dict[int, Tuple[Tuple, ...]] = {}
        for qid, scores in merged.items():
            slots = tuple((rid, score, False) for rid, score in scores.items())
            same = shared.get(qid)
            self.slots[qid] = same if same == slots else slots
        self.n_pairs = sum(map(len, self.slots.values()))
        self.n_entries = sum(
            (len(s) + width - 1) // width for s in self.slots.values()
        )
        self.n_content = len(entries)


class ReplayUniverse:
    """Per-(log, content, mode) immutable mirror of the initial cache.

    Maps the log's string universe into canonical integer ids (two query
    keys with the same string collapse to one id, exactly as their MD5
    hashes collide in the real hash table) and mirrors the community
    bulk-load: the initial hash table (``image0``, a :class:`_DayImage`)
    and result-database layout.  Shared read-only across all users of a
    shard, together with one day image per refresh content.
    """

    def __init__(
        self, log: SearchLog, content: Optional[CacheContent], mode: str
    ) -> None:
        self.phone = _default_phone()
        self.log = log
        self.mode = mode
        community = log.community
        self.n_queries = community.n_queries
        self.n_results = community.n_results

        # Canonical ids: first key with a given string wins, matching the
        # hash table keying entries by the string's hash.
        self._qid_of_str, self.qid_by_ckey = _canonical_ids(
            community.query_strings
        )
        self._rid_of_url, self.rid_by_ckey = _canonical_ids(
            community.result_urls
        )
        # Personal (unique) pair strings are mapped lazily: content almost
        # never references them, and the full pass over _unique_names is
        # measurable at paper scale.
        self._personal_mapped = False
        self._rb_of_rkey: Dict[int, int] = {}
        self._file_of: Dict[int, int] = {}
        self._qstr: Dict[int, str] = {}
        self._static_cost: Dict[int, Tuple[float, float]] = {}
        self._images: Dict[int, Tuple[CacheContent, _DayImage]] = {}
        self._last_image: Optional[_DayImage] = None

        # Mirror of the community bulk-load (make_cache + load_community).
        if mode == CacheMode.PERSONALIZATION_ONLY:
            content = None  # scalar make_cache never loads community here
        if content is None:
            self.image0 = _DayImage([], self.phone.width)
        else:
            self.image0 = self.day_image(content)
        self.db0: Dict[int, Tuple[int, int, int]] = {}
        self.file_sizes0 = [0] * self.phone.database.n_files
        self.file_entries0 = [0] * self.phone.database.n_files
        for rid, record_bytes in self.image0.results.items():
            file_index = self.file_of(rid)
            self.db0[rid] = (
                file_index, self.file_sizes0[file_index], record_bytes
            )
            self.file_sizes0[file_index] += record_bytes + HEADER_ENTRY_BYTES
            self.file_entries0[file_index] += 1

    # -- construction helpers ------------------------------------------------

    def day_image(self, content: CacheContent) -> _DayImage:
        """The :class:`_DayImage` of ``content``, built once per object.

        Cached per content object (daily-update experiments reuse each
        day's mined content across every user).
        """
        cached = self._images.get(id(content))
        if cached is not None and cached[0] is content:
            return cached[1]
        image = _DayImage(
            self.map_content(content),
            self.phone.width,
            self._last_image,
        )
        self._images[id(content)] = (content, image)
        self._last_image = image
        return image

    def map_content(self, content: CacheContent) -> List[Tuple]:
        """Content entries as (qid, rid, score, record_bytes) tuples."""
        entries = []
        for entry in content.entries:
            qid = self._qid_of_str.get(entry.query)
            rid = self._rid_of_url.get(entry.url)
            if qid is None or rid is None:
                self._ensure_personal_maps()
                qid = self._qid_of_str.get(entry.query)
                rid = self._rid_of_url.get(entry.url)
            if qid is None or rid is None:
                raise ValueError(
                    "cache content refers to strings outside this log's "
                    "universe; vectorized replay requires content mined "
                    "from the replayed log"
                )
            entries.append((qid, rid, entry.score, entry.record_bytes))
        return entries

    def _ensure_personal_maps(self) -> None:
        """Extend the string maps with the log's unique (personal) pairs.

        Deferred until a content entry actually references one — cache
        content is community-dominated, and a full pass over the unique
        table is measurable at paper scale.
        """
        if self._personal_mapped:
            return
        self._personal_mapped = True
        for qkey, (text, url) in self.log._unique_names.items():
            self._qid_of_str.setdefault(text, int(qkey))
            rid = self.n_results + (int(qkey) - self.n_queries)
            self._rid_of_url.setdefault(url, rid)

    # -- key-space helpers ----------------------------------------------------

    def map_qkeys(self, qkeys: np.ndarray) -> np.ndarray:
        qid = qkeys.astype(np.int64, copy=True)
        mask = qid < self.n_queries
        if mask.any():
            qid[mask] = self.qid_by_ckey[qid[mask]]
        return qid

    def map_rkeys(self, rkeys: np.ndarray) -> np.ndarray:
        rid = rkeys.astype(np.int64, copy=True)
        mask = rid < self.n_results
        if mask.any():
            rid[mask] = self.rid_by_ckey[rid[mask]]
        return rid

    def record_bytes_of(self, rkeys: np.ndarray) -> np.ndarray:
        """Stored size per clicked result: the community result's mined
        size, else the default (:func:`repro.pocketsearch.content._record_bytes`).

        Resolved per distinct result key through a cache: community sizes
        are a computed property of ~1M records at paper scale, so an
        eager table would cost more than every replay that uses it.
        """
        log = self.log
        cache = self._rb_of_rkey
        out = np.empty(len(rkeys), dtype=np.int64)
        for i, rkey in enumerate(rkeys.tolist()):
            rb = cache.get(rkey)
            if rb is None:
                rb = cache[rkey] = _record_bytes(log, rkey)
            out[i] = rb
        return out

    def file_of(self, rid: int) -> int:
        """Database file index of a result: hash64(url) % n_files."""
        cached = self._file_of.get(rid)
        if cached is None:
            n_files = self.phone.database.n_files
            cached = hash64(self.log.result_url(rid)) % n_files
            self._file_of[rid] = cached
        return cached

    def qstr(self, qkey: int) -> str:
        cached = self._qstr.get(qkey)
        if cached is None:
            cached = self.log.query_string(qkey)
            self._qstr[qkey] = cached
        return cached


class _UserCacheState:
    """Mutable per-user cache mirror: hash table and result database.

    The hash table is a copy-on-write overlay: ``slots`` holds the
    queries this user has written (clicked, or kept through a refresh)
    over the shared, immutable ``image``; only touched queries are ever
    copied.  The registry of cached query strings is not kept: every
    cached query has at least one pair, so it is the overlay's key set.
    In daily mode the state owns its result database (refreshes add and
    collect results); otherwise it is an overlay over the universe's.
    """

    __slots__ = (
        "universe", "daily", "slots", "image", "db", "base_db",
        "file_sizes", "file_entries", "garbage",
    )

    def __init__(self, universe: ReplayUniverse, daily: bool) -> None:
        self.universe = universe
        self.daily = daily
        self.slots: Dict[int, List[List]] = {}
        self.image = universe.image0
        if daily:
            self.db = dict(universe.db0)
            self.base_db: Dict[int, Tuple[int, int, int]] = {}
        else:
            self.db = {}
            self.base_db = universe.db0
        self.file_sizes = list(universe.file_sizes0)
        self.file_entries = list(universe.file_entries0)
        self.garbage = 0

    def has_query(self, qid: int) -> bool:
        return qid in self.slots or qid in self.image.slots

    def slots_of(self, qid: int) -> Optional[Sequence]:
        found = self.slots.get(qid)
        if found is not None:
            return found
        return self.image.slots.get(qid)

    def mutable_slots(self, qid: int) -> List[List]:
        found = self.slots.get(qid)
        if found is None:
            base = self.image.slots.get(qid, ())
            found = [list(slot) for slot in base]
            self.slots[qid] = found
        return found

    def contains_result(self, rid: int) -> bool:
        return rid in self.db or rid in self.base_db

    def locate(self, rid: int) -> Tuple[int, int, int]:
        found = self.db.get(rid)
        if found is not None:
            return found
        return self.base_db[rid]

    def add_result(self, rid: int, record_bytes: int) -> Tuple[int, int, int]:
        file_index = self.universe.file_of(rid)
        stored = (file_index, self.file_sizes[file_index], record_bytes)
        self.db[rid] = stored
        self.file_sizes[file_index] += record_bytes + HEADER_ENTRY_BYTES
        self.file_entries[file_index] += 1
        return stored


# -- batch service ----------------------------------------------------------


def _serve_segment(
    state: _UserCacheState,
    qid: np.ndarray,
    rid: np.ndarray,
    rkeys: np.ndarray,
    personalized: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-serve one refresh-free segment of a user's stream.

    Returns (hit, latency, energy) arrays.  Mutates ``state`` exactly as
    the scalar engine's click path would (personalized mode only).
    """
    phone = state.universe.phone
    n = len(qid)
    unique_q, first_q_idx, inv_q = np.unique(
        qid, return_index=True, return_inverse=True
    )
    present0 = np.fromiter(
        (state.has_query(int(u)) for u in unique_q),
        dtype=bool,
        count=len(unique_q),
    )
    if personalized:
        first_mask = np.zeros(n, dtype=bool)
        first_mask[first_q_idx] = True
        hit = present0[inv_q] | ~first_mask
    else:
        hit = present0[inv_q]

    if not personalized:
        latency = np.full(n, phone.miss_latency_s)
        energy = np.full(n, phone.miss_energy_j)
        static = None if state.daily else state.universe._static_cost
        for g, u in enumerate(unique_q.tolist()):
            if not present0[g]:
                continue
            cost = static.get(u) if static is not None else None
            if cost is None:
                cost = _static_hit_cost(state, u)
                if static is not None:
                    static[u] = cost
            rows = inv_q == g
            latency[rows] = cost[0]
            energy[rows] = cost[1]
        return hit, latency, energy

    # Personalization on: the click path adds clicked results to the
    # database (first click of a result not yet stored).
    record_bytes = state.universe.record_bytes_of(rkeys)
    _unique_r, first_r_idx = np.unique(rid, return_index=True)
    added_rows = sorted(
        int(i) for i in first_r_idx.tolist()
        if not state.contains_result(int(rid[i]))
    )
    n_files = phone.database.n_files
    sizes_delta = np.zeros((n + 1, n_files), dtype=np.int64)
    counts_delta = np.zeros((n + 1, n_files), dtype=np.int64)
    add_files = [state.universe.file_of(int(rid[i])) for i in added_rows]
    for i, file_index in zip(added_rows, add_files):
        sizes_delta[i + 1, file_index] = (
            int(record_bytes[i]) + HEADER_ENTRY_BYTES
        )
        counts_delta[i + 1, file_index] = 1
    base_sizes = np.asarray(state.file_sizes, dtype=np.int64)
    base_counts = np.asarray(state.file_entries, dtype=np.int64)
    sizes_before = base_sizes + np.cumsum(sizes_delta, axis=0)[:n]
    counts_before = base_counts + np.cumsum(counts_delta, axis=0)[:n]
    # Register the adds (stream order keeps the database's insertion
    # order identical to the scalar path, which compaction depends on).
    for i, file_index in zip(added_rows, add_files):
        state.db[int(rid[i])] = (
            file_index,
            int(sizes_before[i, file_index]),
            int(record_bytes[i]),
        )
    state.file_sizes = (
        base_sizes + np.sum(sizes_delta, axis=0)
    ).tolist()
    state.file_entries = (
        base_counts + np.sum(counts_delta, axis=0)
    ).tolist()

    # Ranking mini-sim per query group: stable top-2 selection before
    # each click, then the Equations (1)-(2) score updates.
    top1 = np.full(n, -1, dtype=np.int64)
    top2 = np.full(n, -1, dtype=np.int64)
    decay = phone.decay
    order = np.argsort(inv_q, kind="stable")
    counts = np.bincount(inv_q, minlength=len(unique_q))
    boundaries = np.cumsum(counts)
    start = 0
    rid_list = rid.tolist()
    hit_list = hit.tolist()
    for g, stop in enumerate(boundaries.tolist()):
        rows = order[start:stop]
        start = stop
        slots = state.mutable_slots(int(unique_q[g]))
        for i in rows.tolist():
            if hit_list[i]:
                if len(slots) == 1:
                    top1[i] = slots[0][0]
                elif len(slots) == 2:
                    a, b = slots
                    if b[1] > a[1]:
                        top1[i], top2[i] = b[0], a[0]
                    else:
                        top1[i], top2[i] = a[0], b[0]
                else:
                    ranked = sorted(
                        slots, key=lambda slot: slot[1], reverse=True
                    )
                    top1[i] = ranked[0][0]
                    top2[i] = ranked[1][0]
            clicked = rid_list[i]
            clicked_slot = None
            for slot in slots:
                if slot[0] == clicked:
                    clicked_slot = slot
                else:
                    slot[1] = slot[1] * decay
            if clicked_slot is not None:
                clicked_slot[1] = clicked_slot[1] + 1.0
                clicked_slot[2] = True
            else:
                slots.append([clicked, 1.0, True])

    # Vectorized fetch costing over the hit rows.
    latency = np.full(n, phone.miss_latency_s)
    energy = np.full(n, phone.miss_energy_j)
    hit_rows = np.flatnonzero(hit)
    if len(hit_rows):
        n_hits = len(hit_rows)
        f1 = np.empty(n_hits, dtype=np.int64)
        o1 = np.empty(n_hits, dtype=np.int64)
        b1 = np.empty(n_hits, dtype=np.int64)
        f2 = np.zeros(n_hits, dtype=np.int64)
        o2 = np.zeros(n_hits, dtype=np.int64)
        b2 = np.zeros(n_hits, dtype=np.int64)
        locate = state.locate
        top1_list = top1.tolist()
        top2_list = top2.tolist()
        for k, i in enumerate(hit_rows.tolist()):
            f1[k], o1[k], b1[k] = locate(top1_list[i])
            second = top2_list[i]
            if second >= 0:
                f2[k], o2[k], b2[k] = locate(second)
        fetch_cost = phone.database.fetch_cost
        lat1, en1 = fetch_cost(
            counts_before[hit_rows, f1], o1, b1, phone.read_cost
        )
        lat2, en2 = fetch_cost(
            counts_before[hit_rows, f2], o2, b2, phone.read_cost
        )
        has2 = top2[hit_rows] >= 0
        hit_lat, hit_en = phone.engine.hit_cost(
            phone.lookup_s,
            lat1 + np.where(has2, lat2, 0.0),
            en1 + np.where(has2, en2, 0.0),
            phone.render_s,
        )
        latency[hit_rows] = hit_lat
        energy[hit_rows] = hit_en
    return hit, latency, energy


def _static_hit_cost(
    state: _UserCacheState, qid: int
) -> Tuple[float, float]:
    """Hit cost of a query whose slots and database are static.

    Community-only mode never mutates scores or the database between
    refreshes, so each cached query has one constant (latency, energy).
    """
    phone = state.universe.phone
    slots = state.slots_of(qid)
    ranked = sorted(slots, key=lambda slot: slot[1], reverse=True)
    fetch_lat = 0.0
    fetch_en = 0.0
    for slot in ranked[:RESULTS_PER_PAGE]:
        file_index, offset, record_bytes = state.locate(slot[0])
        lat, en = phone.database.fetch_cost(
            state.file_entries[file_index], offset, record_bytes,
            phone.read_cost,
        )
        fetch_lat += lat
        fetch_en += en
    return phone.engine.hit_cost(
        phone.lookup_s, fetch_lat, fetch_en, phone.render_s
    )


# -- daily refresh --------------------------------------------------------


def _table_size(state: _UserCacheState) -> Tuple[int, int]:
    """(entries, pairs) of the user's hash table: the image's counts
    with the owned queries laid over it."""
    width = state.universe.phone.width
    base = state.image.slots
    n_entries = state.image.n_entries
    n_pairs = state.image.n_pairs
    for qid, slots in state.slots.items():
        shadowed = len(base.get(qid, ()))
        n_entries += (len(slots) + width - 1) // width
        n_entries -= (shadowed + width - 1) // width
        n_pairs += len(slots) - shadowed
    return n_entries, n_pairs


def _refresh_state(state: _UserCacheState, image: _DayImage) -> UpdatePatch:
    """Exact mirror of :meth:`CacheUpdateServer.refresh_with_content`.

    The refreshed table is ``image`` with the user's retained pairs laid
    over it.  Pairs of the old image were never accessed, so the prune
    drops all of them and only the owned queries are walked; the pair
    and query counts follow from the images' counts.
    """
    server = state.universe.phone.server
    n_entries, n_pairs = _table_size(state)
    bytes_uploaded = QueryHashTable.wire_len(n_entries, n_pairs)

    # Step 2: prune never-accessed and decayed pairs.
    fresh = image.slots
    owned: Dict[int, List[List]] = {}
    kept_pairs = 0
    pairs_added = image.n_content
    for qid, slots in state.slots.items():
        kept = [
            slot for slot in slots
            if slot[2] and slot[1] >= server.retention_min_score
        ]
        if kept:
            owned[qid] = kept
            kept_pairs += len(kept)
    pairs_removed = n_pairs - kept_pairs
    # Every cached query holds a pair, so the registry is the table's
    # query set: pruned are those cached before and empty after.
    queries_pruned = len(
        (state.image.slots.keys() | state.slots.keys())
        - fresh.keys()
        - owned.keys()
    )

    # Step 3: merge the fresh popular set (max score wins): retained
    # pairs first, then the image's new results in image order.  Content
    # entries of a retained pair do not count as added.
    for qid, kept in owned.items():
        by_rid = {slot[0]: slot for slot in kept}
        for rid, score, _accessed in fresh.get(qid, ()):
            slot = by_rid.get(rid)
            if slot is None:
                kept.append([rid, score, False])
            else:
                slot[1] = max(slot[1], score)
                pairs_added -= 1 + image.repeats.get((qid, rid), 0)
    state.slots = owned
    state.image = image
    results_added = 0
    patch_files: Dict[int, int] = {}
    for rid, record_bytes in image.results.items():
        if rid not in state.db:
            stored = state.add_result(rid, record_bytes)
            results_added += 1
            patch_files[stored[0]] = (
                patch_files.get(stored[0], 0)
                + record_bytes
                + HEADER_ENTRY_BYTES
            )

    # Step 4: garbage-collect the database, then compact.
    referenced = {slot[0] for slots in owned.values() for slot in slots}
    results_removed = 0
    for rid in sorted(state.db.keys() - image.results.keys() - referenced):
        file_index, _offset, record_bytes = state.db.pop(rid)
        state.file_entries[file_index] -= 1
        state.garbage += record_bytes + HEADER_ENTRY_BYTES
        results_removed += 1
    compacted = None
    if state.garbage > server.compaction_threshold * max(
        sum(state.file_sizes), 1
    ):
        compacted = _compact_state(state)

    bytes_downloaded = QueryHashTable.wire_len(*_table_size(state)) + sum(
        patch_files.values()
    )
    return UpdatePatch(
        bytes_uploaded=bytes_uploaded,
        bytes_downloaded=bytes_downloaded,
        pairs_added=pairs_added,
        pairs_removed=pairs_removed,
        results_added=results_added,
        results_removed=results_removed,
        queries_pruned=queries_pruned,
        compaction=compacted,
        patch_files=patch_files,
    )


def _compact_state(state: _UserCacheState) -> CompactionResult:
    """Exact mirror of :meth:`ResultDatabase.compact` on the state."""
    phone = state.universe.phone
    live = np.array(sorted(state.db.values()), dtype=np.int64).reshape(-1, 3)
    read_lat, read_en = phone.read_cost(live[:, 1], live[:, 2])
    latency, energy = phone.database.compaction_cost(
        read_lat.tolist(), read_en.tolist()
    )
    reclaimed = state.garbage
    state.garbage = 0
    old = list(state.db.items())  # preserves _index insertion order
    state.file_sizes = [0] * phone.database.n_files
    state.file_entries = [0] * phone.database.n_files
    state.db = {}
    for rid, (_file, _offset, record_bytes) in old:
        state.add_result(rid, record_bytes)
    return CompactionResult(
        reclaimed_bytes=reclaimed,
        live_results=len(old),
        latency_s=latency,
        energy_j=energy,
    )


# -- user-level entry points -------------------------------------------------


def _replay_user_arrays(
    universe: ReplayUniverse,
    events: np.ndarray,
    mode: str,
    daily_contents: Optional[List[CacheContent]],
    t_start: float,
    patches_out: Optional[List[UpdatePatch]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hit, latency, energy) arrays of one user's replay."""
    personalized = mode != CacheMode.COMMUNITY_ONLY
    n = len(events)
    if n == 0:
        empty = np.zeros(0)
        return empty.astype(bool), empty, empty
    qid = universe.map_qkeys(events["query_key"])
    rid = universe.map_rkeys(events["result_key"])
    rkeys = events["result_key"]

    if not daily_contents:
        state = _UserCacheState(universe, daily=False)
        return _serve_segment(state, qid, rid, rkeys, personalized)

    # Daily updates: split the stream into day segments, applying the
    # refresh between them (including skipped days, in order), exactly
    # as the scalar loop does.
    images = [universe.day_image(c) for c in daily_contents]
    state = _UserCacheState(universe, daily=True)
    event_day = replay_day(
        events["timestamp"], t_start, len(daily_contents)
    )
    hits: List[np.ndarray] = []
    lats: List[np.ndarray] = []
    ens: List[np.ndarray] = []
    day = 0
    boundaries = np.flatnonzero(np.diff(event_day)) + 1
    starts = np.concatenate(([0], boundaries)).tolist()
    stops = np.concatenate((boundaries, [n])).tolist()
    for lo, hi in zip(starts, stops):
        segment_day = int(event_day[lo])
        while day <= segment_day:
            patch = _refresh_state(state, images[day])
            if patches_out is not None:
                patches_out.append(patch)
            day += 1
        hit, lat, en = _serve_segment(
            state, qid[lo:hi], rid[lo:hi], rkeys[lo:hi], personalized
        )
        hits.append(hit)
        lats.append(lat)
        ens.append(en)
    return np.concatenate(hits), np.concatenate(lats), np.concatenate(ens)


def _emit_outcomes(
    universe: ReplayUniverse,
    events: np.ndarray,
    hit: np.ndarray,
    latency: np.ndarray,
    energy: np.ndarray,
) -> List[QueryOutcome]:
    """Materialize per-event outcomes in stream order.

    Outcomes are built by populating each instance's ``__dict__``
    directly: the frozen-dataclass ``__init__`` routes every field
    through ``object.__setattr__``, which profiles as the single largest
    per-event cost in the batch path.  Field values and equality
    semantics are unchanged (dataclass ``__eq__`` compares fields).
    """
    cache_source = ServiceSource.CACHE
    miss_source = universe.phone.miss_source
    qstr = universe.qstr
    new = object.__new__
    out = []
    append = out.append
    for qkey, h, lat, en, ts, nav in zip(
        events["query_key"].tolist(),
        hit.tolist(),
        latency.tolist(),
        energy.tolist(),
        events["timestamp"].tolist(),
        events["navigational"].tolist(),
    ):
        outcome = new(QueryOutcome)
        outcome.__dict__.update(
            query=qstr(qkey),
            hit=h,
            source=cache_source if h else miss_source,
            latency_s=lat,
            energy_j=en,
            timestamp=ts,
            navigational=nav,
        )
        append(outcome)
    return out


# Process-level caches: shards replay many users against the same log /
# content, and the mirrors are immutable, so they are built once per
# worker.  Strong references are kept alongside so id() keys can never
# alias a collected object.
_UNIVERSE_CACHE: Dict[Tuple[int, int, str], ReplayUniverse] = {}
_BATCH_CACHE: Dict[Tuple[int, float, float, int], object] = {}
_CACHE_LIMIT = 8


def _universe_for(
    log: SearchLog, content: Optional[CacheContent], mode: str
) -> ReplayUniverse:
    key = (id(log), id(content), mode)
    found = _UNIVERSE_CACHE.get(key)
    if found is not None and found.log is log:
        return found
    if len(_UNIVERSE_CACHE) >= _CACHE_LIMIT:
        _UNIVERSE_CACHE.clear()
    universe = ReplayUniverse(log, content, mode)
    _UNIVERSE_CACHE[key] = universe
    return universe


def _batch_for(log: SearchLog, t_start: float, t_end: float, seed: int):
    from repro.logs.columnar import ColumnarEventBatch

    key = (id(log), t_start, t_end, seed)
    found = _BATCH_CACHE.get(key)
    if found is not None and found[0] is log:
        return found[1]
    if len(_BATCH_CACHE) >= _CACHE_LIMIT:
        _BATCH_CACHE.clear()
    batch = ColumnarEventBatch.from_log(
        log, t_start=t_start, t_end=t_end, seed=seed
    )
    _BATCH_CACHE[key] = (log, batch)
    return batch


def replay_user_vectorized(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: Optional[List[CacheContent]],
    mode: str,
    user_id: int,
    t_start: float,
    t_end: float,
    metrics: Optional[MetricsCollector] = None,
    seed: int = 0,
    collect_patches: bool = False,
):
    """Vectorized replay of one user; returns (metrics, patches).

    ``patches`` is the per-refresh :class:`UpdatePatch` list when
    ``collect_patches`` and daily contents are given, else ``None`` —
    the hook the fallback-seam tests use to compare update accounting
    against the scalar :class:`CacheUpdateServer`.
    """
    universe = _universe_for(log, content, mode)
    batch = _batch_for(log, t_start, t_end, seed)
    events = batch.for_user(user_id)
    patches: Optional[List[UpdatePatch]] = (
        [] if (collect_patches and daily_contents) else None
    )
    hit, latency, energy = _replay_user_arrays(
        universe, events, mode, daily_contents, t_start, patches
    )
    if metrics is None:
        metrics = MetricsCollector()
    metrics.extend(_emit_outcomes(universe, events, hit, latency, energy))
    return metrics, patches


def replay_one_user_vectorized(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: Optional[List[CacheContent]],
    config,
    mode: str,
    user_class: UserClass,
    user_id: int,
    t_start: float,
    t_end: float,
):
    """Vectorized counterpart of :func:`repro.sim.replay.replay_one_user`.

    ``daily_contents`` is ``None`` when the user's cache is not refreshed.
    """
    metrics = _new_collector(config, user_id)
    replay_user_vectorized(
        log,
        content,
        daily_contents,
        mode,
        user_id,
        t_start,
        t_end,
        metrics=metrics,
        seed=config.seed,
    )
    return UserReplayResult(
        user_id=user_id, user_class=user_class, metrics=metrics
    )


def clear_caches() -> None:
    """Drop the process-level universe/batch caches (test hygiene)."""
    _UNIVERSE_CACHE.clear()
    _BATCH_CACHE.clear()
