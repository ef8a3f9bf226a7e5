"""Copy-on-write cache clones (:meth:`PocketSearchCache.clone`).

Every device starts from a clone of one community cache image.  A write
on any clone, or on the image itself, must never show in another cache,
and a clone must behave exactly like a cache built from scratch.
"""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pocketsearch.cache import PocketSearchCache, VersionedRegistry
from repro.pocketsearch.content import CacheContent, CacheEntry
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.hashtable import hash64
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.replay import CacheMode, make_cache

QUERIES = [f"q{i}" for i in range(6)]
URLS = [f"www.site{i}.com" for i in range(8)]


def _content(pairs):
    return CacheContent(
        entries=[
            CacheEntry(query=q, url=u, volume=10, score=s, navigational=False)
            for q, u, s in pairs
        ],
        total_log_volume=1000,
    )


#: q0 has five results, so its pairs span a three-entry chain.
COMMUNITY = _content(
    [("q0", URLS[i], 0.9 - 0.1 * i) for i in range(5)]
    + [("q1", URLS[5], 0.8), ("q2", URLS[6], 0.7), ("q3", URLS[0], 0.6)]
)
#: Fresh popular sets for refresh rounds: one shrinks, one swaps.
FRESH = [
    _content([("q0", URLS[0], 0.95), ("q1", URLS[5], 0.3)]),
    _content([("q4", URLS[7], 0.9), ("q5", URLS[1], 0.4), ("q0", URLS[6], 0.2)]),
]

queries = st.sampled_from(QUERIES)
urls = st.sampled_from(URLS)
scores = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)

OPS = st.one_of(
    st.tuples(st.just("serve"), queries, urls),
    st.tuples(st.just("insert"), queries, urls, scores, st.booleans()),
    st.tuples(st.just("remove"), queries, urls),
    st.tuples(st.just("set_score"), queries, urls, scores),
    st.tuples(st.just("mark_accessed"), queries, urls),
    st.tuples(st.just("refresh"), st.integers(0, len(FRESH) - 1)),
    st.tuples(st.just("compact")),
)


def _apply(cache: PocketSearchCache, ops) -> list:
    """Run ``ops`` against ``cache``; returns each operation's outcome."""
    engine = PocketSearchEngine(cache)
    table = cache.hashtable
    outcomes = []
    for op, *args in ops:
        if op == "serve":
            query, url = args
            outcomes.append(engine.serve_query(query, url))
        elif op == "insert":
            # Store the result and register the query too, as every cache
            # write path does, so a refresh sees the pair and a later hit
            # can fetch it.
            query, url, score, accessed = args
            cache.database.add_result(url, 500)
            cache.query_registry[hash64(query)] = query
            outcomes.append(table.insert(query, hash64(url), score, accessed))
        elif op == "remove":
            query, url = args
            outcomes.append(table.remove(query, hash64(url)))
        elif op in ("set_score", "mark_accessed"):
            query, url, *score = args
            try:
                outcomes.append(getattr(table, op)(query, hash64(url), *score))
            except KeyError:
                outcomes.append("KeyError")
        elif op == "refresh":
            server = CacheUpdateServer()
            outcomes.append(server.refresh_with_content(cache, FRESH[args[0]]))
        else:
            outcomes.append(cache.database.compact())
    return outcomes


def _snapshot(cache: PocketSearchCache) -> dict:
    """Every piece of per-device state a clone copies or shares."""
    database = cache.database
    filesystem = database.filesystem
    flash = filesystem.flash
    return {
        "table": cache.hashtable.serialize(),
        "lookups": cache.hashtable.total_lookups,
        "index": dict(database._index),
        "files": database.file_stats(),
        "garbage": database.garbage_bytes,
        "pages_used": filesystem.pages_used,
        "fs_files": [filesystem.stat(name) for name in filesystem.list_files()],
        "flash_stats": dataclasses.astuple(flash.stats),
        "flash_totals": (
            flash.total_reads,
            flash.total_writes,
            flash.total_bytes_read,
            flash.total_bytes_written,
            flash.total_time_s,
            flash.total_energy_j,
        ),
        "registry": dict(cache.query_registry),
        "version": cache.query_registry.version,
        "counters": (cache.hits, cache.misses),
    }


# A removal moves the chain's surviving slots into new entries, and a
# later write to one of them must not reach the other side.
@example(ops=[("remove", "q0", URLS[0]), ("serve", "q0", URLS[1])], write_source=False)
@example(ops=[("remove", "q0", URLS[4]), ("set_score", "q0", URLS[0], 1.5)], write_source=True)
@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=25), write_source=st.booleans())
def test_writes_never_leak_between_image_and_clones(ops, write_source):
    """Writes on one side (a clone, or the image after cloning) leave
    every other cache untouched, and the written cache matches a cache
    built from scratch and given the same operations."""
    image = make_cache(COMMUNITY, CacheMode.FULL)
    written, sibling = image.clone(), image.clone()
    if write_source:
        written, image = image, written
    before_image, before_sibling = _snapshot(image), _snapshot(sibling)

    fresh = make_cache(COMMUNITY, CacheMode.FULL)
    assert _apply(written, ops) == _apply(fresh, ops)
    assert _snapshot(written) == _snapshot(fresh)
    assert _snapshot(image) == before_image
    assert _snapshot(sibling) == before_sibling


def test_clone_of_a_clone_is_isolated():
    image = make_cache(COMMUNITY, CacheMode.FULL)
    child = image.clone()
    _apply(child, [("serve", "q0", URLS[7])])
    grandchild = child.clone()
    before = _snapshot(child)
    _apply(grandchild, [("serve", "q0", URLS[7]), ("remove", "q0", URLS[1])])
    assert _snapshot(child) == before
    assert len(_snapshot(image)["table"]) < len(before["table"])


def test_clone_copies_mode_and_shares_immutable_state():
    image = make_cache(COMMUNITY, CacheMode.COMMUNITY_ONLY)
    clone = image.clone()
    assert clone.personalization_enabled is False
    assert clone.ranker is image.ranker
    assert clone.database.filesystem.flash.geometry is (
        image.database.filesystem.flash.geometry
    )
    some_hash = hash64(URLS[0])
    assert clone.database.lookup(some_hash) is image.database.lookup(some_hash)
    assert clone.query_registry.version == image.query_registry.version


class TestPickle:
    def test_registry_round_trip_keeps_items_and_version(self):
        registry = VersionedRegistry()
        registry[1] = "a"
        registry[2] = "b"
        del registry[1]
        loaded = pickle.loads(pickle.dumps(registry))
        assert type(loaded) is VersionedRegistry
        assert dict(loaded) == {2: "b"}
        assert loaded.version == registry.version == 3

    @pytest.mark.parametrize("which", ["image", "clone"])
    def test_cache_round_trip(self, which):
        image = make_cache(COMMUNITY, CacheMode.FULL)
        clone = image.clone()
        _apply(clone, [("serve", "q4", URLS[2]), ("refresh", 1)])
        cache = image if which == "image" else clone
        loaded = pickle.loads(pickle.dumps(cache))
        assert _snapshot(loaded) == _snapshot(cache)
        assert type(loaded.query_registry) is VersionedRegistry
        # The loaded cache stays writable, and writing it leaves the
        # original alone.
        before = _snapshot(cache)
        twin = loaded.clone()
        ops = [("serve", "q0", URLS[7]), ("remove", "q1", URLS[5])]
        assert _apply(loaded, ops) == _apply(twin, ops)
        assert _snapshot(loaded) == _snapshot(twin)
        assert _snapshot(cache) == before
