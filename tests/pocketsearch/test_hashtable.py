"""Tests for the query hash table (Figure 10)."""

import pytest

from repro.pocketsearch.hashtable import (
    DEFAULT_RESULTS_PER_ENTRY,
    QueryHashTable,
    entry_bytes,
    hash64,
)


class TestHash64:
    def test_deterministic(self):
        assert hash64("youtube") == hash64("youtube")

    def test_salt_changes_hash(self):
        assert hash64("youtube", 0) != hash64("youtube", 1)

    def test_64_bit_range(self):
        assert 0 <= hash64("anything") < 2**64

    def test_known_digests(self):
        """First 8 bytes (little-endian) of MD5 over "<salt>\\0<text>"."""
        assert hash64("youtube") == 7580737438007838736
        assert hash64("youtube", 1) == 9882406653442919817
        assert hash64("youtube", salt=1) == 9882406653442919817
        assert hash64("www.youtube.com") == 6397180353781193656
        assert hash64("") == 2055833797550369956

    def test_memo_is_bounded(self):
        maxsize = hash64.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16


class TestInsertLookup:
    def test_miss_returns_none(self):
        table = QueryHashTable()
        assert table.lookup("nope") is None

    def test_insert_and_lookup(self):
        table = QueryHashTable()
        table.insert("q", 111, 0.7)
        assert table.lookup("q") == [(111, 0.7)]

    def test_results_sorted_by_score(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.2)
        table.insert("q", 2, 0.8)
        table.insert("q", 3, 0.5)
        results = table.lookup("q")
        assert [r for r, _ in results] == [2, 3, 1]

    def test_duplicate_insert_keeps_max_score(self):
        """The Section 5.4 conflict rule: maximum score wins."""
        table = QueryHashTable()
        table.insert("q", 1, 0.3)
        table.insert("q", 1, 0.9)
        table.insert("q", 1, 0.1)
        assert table.lookup("q") == [(1, 0.9)]
        assert table.n_pairs == 1

    def test_chaining_beyond_capacity(self):
        """A query with >2 results spawns chained entries (Fig 10)."""
        table = QueryHashTable(results_per_entry=2)
        for i in range(5):
            table.insert("michael jackson", i, 0.1 * (i + 1))
        assert table.n_entries == 3  # ceil(5/2)
        assert len(table.lookup("michael jackson")) == 5

    def test_contains(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        assert table.contains("q")
        assert not table.contains("other")

    def test_negative_score_rejected(self):
        table = QueryHashTable()
        with pytest.raises(ValueError):
            table.insert("q", 1, -0.1)

    def test_lookup_counter(self):
        table = QueryHashTable()
        table.lookup("a")
        table.lookup("b")
        assert table.total_lookups == 2


class TestScoresAndFlags:
    def test_set_score(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        table.set_score("q", 1, 1.5)
        assert table.lookup("q") == [(1, 1.5)]

    def test_set_score_missing_raises(self):
        table = QueryHashTable()
        with pytest.raises(KeyError):
            table.set_score("q", 1, 0.5)

    def test_mark_accessed(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        table.mark_accessed("q", 1)
        assert table.slots_for("q") == [(1, 0.5, True)]

    def test_flags_word(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5, accessed=False)
        table.insert("q", 2, 0.4, accessed=True)
        entry = next(table.entries())
        assert entry.flags_word() == 0b10

    def test_insert_preserves_accessed_flag(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5, accessed=True)
        table.insert("q", 1, 0.9, accessed=False)
        assert table.slots_for("q") == [(1, 0.9, True)]


class TestRemove:
    def test_remove_existing(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        assert table.remove("q", 1)
        assert table.lookup("q") is None
        assert not table.contains("q")

    def test_remove_missing(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        assert not table.remove("q", 2)
        assert not table.remove("other", 1)

    def test_remove_compacts_chain(self):
        table = QueryHashTable(results_per_entry=2)
        for i in range(5):
            table.insert("q", i, 0.1 * (5 - i))
        table.remove("q", 0)
        results = table.lookup("q")
        assert len(results) == 4
        assert table.n_entries == 2  # 4 slots over width-2 entries

    def test_remove_then_reinsert(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        table.remove("q", 1)
        table.insert("q", 2, 0.4)
        assert table.lookup("q") == [(2, 0.4)]


class TestFootprint:
    def test_entry_bytes_formula(self):
        assert entry_bytes(2) == 24 + 8 + 2 * 12 + 8

    def test_entry_bytes_validation(self):
        with pytest.raises(ValueError):
            entry_bytes(0)

    def test_footprint_counts_entries(self):
        table = QueryHashTable(results_per_entry=2)
        table.insert("a", 1, 0.5)
        table.insert("b", 2, 0.5)
        assert table.footprint_bytes == 2 * entry_bytes(2)

    def test_default_width_is_two(self):
        assert DEFAULT_RESULTS_PER_ENTRY == 2
        assert QueryHashTable().results_per_entry == 2

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            QueryHashTable(results_per_entry=0)
