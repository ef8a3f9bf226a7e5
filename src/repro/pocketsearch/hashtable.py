"""The query hash table (Section 5.2.1, Figure 10).

Lives in DRAM and links query strings to search results.  Every entry
holds:

* the 64-bit hash of the query string (salted by a chain index so a query
  with more than two results spawns additional entries);
* two (result hash, ranking score) slots;
* a 64-bit flags word — one bit per slot records whether the user has
  ever accessed that query-result pair (used by the update protocol).

Two results per entry is the footprint-minimizing choice (Figure 11):
most queries have one or two popular results, so wider entries waste
slots while single-slot entries pay the per-entry overhead once per
result.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Fixed per-entry costs, in bytes.
QUERY_HASH_BYTES = 8
RESULT_HASH_BYTES = 8
SCORE_BYTES = 4
FLAGS_BYTES = 8
#: Bucket/pointer overhead of the in-memory table structure per entry.
ENTRY_OVERHEAD_BYTES = 24

#: The paper's choice of results per entry.
DEFAULT_RESULTS_PER_ENTRY = 2


@functools.lru_cache(maxsize=1 << 16)
def hash64(text: str, salt: int = 0) -> int:
    """Deterministic 64-bit hash of a string (stable across runs).

    Python's built-in ``hash`` is randomized per process, so the table
    uses the first 8 bytes of MD5 instead — the paper's two-argument hash
    function is modelled by mixing ``salt`` into the digest input.

    Memoised with a bound: a serving cache hashes the same few thousand
    query strings and URLs over and over (every lookup, insert and
    refresh walks a query's chain by hash).
    """
    digest = hashlib.md5(f"{salt}\x00{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class _Slot:
    result_hash: int
    score: float
    accessed: bool = False


@dataclass
class HashEntry:
    """One hash-table entry: up to ``capacity`` result slots.

    ``owner`` is the token of the one table allowed to write the entry in
    place (see :meth:`QueryHashTable.clone`); any other table copies it
    first.
    """

    query_hash: int
    capacity: int
    slots: List[_Slot] = field(default_factory=list)
    owner: object = field(default=None, compare=False, repr=False)

    @property
    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def flags_word(self) -> int:
        """The 64-bit flags field: bit *i* set if slot *i* was accessed."""
        word = 0
        for i, slot in enumerate(self.slots):
            if slot.accessed:
                word |= 1 << i
        return word


def entry_bytes(results_per_entry: int) -> int:
    """Modelled DRAM bytes of one entry with the given slot count."""
    if results_per_entry <= 0:
        raise ValueError("results_per_entry must be positive")
    return (
        ENTRY_OVERHEAD_BYTES
        + QUERY_HASH_BYTES
        + results_per_entry * (RESULT_HASH_BYTES + SCORE_BYTES)
        + FLAGS_BYTES
    )


class QueryHashTable:
    """Query -> ranked search results index.

    Args:
        results_per_entry: slots per entry (the paper uses 2).
        lookup_latency_s: modelled DRAM lookup time (Table 4: ~10 us).
    """

    def __init__(
        self,
        results_per_entry: int = DEFAULT_RESULTS_PER_ENTRY,
        lookup_latency_s: float = 10e-6,
    ) -> None:
        if results_per_entry <= 0:
            raise ValueError("results_per_entry must be positive")
        if lookup_latency_s < 0:
            raise ValueError("lookup_latency_s must be non-negative")
        self.results_per_entry = results_per_entry
        self.lookup_latency_s = lookup_latency_s
        # Keyed by (query_hash, chain index).
        self._entries: Dict[Tuple[int, int], HashEntry] = {}
        #: Write token: entries carrying it belong to this table alone.
        self._owner = object()
        self.total_lookups = 0

    # -- copy-on-write ----------------------------------------------------------

    def clone(self) -> "QueryHashTable":
        """An independent table that shares every entry with this one.

        Both tables get fresh write tokens, so every entry is then shared
        on both sides: whichever table first writes an entry copies it
        (:meth:`_own`), and the other keeps seeing the original.
        """
        twin = copy.copy(self)
        twin._entries = dict(self._entries)
        twin._owner = object()
        self._owner = object()
        return twin

    def _own(self, key: Tuple[int, int]) -> HashEntry:
        """The entry at ``key``, copied first unless this table owns it.

        Every write to an existing entry's slots goes through here.
        """
        entry = self._entries[key]
        if entry.owner is not self._owner:
            entry = HashEntry(
                query_hash=entry.query_hash,
                capacity=entry.capacity,
                slots=[_Slot(s.result_hash, s.score, s.accessed) for s in entry.slots],
                owner=self._owner,
            )
            self._entries[key] = entry
        return entry

    # -- write path ---------------------------------------------------------

    def insert(
        self, query: str, result_hash: int, score: float, accessed: bool = False
    ) -> None:
        """Insert or update one (query, result) pair.

        If the pair exists, its score is replaced only when the new score
        is higher (the conflict rule of Section 5.4).  New results go in
        the first free slot, chaining a new entry when all are full.
        """
        if not 0 <= score:
            raise ValueError(f"score must be non-negative, got {score}")
        chain = 0
        while True:
            key = (hash64(query, chain), chain)
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = HashEntry(
                    query_hash=key[0],
                    capacity=self.results_per_entry,
                    slots=[_Slot(result_hash, score, accessed)],
                    owner=self._owner,
                )
                return
            for i, slot in enumerate(entry.slots):
                if slot.result_hash == result_hash:
                    slot = self._own(key).slots[i]
                    slot.score = max(slot.score, score)
                    slot.accessed = slot.accessed or accessed
                    return
            if not entry.is_full:
                self._own(key).slots.append(_Slot(result_hash, score, accessed))
                return
            chain += 1

    def set_score(self, query: str, result_hash: int, score: float) -> None:
        """Overwrite a pair's score (used by the personalized ranker)."""
        slot = self._find_slot(query, result_hash)
        if slot is None:
            raise KeyError(f"pair ({query!r}, {result_hash}) not cached")
        slot.score = score

    def mark_accessed(self, query: str, result_hash: int) -> None:
        """Set the pair's access flag (drives update-time retention)."""
        slot = self._find_slot(query, result_hash)
        if slot is None:
            raise KeyError(f"pair ({query!r}, {result_hash}) not cached")
        slot.accessed = True

    def remove(self, query: str, result_hash: int) -> bool:
        """Remove one pair; returns whether it existed.

        Later chained slots are compacted into the freed position so
        lookups never see a gap.
        """
        chain = 0
        shared = False
        all_slots: List[_Slot] = []
        keys = []
        while True:
            key = (hash64(query, chain), chain)
            entry = self._entries.get(key)
            if entry is None:
                break
            keys.append(key)
            all_slots.extend(entry.slots)
            shared = shared or entry.owner is not self._owner
            chain += 1
        kept = [s for s in all_slots if s.result_hash != result_hash]
        if len(kept) == len(all_slots):
            return False
        if shared:
            # The kept slots move into new entries: take owned copies.
            kept = [
                s
                for key in keys
                for s in self._own(key).slots
                if s.result_hash != result_hash
            ]
        self._rewrite_chain(keys, kept)
        return True

    def _rewrite_chain(
        self, keys: List[Tuple[int, int]], slots: List[_Slot]
    ) -> None:
        for key in keys:
            del self._entries[key]
        for i in range(0, len(slots), self.results_per_entry):
            chain = i // self.results_per_entry
            key = keys[chain]
            self._entries[key] = HashEntry(
                query_hash=key[0],
                capacity=self.results_per_entry,
                slots=slots[i : i + self.results_per_entry],
                owner=self._owner,
            )

    # -- read path --------------------------------------------------------------

    def lookup(self, query: str) -> Optional[List[Tuple[int, float]]]:
        """All (result hash, score) pairs for a query, descending score.

        Returns ``None`` on a cache miss.  The walk follows chained
        entries until a missing chain index.
        """
        self.total_lookups += 1
        results: List[Tuple[int, float]] = []
        chain = 0
        while True:
            key = (hash64(query, chain), chain)
            entry = self._entries.get(key)
            if entry is None:
                break
            results.extend((s.result_hash, s.score) for s in entry.slots)
            chain += 1
        if not results:
            return None
        return sorted(results, key=lambda rs: rs[1], reverse=True)

    def contains(self, query: str) -> bool:
        key = (hash64(query, 0), 0)
        entry = self._entries.get(key)
        return entry is not None and bool(entry.slots)

    def slots_for(self, query: str) -> List[Tuple[int, float, bool]]:
        """(result hash, score, accessed) per slot, in chain order."""
        out = []
        chain = 0
        while True:
            key = (hash64(query, chain), chain)
            entry = self._entries.get(key)
            if entry is None:
                break
            out.extend((s.result_hash, s.score, s.accessed) for s in entry.slots)
            chain += 1
        return out

    def _find_slot(self, query: str, result_hash: int) -> Optional[_Slot]:
        """The pair's slot, in an owned entry, for the caller to write."""
        chain = 0
        while True:
            key = (hash64(query, chain), chain)
            entry = self._entries.get(key)
            if entry is None:
                return None
            for i, slot in enumerate(entry.slots):
                if slot.result_hash == result_hash:
                    return self._own(key).slots[i]
            chain += 1

    # -- footprint ----------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def n_pairs(self) -> int:
        return sum(len(e.slots) for e in self._entries.values())

    @property
    def footprint_bytes(self) -> int:
        """Modelled DRAM footprint (Figure 11's y-axis)."""
        return self.n_entries * entry_bytes(self.results_per_entry)

    def entries(self) -> Iterator[HashEntry]:
        """The live entries, in table order.

        Read-only: an entry may be shared with clones of this table
        (:meth:`clone`), so callers must not mutate it or its slots.
        """
        return iter(self._entries.values())

    # -- wire format ------------------------------------------------------------

    _HEADER = struct.Struct("<4sBI")  # magic, width, entry count
    _ENTRY_HEAD = struct.Struct("<QHB")  # query hash, chain idx, slot count
    _SLOT = struct.Struct("<QfB")  # result hash, score, accessed
    _MAGIC = b"PSHT"

    def serialized_len(self) -> int:
        """``len(self.serialize())``, without building the blob."""
        return self.wire_len(self.n_entries, self.n_pairs)

    @classmethod
    def wire_len(cls, n_entries: int, n_pairs: int) -> int:
        """Serialized length of a table of ``n_entries`` holding ``n_pairs``."""
        return (
            cls._HEADER.size
            + cls._ENTRY_HEAD.size * n_entries
            + cls._SLOT.size * n_pairs
        )

    def serialize(self) -> bytes:
        """Encode the table as the update protocol's wire format.

        This is what the phone uploads to the server in Figure 14 and
        what the server ships back: a compact, self-describing blob.
        """
        parts = [self._HEADER.pack(self._MAGIC, self.results_per_entry, self.n_entries)]
        for (query_hash, chain), entry in self._entries.items():
            parts.append(self._ENTRY_HEAD.pack(query_hash, chain, len(entry.slots)))
            for slot in entry.slots:
                parts.append(
                    self._SLOT.pack(slot.result_hash, slot.score, int(slot.accessed))
                )
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes, lookup_latency_s: float = 10e-6) -> "QueryHashTable":
        """Decode a :meth:`serialize` blob back into a table.

        Raises:
            ValueError: on a malformed or truncated blob.
        """
        if len(data) < cls._HEADER.size:
            raise ValueError("hash-table blob too short for header")
        magic, width, n_entries = cls._HEADER.unpack_from(data, 0)
        if magic != cls._MAGIC:
            raise ValueError(f"bad hash-table magic {magic!r}")
        table = cls(results_per_entry=width, lookup_latency_s=lookup_latency_s)
        offset = cls._HEADER.size
        for _ in range(n_entries):
            if offset + cls._ENTRY_HEAD.size > len(data):
                raise ValueError("truncated hash-table blob (entry head)")
            query_hash, chain, n_slots = cls._ENTRY_HEAD.unpack_from(data, offset)
            offset += cls._ENTRY_HEAD.size
            entry = HashEntry(
                query_hash=query_hash, capacity=width, owner=table._owner
            )
            for _ in range(n_slots):
                if offset + cls._SLOT.size > len(data):
                    raise ValueError("truncated hash-table blob (slot)")
                result_hash, score, accessed = cls._SLOT.unpack_from(data, offset)
                offset += cls._SLOT.size
                entry.slots.append(_Slot(result_hash, score, bool(accessed)))
            table._entries[(query_hash, chain)] = entry
        if offset != len(data):
            raise ValueError(
                f"hash-table blob has {len(data) - offset} trailing bytes"
            )
        return table
