"""The custom flash database of search results (Section 5.2.2, Figure 13).

Search results are stored once each (shared across all queries that reach
them) in a small, fixed number of plain files on flash — 32 by default,
the paper's measured sweet spot between flash fragmentation (few results
per file waste page-rounded space) and retrieval time (huge per-file
headers are slow to parse).

Each file holds a header line of (result hash, offset) pairs followed by
the result records.  A result's file is chosen by ``hash % n_files``.
Retrieval cost = directory lookup + header read + header parse + record
page read, all modelled through the flash filesystem substrate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.pocketsearch.hashtable import hash64
from repro.storage.filesystem import FlashFilesystem

#: The paper's file count (Figure 12).
DEFAULT_N_FILES = 32

#: Bytes one (hash value, offset) header entry occupies in a file.
HEADER_ENTRY_BYTES = 20

#: Modelled CPU time to parse one header entry while locating a result.
HEADER_PARSE_S_PER_ENTRY = 50e-6

#: Per-file directory lookup cost component that grows with file count
#: (flat-directory scan on the mobile filesystem).
DIRECTORY_SCAN_S_PER_FILE = 4e-6


@dataclass(frozen=True)
class StoredResult:
    """Locator and metadata of one stored search result."""

    url: str
    result_hash: int
    file_index: int
    offset: int
    record_bytes: int


@dataclass(frozen=True)
class FetchResult:
    """Cost and metadata of one database retrieval."""

    stored: StoredResult
    latency_s: float
    energy_j: float


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of a database compaction pass."""

    reclaimed_bytes: int
    live_results: int
    latency_s: float
    energy_j: float


class ResultDatabase:
    """The n-file search-result store.

    Args:
        filesystem: flash filesystem to host the files.
        n_files: number of database files (paper default: 32).
        name_prefix: file-name prefix within the filesystem namespace.
    """

    def __init__(
        self,
        filesystem: FlashFilesystem,
        n_files: int = DEFAULT_N_FILES,
        name_prefix: str = "psdb",
    ) -> None:
        if n_files <= 0:
            raise ValueError(f"n_files must be positive, got {n_files}")
        self.filesystem = filesystem
        self.n_files = n_files
        self.name_prefix = name_prefix
        self._index: Dict[int, StoredResult] = {}
        self._file_sizes: List[int] = [0] * n_files
        self._file_entries: List[int] = [0] * n_files
        self._garbage_bytes = 0
        for i in range(n_files):
            filesystem.create(self._file_name(i))

    def _file_name(self, i: int) -> str:
        return f"{self.name_prefix}.{i:04d}"

    def clone(self) -> "ResultDatabase":
        """An independent copy on a cloned filesystem.

        The frozen :class:`StoredResult` values are shared; the index,
        file sizes and entry counts are copied.
        """
        twin = copy.copy(self)
        twin.filesystem = self.filesystem.clone()
        twin._index = dict(self._index)
        twin._file_sizes = list(self._file_sizes)
        twin._file_entries = list(self._file_entries)
        return twin

    # -- write path ----------------------------------------------------------

    def add_result(self, url: str, record_bytes: int) -> StoredResult:
        """Store one result record; idempotent per URL.

        Appends the record to its hash-selected file and accounts the
        header growth (the (hash, offset) pair added to the file's first
        line).
        """
        if record_bytes <= 0:
            raise ValueError(f"record_bytes must be positive, got {record_bytes}")
        result_hash = hash64(url)
        existing = self._index.get(result_hash)
        if existing is not None:
            return existing
        file_index = result_hash % self.n_files
        offset = self._file_sizes[file_index]
        stored = StoredResult(
            url=url,
            result_hash=result_hash,
            file_index=file_index,
            offset=offset,
            record_bytes=record_bytes,
        )
        self.filesystem.append(
            self._file_name(file_index), record_bytes + HEADER_ENTRY_BYTES
        )
        self._file_sizes[file_index] += record_bytes + HEADER_ENTRY_BYTES
        self._file_entries[file_index] += 1
        self._index[result_hash] = stored
        return stored

    # -- read path ---------------------------------------------------------------

    def contains(self, result_hash: int) -> bool:
        return result_hash in self._index

    def lookup(self, result_hash: int) -> Optional[StoredResult]:
        return self._index.get(result_hash)

    def fetch(self, result_hash: int) -> FetchResult:
        """Retrieve one result and return its modelled cost.

        Cost components (Figure 13's retrieval walk):

        1. directory scan + file open (filesystem overhead, grows mildly
           with the number of files);
        2. read + parse the header line to find the record offset;
        3. read the pages covering the record.

        Raises:
            KeyError: if the result is not stored.
        """
        stored = self._index.get(result_hash)
        if stored is None:
            raise KeyError(f"result hash {result_hash} not in database")
        name = self._file_name(stored.file_index)

        def read(offset: int, length: int) -> Tuple[float, float]:
            if length == 0:
                return 0.0, 0.0  # an empty header is not read
            cost = self.filesystem.read(name, offset, length)
            return cost.latency_s, cost.energy_j

        latency, energy = self.fetch_cost(
            self._file_entries[stored.file_index],
            stored.offset,
            stored.record_bytes,
            read,
        )
        return FetchResult(stored=stored, latency_s=latency, energy_j=energy)

    def fetch_cost(self, entries, offset, record_bytes, read):
        """(latency, energy) of fetching a record from a file of ``entries``.

        The walk of :meth:`fetch`: directory scan, the header read (its
        cost counts only when the file has entries) and parse, then the
        record's pages.  ``read(offset, length)`` returns the (latency,
        energy) of one positioned read of the file: :meth:`fetch` passes
        one that reads the device; :meth:`FlashFilesystem.read_cost`
        prices without accounting, over Python ints or numpy int64 arrays
        alike, as this does.
        """
        header_lat, header_en = read(0, entries * HEADER_ENTRY_BYTES)
        record_lat, record_en = read(offset, record_bytes)
        has_header = entries > 0
        latency = (
            (
                DIRECTORY_SCAN_S_PER_FILE * self.n_files
                + header_lat * has_header
            )
            + entries * HEADER_PARSE_S_PER_ENTRY
        ) + record_lat
        energy = header_en * has_header + record_en
        return latency, energy

    # -- removal and compaction ------------------------------------------------

    def remove_result(self, result_hash: int) -> bool:
        """Drop a result from the index; its record becomes garbage.

        Flash is append-only at file granularity, so removal only
        unlinks the record; the bytes are reclaimed by :meth:`compact`
        (run during charge-time updates).  Returns whether the result
        existed.
        """
        stored = self._index.pop(result_hash, None)
        if stored is None:
            return False
        self._file_entries[stored.file_index] -= 1
        self._garbage_bytes += stored.record_bytes + HEADER_ENTRY_BYTES
        return True

    @property
    def garbage_bytes(self) -> int:
        """Unreachable record bytes awaiting compaction."""
        return self._garbage_bytes

    def compact(self) -> "CompactionResult":
        """Rewrite the database files without garbage records.

        Models the charge-time maintenance pass of the update protocol:
        every live record is read and re-programmed into fresh files, so
        the cost scales with live data, and the page-rounded footprint
        shrinks by the collected garbage.

        Returns:
            A :class:`CompactionResult` with reclaimed bytes and the
            modelled latency/energy of the rewrite.
        """
        live = sorted(self._index.values(), key=lambda s: (s.file_index, s.offset))
        # Read every live record out of the old files.
        reads = [
            self.filesystem.read(
                self._file_name(stored.file_index), stored.offset, stored.record_bytes
            )
            for stored in live
        ]
        # Rebuild the files from scratch.
        for i in range(self.n_files):
            self.filesystem.delete(self._file_name(i))
            self.filesystem.create(self._file_name(i))
        self._file_sizes = [0] * self.n_files
        self._file_entries = [0] * self.n_files
        reclaimed = self._garbage_bytes
        self._garbage_bytes = 0
        old_index = list(self._index.values())
        self._index.clear()
        for stored in old_index:
            new_stored = self.add_result(stored.url, stored.record_bytes)
            assert new_stored.result_hash == stored.result_hash
        latency, energy = self.compaction_cost(
            [cost.latency_s for cost in reads], [cost.energy_j for cost in reads]
        )
        return CompactionResult(
            reclaimed_bytes=reclaimed,
            live_results=len(old_index),
            latency_s=latency,
            energy_j=energy,
        )

    def compaction_cost(
        self, read_latency: List[float], read_energy: List[float]
    ) -> Tuple[float, float]:
        """(latency, energy) of a compaction from its live-record reads.

        The reads are summed in file order, then one file open per
        rewritten record: :meth:`add_result` models the program cost
        through the filesystem, and this folds an approximation of it
        into the compaction totals.
        """
        latency = 0.0
        energy = 0.0
        for lat, en in zip(read_latency, read_energy):
            latency += lat
            energy += en
        for _ in read_latency:
            latency += self.filesystem.open_overhead_s
            energy += self.filesystem.open_energy_j
        return latency, energy

    # -- stats ---------------------------------------------------------------------

    @property
    def n_results(self) -> int:
        return len(self._index)

    @property
    def logical_bytes(self) -> int:
        return sum(self._file_sizes)

    @property
    def allocated_bytes(self) -> int:
        return sum(
            self.filesystem.file_allocated_bytes(self._file_name(i))
            for i in range(self.n_files)
        )

    @property
    def fragmentation_bytes(self) -> int:
        """Page-rounding waste across the database files."""
        return self.allocated_bytes - self.logical_bytes

    def file_stats(self) -> List[dict]:
        return [
            {
                "file": self._file_name(i),
                "entries": self._file_entries[i],
                "bytes": self._file_sizes[i],
            }
            for i in range(self.n_files)
        ]
