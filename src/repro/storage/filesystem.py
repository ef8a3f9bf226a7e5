"""A flat file layer over the NAND flash model.

PocketSearch stores its search-result database as plain files on flash
(Section 5.2.2).  This filesystem models what matters there:

* **page-rounded allocation** — a file's flash footprint is its size
  rounded up to whole pages, so many tiny files fragment the device;
* **open overhead** — locating a file's metadata costs a fixed latency;
* **positioned reads** — reading a byte range touches only the pages that
  cover it;
* **appends** — adding a search result to a database file programs the
  tail page(s).

Contents are modelled as byte *sizes*, not actual bytes: the experiments
care about time, energy and space, and the PocketSearch database keeps its
own logical content in memory structures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.storage.device import AccessResult
from repro.storage.flash import NandFlash


class FilesystemError(Exception):
    """Raised on invalid filesystem operations (missing file, full device)."""


@dataclass(frozen=True)
class FlashFile:
    """Read-only snapshot of one file's metadata."""

    name: str
    size_bytes: int
    pages_allocated: int
    allocated_bytes: int


@dataclass
class _FileEntry:
    name: str
    size_bytes: int
    pages_allocated: int


class FlashFilesystem:
    """Flat namespace of files with page-granular allocation on flash.

    Args:
        flash: the underlying :class:`NandFlash` device.
        open_overhead_s: fixed latency to locate a file (directory lookup).
        open_energy_j: energy for the lookup.
    """

    def __init__(
        self,
        flash: NandFlash,
        open_overhead_s: float = 2.5e-3,
        open_energy_j: float = 0.5e-3,
    ) -> None:
        self.flash = flash
        self.open_overhead_s = open_overhead_s
        self.open_energy_j = open_energy_j
        self._files: Dict[str, _FileEntry] = {}
        self._pages_used = 0

    def clone(self) -> "FlashFilesystem":
        """An independent copy: file entries and flash counters copied."""
        twin = copy.copy(self)
        twin.flash = self.flash.clone()
        twin._files = {
            name: _FileEntry(name, entry.size_bytes, entry.pages_allocated)
            for name, entry in self._files.items()
        }
        return twin

    # -- namespace ---------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def file_size(self, name: str) -> int:
        return self._entry(name).size_bytes

    def file_allocated_bytes(self, name: str) -> int:
        """Physical footprint: pages allocated x page size."""
        return self._entry(name).pages_allocated * self.flash.geometry.page_bytes

    def stat(self, name: str) -> FlashFile:
        """Return a read-only snapshot of a file's metadata."""
        entry = self._entry(name)
        return FlashFile(
            name=entry.name,
            size_bytes=entry.size_bytes,
            pages_allocated=entry.pages_allocated,
            allocated_bytes=entry.pages_allocated * self.flash.geometry.page_bytes,
        )

    # -- capacity accounting ------------------------------------------------

    @property
    def pages_used(self) -> int:
        return self._pages_used

    @property
    def bytes_used(self) -> int:
        """Physical bytes consumed (page-rounded)."""
        return self._pages_used * self.flash.geometry.page_bytes

    @property
    def logical_bytes(self) -> int:
        """Sum of file sizes (what the data actually needs)."""
        return sum(f.size_bytes for f in self._files.values())

    @property
    def fragmentation_bytes(self) -> int:
        """Wasted space: physical footprint minus logical content."""
        return self.bytes_used - self.logical_bytes

    @property
    def free_bytes(self) -> int:
        return self.flash.capacity_bytes - self.bytes_used

    # -- operations ----------------------------------------------------------

    def create(self, name: str, size_bytes: int = 0) -> AccessResult:
        """Create a file, optionally with initial content of ``size_bytes``.

        Returns the modelled cost of programming the initial pages.

        Raises:
            FilesystemError: if the file exists or the device is full.
        """
        if name in self._files:
            raise FilesystemError(f"file exists: {name!r}")
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        pages = self.flash.geometry.pages_for(size_bytes)
        self._reserve(pages)
        self._files[name] = _FileEntry(name, size_bytes, pages)
        cost = self.flash.program_pages(pages)
        return self._with_open_cost(cost)

    def append(self, name: str, nbytes: int) -> AccessResult:
        """Append ``nbytes`` to a file, programming tail pages as needed.

        The partially filled tail page must be re-programmed (modelled as
        programming it again), plus any new pages the growth requires.
        """
        entry = self._entry(name)
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        geometry = self.flash.geometry
        new_size = entry.size_bytes + nbytes
        new_pages = geometry.pages_for(new_size)
        extra_pages = new_pages - entry.pages_allocated
        if extra_pages > 0:
            self._reserve(extra_pages)
        tail_partial = 1 if entry.size_bytes % geometry.page_bytes else 0
        pages_to_program = max(extra_pages, 0) + tail_partial
        entry.size_bytes = new_size
        entry.pages_allocated = new_pages
        cost = self.flash.program_pages(pages_to_program)
        return self._with_open_cost(cost)

    def read(
        self, name: str, offset: int = 0, length: Optional[int] = None
    ) -> AccessResult:
        """Read ``length`` bytes at ``offset``; costs open + covering pages.

        ``length=None`` reads to end of file.

        Raises:
            FilesystemError: if the file is missing or range out of bounds.
        """
        entry = self._entry(name)
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if length is None:
            length = entry.size_bytes - offset
        if length < 0 or offset + length > entry.size_bytes:
            raise FilesystemError(
                f"read [{offset}, {offset + length}) out of bounds for "
                f"{name!r} of size {entry.size_bytes}"
            )
        cost = self.flash.read_pages(self.covering_pages(offset, length))
        return self._with_open_cost(cost)

    def covering_pages(self, offset, length):
        """Pages a read of ``length`` bytes at ``offset`` touches.

        Takes Python ints or numpy int64 arrays alike; an empty read
        touches no page.
        """
        page = self.flash.geometry.page_bytes
        first = offset // page
        last = (offset + length - 1) // page
        return (last - first + 1) * (length > 0)

    def read_cost(self, offset, length):
        """(latency, energy) of a positioned read, with no accounting.

        Open overhead plus the covering pages: what :meth:`read` charges,
        over Python ints or numpy int64 arrays alike.
        """
        return self._plus_open(
            *self.flash.page_read_cost(self.covering_pages(offset, length))
        )

    def delete(self, name: str) -> None:
        """Delete a file and release its pages."""
        entry = self._entry(name)
        self._pages_used -= entry.pages_allocated
        del self._files[name]

    def truncate(self, name: str, size_bytes: int = 0) -> None:
        """Shrink a file to ``size_bytes`` (no-op growth is rejected)."""
        entry = self._entry(name)
        if size_bytes < 0 or size_bytes > entry.size_bytes:
            raise FilesystemError(
                f"truncate size {size_bytes} invalid for file of "
                f"size {entry.size_bytes}"
            )
        new_pages = self.flash.geometry.pages_for(size_bytes)
        self._pages_used -= entry.pages_allocated - new_pages
        entry.size_bytes = size_bytes
        entry.pages_allocated = new_pages

    # -- helpers ---------------------------------------------------------------

    def _entry(self, name: str) -> _FileEntry:
        try:
            return self._files[name]
        except KeyError:
            raise FilesystemError(f"no such file: {name!r}") from None

    def _reserve(self, pages: int) -> None:
        if self._pages_used + pages > self.flash.geometry.total_pages:
            raise FilesystemError(
                f"device full: need {pages} pages, "
                f"{self.flash.geometry.total_pages - self._pages_used} free"
            )
        self._pages_used += pages

    def _plus_open(self, latency, energy):
        return latency + self.open_overhead_s, energy + self.open_energy_j

    def _with_open_cost(self, cost: AccessResult) -> AccessResult:
        latency, energy = self._plus_open(cost.latency_s, cost.energy_j)
        return AccessResult(
            latency_s=latency, energy_j=energy, bytes_moved=cost.bytes_moved
        )
