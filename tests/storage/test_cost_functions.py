"""The storage and database cost functions, over scalars and arrays.

Both replay engines price a fetch with the same functions:
:meth:`ResultDatabase.fetch` passes them Python ints and accounts each
flash read; the vectorized engine passes numpy int64 arrays to
:meth:`FlashFilesystem.read_cost`.  Each array element must equal the
scalar fetch's float exactly (``==``), and the scalar fetch must move the
flash counters as it always has.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pocketsearch.database import ResultDatabase
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import FlashGeometry, NandFlash

#: (page bytes, files, record sizes).  In "straddle" (one file, 64-byte
#: pages, 20-byte header entries) records 2 and 3 start on exact page
#: multiples (64, 128), records 3 and 4 straddle page boundaries, and
#: records 0 and 5 are one byte long.  "crowded" has headers long enough
#: that regrouping the fetch sum changes its rounding.
LAYOUTS = {
    "straddle": (64, 1, (1, 23, 44, 100, 300, 1)),
    "default": (4096, 32, (1, 500, 4076, 4096, 700, 9000)),
    "crowded": (
        64, 1, (1, 38, 75, 112, 149, 186, 223, 260, 297, 334, 371, 408)
    ),
}

#: (layout, header emptied, record, page_reads, total_reads,
#: total_energy_j, fetch latency_s, fetch energy_j): what a fetch moved
#: and returned when every record of a fresh layout is fetched in order,
#: recorded before the cost functions were shared.  With the header
#: emptied, no header is read: one read per fetch.
PARENT_FETCHES = [
    ("straddle", False, 0, 3, 2, 6.000959999999996e-06, 0.0053838, 0.00100600096),
    ("straddle", False, 1, 3, 2, 6.000959999999996e-06, 0.0053838, 0.00100600096),
    ("straddle", False, 2, 3, 2, 6.000959999999996e-06, 0.0053838, 0.00100600096),
    ("straddle", False, 3, 4, 2, 8.001280000000013e-06, 0.005410400000000001, 0.00100800128),
    ("straddle", False, 4, 8, 2, 1.600256e-05, 0.0055168000000000005, 0.0010160025600000002),
    ("straddle", False, 5, 3, 2, 6.000959999999996e-06, 0.0053838, 0.00100600096),
    ("straddle", True, 0, 1, 1, 2.0003199999999897e-06, 0.0025306, 0.00050200032),
    ("straddle", True, 3, 2, 1, 4.0006400000000065e-06, 0.0025572000000000004, 0.00050400064),
    ("straddle", True, 4, 6, 1, 1.2001919999999992e-05, 0.0026636000000000003, 0.00051200192),
    ("default", False, 0, 2, 2, 4.040959999999981e-06, 0.005432800000000001, 0.00100404096),
    ("default", False, 2, 2, 2, 4.040959999999981e-06, 0.0054828, 0.00100404096),
    ("default", False, 5, 4, 2, 8.08191999999999e-06, 0.005687600000000001, 0.0010080819199999999),
    ("default", True, 0, 1, 1, 2.0204799999999905e-06, 0.0027554000000000003, 0.00050202048),
    ("default", True, 5, 3, 1, 6.061439999999999e-06, 0.0030102, 0.00050606144),
    ("crowded", False, 0, 5, 2, 1.0001599999999921e-05, 0.005737000000000001, 0.0010100016),
    ("crowded", False, 1, 5, 2, 1.0001599999999921e-05, 0.005737000000000001, 0.0010100016),
    ("crowded", False, 2, 6, 2, 1.2001919999999992e-05, 0.005763600000000001, 0.00101200192),
    ("crowded", False, 3, 7, 2, 1.4002239999999955e-05, 0.0057902000000000006,
     0.0010140022399999999),
    ("crowded", False, 4, 8, 2, 1.6002559999999917e-05, 0.0058168000000000004, 0.00101600256),
    ("crowded", False, 5, 8, 2, 1.6002559999999917e-05, 0.0058168000000000004, 0.00101600256),
    ("crowded", False, 6, 9, 2, 1.800287999999999e-05, 0.0058434, 0.00101800288),
    ("crowded", False, 7, 9, 2, 1.800287999999999e-05, 0.0058434, 0.00101800288),
    ("crowded", False, 8, 10, 2, 2.000319999999995e-05, 0.00587, 0.0010200031999999999),
    ("crowded", False, 9, 10, 2, 2.000319999999995e-05, 0.00587, 0.0010200031999999999),
    ("crowded", False, 10, 11, 2, 2.2003520000000022e-05, 0.0058966, 0.00102200352),
    ("crowded", False, 11, 11, 2, 2.200352000000013e-05, 0.0058966, 0.00102200352),
]


def _database(page_bytes, n_files, sizes, empty=False):
    """A database holding one record per size, and their hashes.

    ``empty`` zeroes every file's entry count: a header listing no entry
    is not read.  ``add_result`` never leaves a stored record's file in
    that state, but the fetch walk defines it.
    """
    flash = NandFlash(FlashGeometry(page_bytes=page_bytes))
    db = ResultDatabase(FlashFilesystem(flash), n_files=n_files)
    hashes = [
        db.add_result(f"http://r/{i}", size).result_hash
        for i, size in enumerate(sizes)
    ]
    if empty:
        db._file_entries = [0] * n_files
    return db, hashes


def test_straddle_layout_covers_the_edge_cases():
    page, _n_files, sizes = LAYOUTS["straddle"]
    db, hashes = _database(*LAYOUTS["straddle"])
    stored = [db.lookup(h) for h in hashes]
    assert any(s.offset > 0 and s.offset % page == 0 for s in stored)
    assert any(
        s.offset // page != (s.offset + s.record_bytes - 1) // page
        for s in stored
    )
    assert 1 in sizes


@given(
    page_bytes=st.sampled_from([16, 64, 512, 4096]),
    n_files=st.integers(min_value=1, max_value=4),
    sizes=st.lists(
        st.one_of(
            st.just(1),
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=1, max_value=9000),
        ),
        min_size=1,
        max_size=25,
    ),
    empty=st.booleans(),
)
@example(page_bytes=64, n_files=1, sizes=LAYOUTS["straddle"][2], empty=False)
@example(page_bytes=64, n_files=1, sizes=LAYOUTS["straddle"][2], empty=True)
@example(page_bytes=4096, n_files=32, sizes=LAYOUTS["default"][2], empty=False)
@settings(max_examples=150, deadline=None)
def test_array_fetch_cost_equals_scalar_fetch(page_bytes, n_files, sizes, empty):
    db, hashes = _database(page_bytes, n_files, sizes, empty)
    stored = [db.lookup(h) for h in hashes]
    entries = np.array(
        [db._file_entries[s.file_index] for s in stored], dtype=np.int64
    )
    offsets = np.array([s.offset for s in stored], dtype=np.int64)
    nbytes = np.array([s.record_bytes for s in stored], dtype=np.int64)
    latency, energy = db.fetch_cost(
        entries, offsets, nbytes, db.filesystem.read_cost
    )
    for i, result_hash in enumerate(hashes):
        fetch = db.fetch(result_hash)
        assert latency[i] == fetch.latency_s
        assert energy[i] == fetch.energy_j
        # The scalar form over Python ints agrees too.
        assert db.fetch_cost(
            int(entries[i]), int(offsets[i]), int(nbytes[i]),
            db.filesystem.read_cost,
        ) == (fetch.latency_s, fetch.energy_j)

    if not empty:
        # Compaction prices the live records in file order.
        live = sorted(stored, key=lambda s: (s.file_index, s.offset))
        read_lat, read_en = db.filesystem.read_cost(
            np.array([s.offset for s in live], dtype=np.int64),
            np.array([s.record_bytes for s in live], dtype=np.int64),
        )
        expected = db.compaction_cost(read_lat.tolist(), read_en.tolist())
        compacted = db.compact()
        assert (compacted.latency_s, compacted.energy_j) == expected


@pytest.mark.parametrize(
    "layout, empty",
    [("straddle", False), ("straddle", True), ("default", False),
     ("default", True), ("crowded", False)],
)
def test_fetch_moves_flash_counters_as_before(layout, empty):
    """Fetch every record in turn; the pinned ones move the counters and
    cost what they did."""
    pinned = {row[2]: row[3:] for row in PARENT_FETCHES if row[:2] == (layout, empty)}
    db, hashes = _database(*LAYOUTS[layout], empty=empty)
    flash = db.filesystem.flash
    for index, result_hash in enumerate(hashes):
        before = (flash.stats.page_reads, flash.total_reads, flash.total_energy_j)
        fetch = db.fetch(result_hash)
        if index in pinned:
            assert (
                flash.stats.page_reads - before[0],
                flash.total_reads - before[1],
                flash.total_energy_j - before[2],
                fetch.latency_s,
                fetch.energy_j,
            ) == pinned[index]
    assert pinned


def test_empty_read_touches_no_page():
    fs = FlashFilesystem(NandFlash(FlashGeometry(page_bytes=64)))
    lengths = np.array([0, 0, 1, 64, 65], dtype=np.int64)
    offsets = np.array([0, 100, 63, 64, 0], dtype=np.int64)
    assert fs.covering_pages(offsets, lengths).tolist() == [0, 0, 1, 1, 2]
    assert [
        fs.covering_pages(int(o), int(n)) for o, n in zip(offsets, lengths)
    ] == [0, 0, 1, 1, 2]
