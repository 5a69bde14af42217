"""Unit tests for the baseline's substrates: fs, slotted pages, WAL, pool."""

import pytest

from repro.baseline import (
    BufferPool,
    FileError,
    PageFullError,
    SimpleFilesystem,
    SlottedPage,
    WriteAheadLog,
)
from repro.blockdev import NvmeBlockDevice
from repro.config import ReproConfig
from repro.sim import Environment


def make_fs():
    env = Environment()
    device = NvmeBlockDevice(env, ReproConfig.small())
    return env, SimpleFilesystem(env, device)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


# -- filesystem ---------------------------------------------------------------

def test_fs_create_and_rw():
    env, fs = make_fs()
    fs.create("data", 8)

    def flow():
        yield from fs.write_page("data", 3, "payload")
        value = yield from fs.read_page("data", 3)
        return value

    assert run(env, flow()) == "payload"


def test_fs_files_are_disjoint():
    env, fs = make_fs()
    fs.create("a", 4)
    fs.create("b", 4)

    def flow():
        yield from fs.write_page("a", 0, "from-a")
        yield from fs.write_page("b", 0, "from-b")
        va = yield from fs.read_page("a", 0)
        vb = yield from fs.read_page("b", 0)
        return va, vb

    assert run(env, flow()) == ("from-a", "from-b")


def test_fs_bounds_and_duplicates():
    env, fs = make_fs()
    fs.create("f", 2)
    with pytest.raises(FileError):
        fs.create("f", 2)
    with pytest.raises(FileError):
        fs.create("zero", 0)

    def flow():
        yield from fs.read_page("f", 9)

    with pytest.raises(FileError):
        run(env, flow())


def test_fs_no_space():
    env, fs = make_fs()
    with pytest.raises(FileError):
        fs.create("huge", 10**9)


def test_fs_extend():
    env, fs = make_fs()
    fs.create("f", 2)
    fs.extend("f", 3)
    assert fs.size_pages("f") == 5


def test_fs_fsync_counts_and_costs_time():
    env, fs = make_fs()
    fs.create("f", 2)

    def flow():
        start = env.now
        yield from fs.fsync("f")
        return env.now - start

    elapsed = run(env, flow())
    assert elapsed >= fs.host_costs.fsync_us
    assert fs.fsyncs == 1


# -- slotted page --------------------------------------------------------------

def test_page_insert_read_update_delete():
    page = SlottedPage(4096)
    slot = page.insert("v1", 100)
    assert page.read(slot) == ("v1", 100)
    page.update(slot, "v2", 120)
    assert page.read(slot) == ("v2", 120)
    page.delete(slot)
    with pytest.raises(KeyError):
        page.read(slot)


def test_page_slot_reuse_after_delete():
    page = SlottedPage(4096)
    first = page.insert("a", 100)
    page.insert("b", 100)
    page.delete(first)
    reused = page.insert("c", 100)
    assert reused == first


def test_page_fills_up():
    page = SlottedPage(1024)
    count = 0
    while page.fits(100):
        page.insert("x", 100)
        count += 1
    assert count >= 8
    with pytest.raises(PageFullError):
        page.insert("overflow", 100)


def test_page_update_growth_respects_space():
    page = SlottedPage(256)
    slot = page.insert("small", 100)
    with pytest.raises(PageFullError):
        page.update(slot, "huge", 100000)


def test_page_snapshot_is_independent():
    page = SlottedPage(4096)
    slot = page.insert("orig", 100)
    snap = page.snapshot()
    page.update(slot, "changed", 100)
    assert snap.read(slot) == ("orig", 100)


# -- WAL -------------------------------------------------------------------------

def test_wal_lsns_monotonic():
    env, fs = make_fs()
    wal = WriteAheadLog(env, fs, log_pages=64)

    def flow():
        lsns = []
        for i in range(5):
            lsn = yield from wal.append(dict(txn_id=1, kind="update", size=64))
            lsns.append(lsn)
        return lsns

    lsns = run(env, flow())
    assert lsns == sorted(lsns)
    assert len(set(lsns)) == 5


def test_wal_flush_makes_durable():
    env, fs = make_fs()
    wal = WriteAheadLog(env, fs, log_pages=64)

    def flow():
        lsn = yield from wal.append(dict(txn_id=1, kind="commit"))
        yield from wal.flush_to(lsn)
        return lsn

    lsn = run(env, flow())
    assert wal.flushed_lsn >= lsn
    assert fs.fsyncs == 1


def test_wal_group_commit_shares_flush():
    """Multiple committers during one flush cycle need few fsyncs."""
    env, fs = make_fs()
    wal = WriteAheadLog(env, fs, log_pages=64)

    def committer(txn_id):
        lsn = yield from wal.append(dict(txn_id=txn_id, kind="commit"))
        yield from wal.flush_to(lsn)

    for txn_id in range(8):
        env.process(committer(txn_id))
    env.run()
    assert wal.flushed_lsn >= 8
    assert fs.fsyncs <= 4  # far fewer than one per committer


# -- buffer pool -------------------------------------------------------------------

def test_pool_miss_then_hit():
    env, fs = make_fs()
    fs.create("t", 8)
    pool = BufferPool(env, fs, capacity_pages=4)

    def flow():
        page = yield from pool.fetch("t", 0)
        page.insert("rec", 64)
        pool.unpin("t", 0, dirty=True)
        again = yield from pool.fetch("t", 0)
        pool.unpin("t", 0)
        return again.record_count

    assert run(env, flow()) == 1
    assert pool.stats.hits == 1
    assert pool.stats.misses == 1


def test_pool_eviction_writes_back_dirty():
    env, fs = make_fs()
    fs.create("t", 16)
    pool = BufferPool(env, fs, capacity_pages=2)

    def flow():
        page = yield from pool.fetch("t", 0)
        page.insert("persisted", 64)
        pool.unpin("t", 0, dirty=True)
        # Force eviction of page 0.
        for i in range(1, 4):
            yield from pool.fetch("t", i)
            pool.unpin("t", i)
        yield env.timeout(500000.0)
        reread = yield from pool.fetch("t", 0)
        pool.unpin("t", 0)
        return reread.record_count

    assert run(env, flow()) == 1
    assert pool.stats.writebacks >= 1
    assert pool.stats.evictions >= 1


def test_pool_pinned_pages_not_evicted():
    env, fs = make_fs()
    fs.create("t", 16)
    pool = BufferPool(env, fs, capacity_pages=1)

    def flow():
        yield from pool.fetch("t", 0, pin=True)  # stays pinned
        yield from pool.fetch("t", 1)
        pool.unpin("t", 1)
        return len(pool)

    # Pinned page survives; pool allows temporary overcommit.
    assert run(env, flow()) >= 1


def test_pool_checkpoint_flushes_dirty():
    env, fs = make_fs()
    fs.create("t", 8)
    pool = BufferPool(env, fs, capacity_pages=8)

    def flow():
        for i in range(3):
            page = yield from pool.fetch("t", i)
            page.insert("x", 64)
            pool.unpin("t", i, dirty=True)
        yield from pool.checkpoint()

    run(env, flow())
    assert pool.stats.checkpoint_writes == 3


def test_pool_capacity_validation():
    env, fs = make_fs()
    with pytest.raises(ValueError):
        BufferPool(env, fs, capacity_pages=0)
