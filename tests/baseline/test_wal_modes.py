"""WAL group-commit modes."""

from repro.baseline import SimpleFilesystem, WriteAheadLog
from repro.blockdev import NvmeBlockDevice
from repro.config import ReproConfig
from repro.sim import Environment


def make_wal(group_commit=True):
    env = Environment()
    device = NvmeBlockDevice(env, ReproConfig.small())
    fs = SimpleFilesystem(env, device)
    wal = WriteAheadLog(env, fs, log_pages=64, group_commit=group_commit)
    return env, fs, wal


def committers(env, wal, count):
    done = []

    def committer(txn_id):
        lsn = yield from wal.append(dict(txn_id=txn_id, kind="commit"))
        yield from wal.flush_to(lsn)
        done.append(txn_id)

    for txn_id in range(count):
        env.process(committer(txn_id))
    env.run()
    return done


def test_group_commit_amortizes_fsyncs():
    env, fs, wal = make_wal(group_commit=True)
    done = committers(env, wal, 10)
    assert len(done) == 10
    assert fs.fsyncs < 10


def test_no_group_commit_one_fsync_each():
    env, fs, wal = make_wal(group_commit=False)
    done = committers(env, wal, 10)
    assert len(done) == 10
    assert fs.fsyncs >= 10


def test_no_group_commit_still_durable():
    env, fs, wal = make_wal(group_commit=False)
    committers(env, wal, 5)
    assert wal.flushed_lsn >= 5


def test_flush_to_old_lsn_is_cheap():
    env, fs, wal = make_wal()

    def flow():
        lsn = yield from wal.append(dict(txn_id=1, kind="commit"))
        yield from wal.flush_to(lsn)
        fsyncs_before = fs.fsyncs
        yield from wal.flush_to(lsn)  # already durable
        return fs.fsyncs - fsyncs_before

    proc = env.process(flow())
    env.run_until(proc)
    assert proc.value == 0


def test_log_file_wraps_circularly():
    """Many flushes must not run off the end of the log file."""
    env, fs, wal = make_wal()

    def flow():
        for i in range(200):
            lsn = yield from wal.append(dict(txn_id=i, kind="update", size=4096))
            yield from wal.flush_to(lsn)

    proc = env.process(flow())
    env.run_until(proc)
    assert wal.flushed_lsn == 200
