"""Transaction state machine (Figure 2) and buffer manager behaviour."""

import pytest

from repro.cache.buffer import BufferManager, CacheCapacityError
from repro.cache.transaction import DELETED, Transaction, TransactionError, TxnState
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd, PutItem
from repro.sim import Environment


# -- Figure 2 state machine ----------------------------------------------------

def test_lifecycle_commit_path():
    txn = Transaction(1)
    assert txn.state is TxnState.IDLE
    txn.begin()
    assert txn.state is TxnState.ACTIVE
    txn.mark_committed()
    assert txn.state is TxnState.COMMITTED
    txn.free()
    assert txn.state is TxnState.IDLE


def test_lifecycle_abort_path():
    txn = Transaction(1)
    txn.begin()
    txn.mark_aborted()
    assert txn.state is TxnState.ABORTED
    txn.free()
    assert txn.state is TxnState.IDLE


def test_illegal_transitions_rejected():
    txn = Transaction(1)
    with pytest.raises(TransactionError):
        txn.mark_committed()      # IDLE -> COMMITTED
    with pytest.raises(TransactionError):
        txn.free()                # IDLE -> free
    txn.begin()
    with pytest.raises(TransactionError):
        txn.begin()               # ACTIVE -> begin
    with pytest.raises(TransactionError):
        txn.free()                # ACTIVE -> free
    txn.mark_committed()
    with pytest.raises(TransactionError):
        txn.mark_aborted()        # COMMITTED -> abort


def test_free_clears_workspace():
    txn = Transaction(1)
    txn.begin()
    txn.stage_write(1, 5, "v", 10)
    txn.reads.add((1, 6))
    txn.mark_committed()
    txn.free()
    assert not txn.writes
    assert not txn.reads


def test_staged_values_and_deletes():
    txn = Transaction(1)
    txn.begin()
    assert txn.staged(1, 5) is None
    txn.stage_write(1, 5, "v", 10)
    assert txn.staged(1, 5) == ("v", 10)
    txn.stage_delete(1, 5)
    assert txn.staged(1, 5) is DELETED


# -- buffer manager --------------------------------------------------------------

def make_env_ssd():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_buffer_miss_then_hit():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, 1 << 20, ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 7, "on-flash", 128)])
        first = yield from buffer.read(nsid, 7)
        second = yield from buffer.read(nsid, 7)
        return first, second

    first, second = run(env, flow())
    assert first == ("on-flash", 128)
    assert second == ("on-flash", 128)
    assert buffer.metrics.total("cache.misses") == 1
    assert buffer.metrics.total("cache.hits") == 1


def test_buffer_read_absent_key():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, 1 << 20, ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        result = yield from buffer.read(nsid, 404)
        return result

    assert run(env, flow()) is None


def test_buffer_lru_eviction():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, capacity_bytes=300, costs=ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        for key in range(3):
            yield from ssd.put([PutItem(nsid, key, f"v{key}", 128)])
        yield from buffer.read(nsid, 0)
        yield from buffer.read(nsid, 1)
        # Touch 0 so 1 becomes LRU, then bring in 2.
        yield from buffer.read(nsid, 0)
        yield from buffer.read(nsid, 2)
        return None

    run(env, flow())
    assert buffer.metrics.total("cache.evictions") == 1
    assert (1, 1) not in buffer
    assert (1, 0) in buffer and (1, 2) in buffer


def test_buffer_dirty_eviction_writes_back():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, capacity_bytes=300, costs=ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from buffer.install_dirty(nsid, 1, "dirty-v", 128)
        yield from buffer.install_clean(nsid, 2, "c2", 128)
        yield from buffer.install_clean(nsid, 3, "c3", 128)  # evicts key 1
        yield from ssd.drain()
        value = yield from ssd.get(nsid, 1)
        return value

    assert run(env, flow()) == "dirty-v"
    assert buffer.metrics.total("cache.writebacks") == 1


def test_buffer_flush_writes_all_dirty():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, 1 << 20, ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        for key in range(4):
            yield from buffer.install_dirty(nsid, key, f"d{key}", 64)
        yield from buffer.flush()
        yield from ssd.drain()
        values = []
        for key in range(4):
            value = yield from ssd.get(nsid, key)
            values.append(value)
        return values

    assert run(env, flow()) == [f"d{k}" for k in range(4)]
    assert buffer.metrics.total("cache.writebacks") == 4


def test_buffer_update_replaces_size_accounting():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, 1 << 20, ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from buffer.install_clean(nsid, 1, "small", 100)
        yield from buffer.install_clean(nsid, 1, "bigger", 400)
        return buffer.used_bytes

    assert run(env, flow()) == 400


def test_buffer_oversized_value_rejected():
    """Only a dirty oversized value is refused (the cache would hold the
    sole copy); a clean one is left uncached and evicts its stale copy."""
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, capacity_bytes=100, costs=ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from buffer.install_clean(nsid, 1, "x", 50)
        yield from buffer.install_clean(nsid, 1, "x", 500)
        assert (nsid, 1) not in buffer and buffer.used_bytes == 0
        yield from buffer.install_dirty(nsid, 2, "y", 80)
        yield from buffer.install_dirty(nsid, 2, "y", 500)

    with pytest.raises(CacheCapacityError):
        run(env, flow())
    assert buffer.used_bytes == 80


def test_buffer_capacity_validation():
    env, ssd = make_env_ssd()
    with pytest.raises(ValueError):
        BufferManager(env, ssd, 0, ssd.config.host)


def test_buffer_hit_ratio():
    env, ssd = make_env_ssd()
    buffer = BufferManager(env, ssd, 1 << 20, ssd.config.host)

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "v", 64)])
        yield from buffer.read(nsid, 1)
        yield from buffer.read(nsid, 1)
        yield from buffer.read(nsid, 1)
        yield from buffer.read(nsid, 1)

    run(env, flow())
    hits = buffer.metrics.total("cache.hits")
    assert hits / (hits + buffer.metrics.total("cache.misses")) == pytest.approx(0.75)
