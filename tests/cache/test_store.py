"""Integration tests for the KamlStore transactional API (Table II)."""

import pytest

from repro.cache import CacheCapacityError, KamlStore
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd, PutItem
from repro.sim import Environment


def make_store(records_per_lock=1, cache_bytes=1 << 20):
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    ssd = KamlSsd(env, config)
    store = KamlStore(env, ssd, cache_bytes, records_per_lock=records_per_lock)
    return env, ssd, store


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_commit_publishes_updates():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, 1, "committed", 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        value = yield from store.get(nsid, 1)
        flash = yield from ssd.get(nsid, 1)
        return value, flash

    assert run(env, flow()) == ("committed", "committed")


def test_abort_discards_updates():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, 1, "phantom", 64)
        yield from store.transaction_abort(txn)
        store.transaction_free(txn)
        value = yield from store.get(nsid, 1)
        return value

    assert run(env, flow()) is None
    assert store.metrics.total("store.txn.aborted") == 1


def test_read_your_own_writes():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_update(txn, nsid, 1, "mine", 64)
        seen = yield from store.transaction_read(txn, nsid, 1)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        return seen

    assert run(env, flow()) == "mine"


def test_transactional_delete():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, 1, "x", 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        txn2 = store.transaction_begin()
        yield from store.transaction_delete(txn2, nsid, 1)
        inside = yield from store.transaction_read(txn2, nsid, 1)
        yield from store.transaction_commit(txn2)
        store.transaction_free(txn2)
        after = yield from ssd.get(nsid, 1)
        return inside, after

    assert run(env, flow()) == (None, None)


def test_multi_record_commit_is_atomic_on_flash():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        for key in range(5):
            yield from store.transaction_insert(txn, nsid, key, ("rec", key), 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        yield from ssd.drain()
        values = []
        for key in range(5):
            value = yield from ssd.get(nsid, key)
            values.append(value)
        return values

    assert run(env, flow()) == [("rec", k) for k in range(5)]
    assert ssd.metrics.total("kaml.ssd.puts") == 1  # one atomic Put for the whole commit


def test_isolation_no_lost_updates():
    """Concurrent read-modify-write increments must all be serialized."""
    env, ssd, store = make_store()
    writers = 6

    def incrementer(nsid):
        def body(txn):
            current = yield from store.transaction_read(txn, nsid, 0)
            count = current[0] if current else 0
            yield from store.transaction_update(txn, nsid, 0, (count + 1, 64), 64)
            return None
        yield from store.run_transaction(body)

    def flow():
        nsid = yield from store.create_namespace()
        procs = [env.process(incrementer(nsid)) for _ in range(writers)]
        yield env.all_of(procs)
        final = yield from store.get(nsid, 0)
        return final

    final = run(env, flow())
    assert final == (writers, 64)


def test_deadlock_victim_retries_and_completes():
    env, ssd, store = make_store()

    def crosser(nsid, first, second):
        def body(txn):
            a = yield from store.transaction_read(txn, nsid, first)
            yield from store.transaction_update(
                txn, nsid, second, ((a[0] if a else 0) + 1, 64), 64
            )
            return None
        yield from store.run_transaction(body)

    def flow():
        nsid = yield from store.create_namespace()
        p1 = env.process(crosser(nsid, 0, 1))
        p2 = env.process(crosser(nsid, 1, 0))
        yield env.all_of([p1, p2])
        return True

    assert run(env, flow())
    assert store.metrics.total("store.txn.committed") == 2


def test_disjoint_transactions_commit_in_parallel():
    """Commits without data conflicts overlap (Section V-D-1)."""
    env, ssd, store = make_store()
    finish_times = []

    def worker(nsid, key):
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, key, "v", 512)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        finish_times.append(env.now)

    def flow():
        nsid = yield from store.create_namespace()
        start = env.now
        procs = [env.process(worker(nsid, key)) for key in range(8)]
        yield env.all_of(procs)
        return env.now - start

    elapsed = run(env, flow())
    solo = max(finish_times) - min(finish_times)
    # Eight commits finish within a small window of each other rather
    # than serializing end-to-end.
    assert solo < elapsed
    assert store.metrics.total("store.txn.committed") == 8


def test_lock_striping_serializes_neighbors():
    env, ssd, store = make_store(records_per_lock=16)
    grants = []

    def worker(nsid, key):
        txn = store.transaction_begin()
        yield from store.transaction_update(txn, nsid, key, "v", 64)
        grants.append(env.now)
        yield env.timeout(50.0)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)

    def flow():
        nsid = yield from store.create_namespace()
        p1 = env.process(worker(nsid, 0))
        p2 = env.process(worker(nsid, 1))
        yield env.all_of([p1, p2])

    run(env, flow())
    assert max(grants) - min(grants) >= 50.0


def test_cache_hit_serves_transaction_read():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 9, "warm", 64)
        txn = store.transaction_begin()
        value = yield from store.transaction_read(txn, nsid, 9)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        return value

    assert run(env, flow()) == "warm"
    assert store.metrics.total("cache.hits") == 1
    assert store.metrics.total("cache.misses") == 0


def test_update_larger_than_the_cache_commits_and_releases_its_lock():
    """A committed value too big to cache is durable, simply not cached,
    and its X lock is released: the next transaction on the key runs."""
    env, ssd, store = make_store(cache_bytes=4 * 1024)
    outcomes = []

    def writer(nsid, value):
        def body(txn):
            yield from store.transaction_update(txn, nsid, 1, value, 8_000)

        try:
            yield from store.run_transaction(body)
            outcomes.append(value)
        except Exception as exc:  # a client that survives a failed op
            outcomes.append(type(exc).__name__)

    def flow():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 1, "small", 64)  # a stale cached copy
        yield env.all_of([env.process(writer(nsid, v)) for v in ("big", "bigger")])
        assert store.locks.holders_of(store.locks.lock_name(nsid, 1)) == {}
        assert (nsid, 1) not in store.buffer and store.buffer.used_bytes == 0
        cached = yield from store.get(nsid, 1)
        flash = yield from ssd.get(nsid, 1)
        return cached, flash

    assert run(env, flow()) == ("bigger", "bigger")
    assert outcomes == ["big", "bigger"]
    assert store.metrics.total("store.txn.committed") == 2


def test_read_miss_larger_than_the_cache_is_served_uncached():
    env, ssd, store = make_store(cache_bytes=4 * 1024)

    def flow():
        nsid = yield from store.create_namespace()
        yield from ssd.put([PutItem(nsid, 5, "on-flash", 8_000)])
        txn = store.transaction_begin()
        value = yield from store.transaction_read(txn, nsid, 5)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        again = yield from store.get(nsid, 5)
        return value, again

    assert run(env, flow()) == ("on-flash", "on-flash")
    assert store.buffer.used_bytes == 0
    assert store.metrics.total("cache.misses") == 2


def test_dirty_value_larger_than_the_cache_is_refused_unchanged():
    env, ssd, store = make_store(cache_bytes=4 * 1024)

    def flow():
        nsid = yield from store.create_namespace()
        yield from store.put_cached(nsid, 1, "dirty", 64)
        started = env.now
        with pytest.raises(CacheCapacityError):
            yield from store.put_cached(nsid, 1, "huge", 8_000)
        assert env.now == started
        yield from store.flush()
        yield from ssd.drain()
        return (yield from ssd.get(nsid, 1))

    assert run(env, flow()) == "dirty"
    assert store.buffer.used_bytes == 64


def fill_dirty(store, nsid, keys, size=1_000):
    for key in keys:
        yield from store.put_cached(nsid, key, f"v{key}", size)


def test_concurrent_evictions_write_back_a_dirty_victim_once():
    """Two inserts that both need room evict two different victims, and
    used_bytes stays the sum of what is cached."""
    env, ssd, store = make_store(cache_bytes=4096)

    def flow():
        nsid = yield from store.create_namespace()
        yield from fill_dirty(store, nsid, range(4))
        yield env.all_of([env.process(fill_dirty(store, nsid, [key])) for key in (4, 5)])
        return nsid

    nsid = run(env, flow())
    cached = [key for key in range(6) if (nsid, key) in store.buffer]
    assert cached == [2, 3, 4, 5]
    assert store.buffer.used_bytes == 1_000 * len(cached)
    assert store.metrics.total("cache.evictions") == 2
    assert store.metrics.total("cache.writebacks") == 2


def test_write_landing_during_its_eviction_write_back_is_kept():
    env, ssd, store = make_store(cache_bytes=4096)

    def flow():
        nsid = yield from store.create_namespace()
        yield from fill_dirty(store, nsid, range(4))
        # Key 4 evicts key 0 (dirty); the new value of key 0 lands while
        # the write-back Put of "v0" is in flight.
        yield env.all_of([
            env.process(store.put_cached(nsid, 4, "v4", 1_000)),
            env.process(store.put_cached(nsid, 0, "v0-new", 1_000)),
        ])
        assert (nsid, 0) in store.buffer
        cached = yield from store.get(nsid, 0)
        yield from store.flush()
        yield from ssd.drain()
        return cached, (yield from ssd.get(nsid, 0))

    assert run(env, flow()) == ("v0-new", "v0-new")
    assert store.buffer.used_bytes == 4_000


def test_entry_redirtied_during_flush_stays_dirty():
    env, ssd, store = make_store(cache_bytes=4096)

    def flow():
        nsid = yield from store.create_namespace()
        yield from fill_dirty(store, nsid, range(3))
        yield env.all_of([
            env.process(store.flush()),
            env.process(store.put_cached(nsid, 1, "v1-new", 1_000)),
        ])
        # Write-through Puts push every old entry out; key 1 must be
        # written back, not dropped as clean.
        for key in range(10, 14):
            yield from store.put(nsid, key, "w", 1_000)
        assert (nsid, 1) not in store.buffer
        yield from ssd.drain()
        return (yield from ssd.get(nsid, 1))

    assert run(env, flow()) == "v1-new"


def test_miss_fill_does_not_overwrite_a_newer_dirty_value():
    env, ssd, store = make_store(cache_bytes=4096)

    def flow():
        nsid = yield from store.create_namespace()
        yield from ssd.put([PutItem(nsid, 7, "old", 1_000)])

        def writer():
            yield env.timeout(5.0)  # lands while the miss's Get is in flight
            yield from store.put_cached(nsid, 7, "new", 1_000)

        reader = env.process(store.get(nsid, 7))
        yield env.all_of([reader, env.process(writer())])
        cached = yield from store.get(nsid, 7)
        yield from store.flush()
        yield from ssd.drain()
        return reader.value, cached, (yield from ssd.get(nsid, 7))

    assert run(env, flow()) == ("old", "new", "new")


def test_run_transaction_returns_body_value():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()

        def body(txn):
            yield from store.transaction_insert(txn, nsid, 3, "x", 64)
            return "body-result"

        result = yield from store.run_transaction(body)
        return result

    assert run(env, flow()) == "body-result"
