"""transaction_read_for_update: upgrade-deadlock avoidance in the cache."""

from repro.cache import KamlStore
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd
from repro.sim import Environment


def make_store():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    ssd = KamlSsd(env, config)
    return env, ssd, KamlStore(env, ssd, cache_bytes=1 << 20)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def test_rfu_returns_current_value():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 1, 41, 64)
        txn = store.transaction_begin()
        value = yield from store.transaction_read_for_update(txn, nsid, 1)
        yield from store.transaction_update(txn, nsid, 1, value + 1, 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        final = yield from store.get(nsid, 1)
        return final

    assert run(env, flow()) == 42


def test_rfu_blocks_concurrent_readers_until_commit():
    env, ssd, store = make_store()
    times = {}

    def writer(nsid):
        txn = store.transaction_begin()
        yield from store.transaction_read_for_update(txn, nsid, 1)
        yield env.timeout(100.0)
        yield from store.transaction_update(txn, nsid, 1, "new", 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        times["writer_done"] = env.now

    def reader(nsid):
        yield env.timeout(5.0)
        txn = store.transaction_begin()
        value = yield from store.transaction_read(txn, nsid, 1)
        times["reader_got"] = (env.now, value)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)

    def flow():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 1, "old", 64)
        p1 = env.process(writer(nsid))
        p2 = env.process(reader(nsid))
        yield env.all_of([p1, p2])

    run(env, flow())
    got_at, value = times["reader_got"]
    assert got_at >= times["writer_done"] - 1.0
    assert value == "new"  # strict 2PL: the reader saw the committed value


def test_rfu_sees_own_staged_write():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_update(txn, nsid, 7, "mine", 64)
        value = yield from store.transaction_read_for_update(txn, nsid, 7)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        return value

    assert run(env, flow()) == "mine"


def test_concurrent_rfu_increments_never_lose_updates():
    """The whole point: read-modify-write via RFU serializes cleanly with
    no upgrade deadlocks."""
    env, ssd, store = make_store()
    workers = 10

    def incrementer(nsid):
        def body(txn):
            value = yield from store.transaction_read_for_update(txn, nsid, 0)
            yield from store.transaction_update(txn, nsid, 0, (value or 0) + 1, 64)
            return None
        yield from store.run_transaction(body)

    def flow():
        nsid = yield from store.create_namespace()
        procs = [env.process(incrementer(nsid)) for _ in range(workers)]
        yield env.all_of(procs)
        final = yield from store.get(nsid, 0)
        return final

    assert run(env, flow()) == workers
    assert store.metrics.total("cache.lock.deadlocks") == 0  # RFU avoids S->X upgrade cycles
