"""Functional tests for the Shore-MT-style engine: ACID and locking
granularity."""

import pytest

from repro.baseline import EngineError, LockGranularity, ShoreMtEngine
from repro.config import ReproConfig
from repro.sim import Environment


def make_engine(granularity=LockGranularity.RECORD, checkpoint=None):
    env = Environment()
    engine = ShoreMtEngine(
        env,
        ReproConfig.small(),
        pool_pages=64,
        granularity=granularity,
        checkpoint_interval_us=checkpoint,
        log_pages=256,
    )
    return env, engine


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_insert_commit_read():
    env, engine = make_engine()
    engine.create_table("t", pages=16)

    def flow():
        txn = engine.begin()
        yield from engine.insert(txn, "t", 1, "hello", 64)
        yield from engine.commit(txn)
        engine.free(txn)
        txn2 = engine.begin()
        value = yield from engine.read(txn2, "t", 1)
        yield from engine.commit(txn2)
        engine.free(txn2)
        return value

    assert run(env, flow()) == "hello"


def test_update_replaces_the_value():
    env, engine = make_engine()
    engine.create_table("t", pages=16)

    def flow():
        txn = engine.begin()
        yield from engine.insert(txn, "t", 1, "v1", 64)
        yield from engine.commit(txn)
        engine.free(txn)

        txn = engine.begin()
        yield from engine.update(txn, "t", 1, "v2", 64)
        yield from engine.commit(txn)
        engine.free(txn)

        txn = engine.begin()
        value = yield from engine.read(txn, "t", 1)
        yield from engine.commit(txn)
        engine.free(txn)
        return value

    assert run(env, flow()) == "v2"


def test_abort_undoes_everything():
    env, engine = make_engine()
    engine.create_table("t", pages=16)

    def flow():
        setup = engine.begin()
        yield from engine.insert(setup, "t", 1, "original", 64)
        yield from engine.commit(setup)
        engine.free(setup)

        txn = engine.begin()
        yield from engine.update(txn, "t", 1, "changed", 64)
        yield from engine.insert(txn, "t", 2, "phantom", 64)
        yield from engine.abort(txn)
        engine.free(txn)

        check = engine.begin()
        v1 = yield from engine.read(check, "t", 1)
        v2 = yield from engine.read(check, "t", 2)
        yield from engine.commit(check)
        engine.free(check)
        return v1, v2

    assert run(env, flow()) == ("original", None)


def test_no_lost_updates_under_concurrency():
    env, engine = make_engine()
    engine.create_table("t", pages=16)
    workers = 5

    def setup():
        txn = engine.begin()
        yield from engine.insert(txn, "t", 0, 0, 64)
        yield from engine.commit(txn)
        engine.free(txn)

    def incrementer():
        def body(txn):
            value = yield from engine.read(txn, "t", 0)
            yield from engine.update(txn, "t", 0, value + 1, 64)
            return None
        yield from engine.run_transaction(body)

    def flow():
        yield from setup()
        procs = [env.process(incrementer()) for _ in range(workers)]
        yield env.all_of(procs)
        check = engine.begin()
        final = yield from engine.read(check, "t", 0)
        yield from engine.commit(check)
        engine.free(check)
        return final

    assert run(env, flow()) == workers


def test_page_locks_serialize_same_page_records():
    env, engine = make_engine(granularity=LockGranularity.PAGE)
    engine.create_table("t", pages=16)
    grants = []

    def setup():
        txn = engine.begin()
        for key in range(4):  # all land on page 0
            yield from engine.insert(txn, "t", key, "v", 64)
        yield from engine.commit(txn)
        engine.free(txn)

    def writer(key):
        txn = engine.begin()
        yield from engine.update(txn, "t", key, "w", 64)
        grants.append(env.now)
        yield env.timeout(100.0)
        yield from engine.commit(txn)
        engine.free(txn)

    def flow():
        yield from setup()
        p1 = env.process(writer(0))
        p2 = env.process(writer(1))
        yield env.all_of([p1, p2])

    run(env, flow())
    assert max(grants) - min(grants) >= 100.0


def test_record_locks_allow_same_page_concurrency():
    env, engine = make_engine(granularity=LockGranularity.RECORD)
    engine.create_table("t", pages=16)
    grants = []

    def setup():
        txn = engine.begin()
        for key in range(4):
            yield from engine.insert(txn, "t", key, "v", 64)
        yield from engine.commit(txn)
        engine.free(txn)

    def writer(key):
        txn = engine.begin()
        yield from engine.update(txn, "t", key, "w", 64)
        grants.append(env.now)
        yield env.timeout(100.0)
        yield from engine.commit(txn)
        engine.free(txn)

    def flow():
        yield from setup()
        p1 = env.process(writer(0))
        p2 = env.process(writer(1))
        yield env.all_of([p1, p2])

    run(env, flow())
    assert max(grants) - min(grants) < 100.0


def test_unknown_table_raises():
    env, engine = make_engine()

    def flow():
        txn = engine.begin()
        yield from engine.read(txn, "missing", 1)

    with pytest.raises(EngineError):
        run(env, flow())


def test_duplicate_table_rejected():
    env, engine = make_engine()
    engine.create_table("t", pages=16)
    with pytest.raises(EngineError):
        engine.create_table("t", pages=16)


def test_deadlock_retry_in_engine():
    env, engine = make_engine()
    engine.create_table("t", pages=16)

    def setup():
        txn = engine.begin()
        yield from engine.insert(txn, "t", 0, 0, 64)
        yield from engine.insert(txn, "t", 1, 0, 64)
        yield from engine.commit(txn)
        engine.free(txn)

    def crosser(first, second):
        def body(txn):
            a = yield from engine.read(txn, "t", first)
            yield from engine.update(txn, "t", second, a + 1, 64)
            return None
        yield from engine.run_transaction(body)

    def flow():
        yield from setup()
        p1 = env.process(crosser(0, 1))
        p2 = env.process(crosser(1, 0))
        yield env.all_of([p1, p2])
        return engine.committed

    assert run(env, flow()) == 3  # setup + both crossers
