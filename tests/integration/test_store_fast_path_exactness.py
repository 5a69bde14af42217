"""Exactness oracle for the caching layer's inline lock grants and hits.

A mixed multi-key transactional workload — hot keys shared by six
clients, S->X upgrades, cross-key read/update pairs that deadlock,
explicit aborts, deletes, and non-transactional gets/puts through a cache
small enough to miss and evict — runs twice: normally, and with the
kernel's "would run next" test forced false (``tests/sim/zero_event_seam.py``)
so every ``try_acquire`` / ``try_hit`` / ``try_advance`` refuses and the store
falls back to the generators.  Every op must be issued and completed at the same simulated
instants, and the registry export and (armed) span stream must match.
"""

import json
import random

import pytest
from tests.sim.zero_event_seam import counted_grants, forced_refusal

from repro.cache import KamlStore
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd
from repro.obs import to_builtin
from repro.sim import Environment

KEYS = 8
HOT_KEYS = 3
CLIENTS = 6
TXNS_PER_CLIENT = 60


def store_scenario(armed):
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    ssd = KamlSsd(env, config)
    ssd.tracer.enabled = armed
    store = KamlStore(env, ssd, cache_bytes=3 * 1024)
    rng = random.Random(41)
    ops = []

    def setup():
        nsid = yield from store.create_namespace()
        for key in range(KEYS):
            yield from store.put(nsid, key, ("seed", key), 400)
        return nsid

    proc = env.process(setup())
    env.run_until(proc)
    nsid = proc.value

    def read(key):
        def body(txn):
            return (yield from store.transaction_read(txn, nsid, key))
        return store.run_transaction(body)

    def upgrade(key, tag):
        def body(txn):  # S then X on one key: the upgrade path
            seen = yield from store.transaction_read(txn, nsid, key)
            yield from store.transaction_update(txn, nsid, key, (tag, seen), 500)
        return store.run_transaction(body)

    def cross(first, second, tag):
        def body(txn):  # S on one key, X on another: deadlock-prone pairs
            seen = yield from store.transaction_read(txn, nsid, first)
            yield from store.transaction_update(txn, nsid, second, (tag, seen), 300)
        return store.run_transaction(body)

    def for_update(key, tag):
        def body(txn):
            seen = yield from store.transaction_read_for_update(txn, nsid, key)
            yield from store.transaction_update(txn, nsid, key, (tag, seen), 700)
        return store.run_transaction(body)

    def aborted(key, tag):
        txn = store.transaction_begin()
        yield from store.transaction_update(txn, nsid, key, (tag, "never"), 200)
        yield from store.transaction_read(txn, nsid, (key + 1) % KEYS)
        yield from store.transaction_abort(txn)
        store.transaction_free(txn)

    def delete(key):
        def body(txn):
            yield from store.transaction_delete(txn, nsid, key)
        return store.run_transaction(body)

    def client(cid):
        for i in range(TXNS_PER_CLIENT):
            kind = rng.choice(
                ["read", "read", "read", "get", "upgrade", "cross", "rfu", "abort", "put", "delete"]
            )
            # Upgrades and cross pairs meet on a few hot keys to deadlock.
            hot = HOT_KEYS if kind in ("upgrade", "cross") else KEYS
            key, other = rng.randrange(hot), rng.randrange(hot)
            tag = (cid, i)
            gen = {
                "read": lambda: read(key),
                "get": lambda: store.get(nsid, key),
                "upgrade": lambda: upgrade(key, tag),
                "cross": lambda: cross(key, other, tag),
                "rfu": lambda: for_update(key, tag),
                "abort": lambda: aborted(key, tag),
                "put": lambda: store.put(nsid, key, tag, 600),
                "delete": lambda: delete(key),
            }[kind]()
            issued = env.now
            result = yield from gen
            ops.append((cid, i, kind, key, issued, env.now, repr(result)))
            think_us = rng.choice([0.0, 0.0, 2.5, 40.0])
            env.try_advance(think_us) or (yield env.timeout(think_us))

    env.run_until(env.all_of([env.process(client(c)) for c in range(CLIENTS)]))
    env.run_until(env.process(ssd.drain()))
    metrics = store.metrics
    # The schedule under test has every path the inline forms skip.
    assert metrics.total("cache.lock.conflicts") > 20
    assert metrics.total("cache.lock.deadlocks") > 5
    assert metrics.total("store.txn.aborted") > 0
    assert metrics.total("cache.hits") > 0 and metrics.total("cache.misses") > 0
    assert metrics.total("cache.evictions") > 0
    export = to_builtin(metrics)
    # The heap's own high-water mark is the one number an elided event
    # moves by design.
    del export["gauges"]["sim.queue_depth"]
    spans = [event.export() for event in ssd.tracer.recorder.events()]
    return env, ops, json.dumps(export, sort_keys=True), spans


def run_twice(armed):
    with counted_grants() as grants:
        env, ops, export, spans = store_scenario(armed)
    with forced_refusal():
        ref_env, ref_ops, ref_export, ref_spans = store_scenario(armed)
    assert ops == ref_ops  # every (client, op, key, issue time, completion, result)
    assert env.now == ref_env.now
    assert export == ref_export
    assert spans == ref_spans
    assert grants[0] > 0
    assert ref_env.events_processed - env.events_processed == grants[0]
    return env, ops, export, spans


@pytest.mark.parametrize("armed", [False, True], ids=["disarmed", "armed"])
def test_inline_grants_and_hits_are_bit_identical(armed):
    env, _ops, _export, spans = run_twice(armed)
    if armed:
        names = {span["name"] for span in spans}
        assert {"store.txn.read", "lock.acquire", "cache.read", "store.txn.commit"} <= names
    else:
        assert spans == []


def test_arming_the_tracer_moves_nothing_simulated():
    env, ops, export, _spans = store_scenario(armed=True)
    quiet_env, quiet_ops, quiet_export, _ = store_scenario(armed=False)
    assert ops == quiet_ops
    assert export == quiet_export
    assert env.events_processed == quiet_env.events_processed
