"""Mixed-traffic stress with end-state audit: many concurrent writers,
readers, deleters, and background GC on one device; afterwards the
device must agree with a reference model and its accounting must balance."""

import random

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


def test_mixed_stress_audit():
    env = Environment()
    geometry = FlashGeometry(
        channels=2, chips_per_channel=2, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=4, flush_timeout_us=300.0)
    )
    ssd = KamlSsd(env, config)
    rng = random.Random(1234)
    keys = 24
    # Reference model updated at each ack, in ack order.  Single-threaded
    # per key is guaranteed by partitioning keys across writers.
    model = {}

    def setup():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        return nsid

    proc = env.process(setup())
    env.run_until(proc)
    nsid = proc.value

    def writer(partition):
        my_keys = [k for k in range(keys) if k % 4 == partition]
        # Enough churn to wrap the 192-page device: records share pages,
        # so it takes ~5 ops to program one.
        for i in range(400):
            key = my_keys[i % len(my_keys)]
            if i % 11 == 10:
                removed = yield from ssd.delete(nsid, key)
                model.pop(key, None)
            else:
                size = rng.choice([200, 900, 2048])
                value = ("w", partition, i)
                yield from ssd.put([PutItem(nsid, key, value, size)])
                model[key] = value
            yield env.timeout(rng.uniform(200.0, 900.0))

    def reader():
        for _ in range(150):
            key = rng.randrange(keys)
            yield from ssd.get(nsid, key)  # value checked at final audit
            yield env.timeout(rng.uniform(100.0, 400.0))

    procs = [env.process(writer(p)) for p in range(4)]
    procs.append(env.process(reader()))
    done = env.all_of(procs)
    env.run_until(done)

    def audit():
        yield from ssd.drain()
        yield env.timeout(100000.0)
        mismatches = []
        for key in range(keys):
            value = yield from ssd.get(nsid, key)
            if value != model.get(key):
                mismatches.append((key, value, model.get(key)))
        return mismatches

    proc = env.process(audit())
    env.run_until(proc)
    assert proc.value == []

    # Accounting audit: valid bytes equal the chunk-rounded footprint of
    # exactly the live keys plus the live delete tombstones (a tombstone
    # stays valid while it is the newest version of its key, so a power
    # loss cannot resurrect the deleted value), and the staging pipeline
    # is empty.
    index = ssd.namespaces[nsid].index
    assert {key for key, _location in index.items()} == set(model)
    # The index holds exactly the live keys, so every other reference is
    # a live tombstone.
    expected_valid = sum(
        location.nchunks * geometry.chunk_size
        for _nsid, _key, location in ssd.mapping.references()
    )
    assert ssd.mapping.valid_bytes_total() == expected_valid
    assert not ssd.staged_records
    # GC actually ran under this churn.
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 0


def test_page_granularity_inserts_fragment_but_work():
    """Page-locked inserts place each txn on private pages: correct, at a
    space cost (the Figure 9 trade-off made visible)."""
    from repro.baseline import LockGranularity, ShoreMtEngine

    env = Environment()
    engine = ShoreMtEngine(
        env, ReproConfig.small(), pool_pages=64,
        granularity=LockGranularity.PAGE, checkpoint_interval_us=None,
        log_pages=64,
    )
    engine.create_table("t", pages=32)

    def one_txn(base):
        txn = engine.begin()
        for offset in range(3):
            yield from engine.insert(txn, "t", base + offset, ("v", base + offset), 64)
        yield from engine.commit(txn)
        engine.free(txn)

    def flow():
        procs = [env.process(one_txn(base * 10)) for base in range(4)]
        yield env.all_of(procs)
        txn = engine.begin()
        values = []
        for base in range(4):
            for offset in range(3):
                value = yield from engine.read(txn, "t", base * 10 + offset)
                values.append(value)
        yield from engine.commit(txn)
        engine.free(txn)
        return values

    proc = env.process(flow())
    env.run_until(proc)
    expected = [("v", base * 10 + offset) for base in range(4) for offset in range(3)]
    assert proc.value == expected
    # Fragmentation: concurrent transactions never share an insert page.
    table = engine.table("t")
    pages_used = {table.rid_of(b * 10 + o).page_index for b in range(4) for o in range(3)}
    assert len(pages_used) >= 2
