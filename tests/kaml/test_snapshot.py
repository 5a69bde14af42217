"""Namespace snapshots: point-in-time reads and GC interaction."""

from dataclasses import replace

import pytest

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import (
    KamlError,
    KamlSsd,
    NamespaceAttributes,
    PutItem,
    SnapshotError,
)
from repro.sim import Environment


def make_ssd(tiny=False):
    env = Environment()
    if tiny:
        geometry = FlashGeometry(
            channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
        )
        config = ReproConfig().with_(
            geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
        )
    else:
        config = ReproConfig.small()
        config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def test_snapshot_preserves_old_values():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, k, ("old", k), 128) for k in range(4)])
        snap = yield from ssd.snapshot_namespace(nsid)
        yield from ssd.put([PutItem(nsid, k, ("new", k), 128) for k in range(4)])
        yield from ssd.drain()
        current = yield from ssd.get(nsid, 2)
        frozen = yield from ssd.get_from_snapshot(snap, 2)
        return current, frozen

    assert run(env, flow()) == (("new", 2), ("old", 2))


def test_snapshot_sees_acked_writes_before_flash():
    """Snapshot creation drains staging, so acknowledged Puts are included."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "committed-just-now", 128)])
        snap = yield from ssd.snapshot_namespace(nsid)
        value = yield from ssd.get_from_snapshot(snap, 1)
        return value

    assert run(env, flow()) == "committed-just-now"


def test_snapshot_excludes_later_inserts_and_deletes():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "v1", 64)])
        snap = yield from ssd.snapshot_namespace(nsid)
        yield from ssd.put([PutItem(nsid, 2, "v2", 64)])
        yield from ssd.delete(nsid, 1)
        in_snap_1 = yield from ssd.get_from_snapshot(snap, 1)
        in_snap_2 = yield from ssd.get_from_snapshot(snap, 2)
        current_1 = yield from ssd.get(nsid, 1)
        return in_snap_1, in_snap_2, current_1

    assert run(env, flow()) == ("v1", None, None)


def test_snapshot_survives_gc_churn():
    """Old record versions referenced only by the snapshot must survive
    heavy overwrite traffic and the GC it triggers."""
    env, ssd = make_ssd(tiny=True)

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        yield from ssd.put([PutItem(nsid, k, ("frozen", k), 2048) for k in range(4)])
        snap = yield from ssd.snapshot_namespace(nsid)
        for i in range(200):
            yield from ssd.put([PutItem(nsid, i % 4, ("churn", i), 2048)])
            yield env.timeout(1500.0)
        yield from ssd.drain()
        frozen = []
        for k in range(4):
            value = yield from ssd.get_from_snapshot(snap, k)
            frozen.append(value)
        return frozen

    frozen = run(env, flow())
    assert frozen == [("frozen", k) for k in range(4)]
    assert ssd.metrics.total("kaml.log.gc.erased_blocks", log=0) > 0


def test_delete_snapshot_frees_space():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "x", 128)])
        snap = yield from ssd.snapshot_namespace(nsid)
        dram_with = ssd.dram.used_bytes
        valid_with = ssd.mapping.valid_bytes_total()
        yield from ssd.delete_snapshot(snap)
        return dram_with, valid_with, ssd.dram.used_bytes, ssd.mapping.valid_bytes_total()

    dram_with, valid_with, dram_after, valid_after = run(env, flow())
    assert dram_after < dram_with
    assert valid_after < valid_with
    assert not ssd.snapshots


def test_snapshot_blocks_namespace_delete():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "x", 64)])
        snap = yield from ssd.snapshot_namespace(nsid)
        try:
            yield from ssd.delete_namespace(nsid)
            return "deleted"
        except KamlError:
            pass
        yield from ssd.delete_snapshot(snap)
        yield from ssd.delete_namespace(nsid)
        return "ok"

    assert run(env, flow()) == "ok"


def test_unknown_snapshot_raises():
    env, ssd = make_ssd()

    def flow():
        yield from ssd.get_from_snapshot(404, 1)

    with pytest.raises(SnapshotError):
        run(env, flow())


def test_snapshot_of_sorted_namespace():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(
            NamespaceAttributes(index_structure="sorted")
        )
        yield from ssd.put([PutItem(nsid, k, k * 10, 64) for k in (1, 2, 3)])
        snap = yield from ssd.snapshot_namespace(nsid)
        value = yield from ssd.get_from_snapshot(snap, 2)
        return value

    assert run(env, flow()) == 20


def test_snapshot_get_pays_for_each_index_entry_it_probes():
    """A snapshot Get's latency includes ``scanned x hash_probe_us``: the
    same read on a device whose probes cost 20 us more each takes
    ``scanned x 20 us`` longer."""

    def snapshot_get_us(probe_us):
        env = Environment()
        config = ReproConfig.small()
        ssd = KamlSsd(env, config.with_(
            firmware=replace(config.firmware, hash_probe_us=probe_us),
            kaml=KamlParams(num_logs=config.geometry.total_chips),
        ))

        def flow():
            nsid = yield from ssd.create_namespace()
            yield from ssd.put([PutItem(nsid, k, ("v", k), 128) for k in range(16)])
            snap = yield from ssd.snapshot_namespace(nsid)
            yield from ssd.drain()
            scanned = ssd.snapshots[snap].index.lookup(9)[1]
            started = env.now
            value = yield from ssd.get_from_snapshot(snap, 9)
            return value, scanned, env.now - started

        return run(env, flow())

    value, scanned, cheap_us = snapshot_get_us(6.0)
    assert value == ("v", 9) and scanned >= 1
    assert snapshot_get_us(26.0) == (value, scanned, pytest.approx(cheap_us + scanned * 20.0))
