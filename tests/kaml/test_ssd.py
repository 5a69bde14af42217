"""Functional tests for the KAML SSD: Table I commands, atomicity, GC."""

import pytest

from repro import sanitize
from repro.config import KamlParams, ReproConfig, SsdResources
from repro.kaml import (
    DedicatedLogsPolicy,
    ExplicitLogsPolicy,
    KamlError,
    KamlSsd,
    NamespaceAttributes,
    NamespaceError,
    PutItem,
    RecordTooLargeError,
)
from repro.kaml.record import Record
from repro.sim import Environment
from repro.ssd import NvramExhausted


def make_ssd(num_logs=None, geometry=None, **kaml_overrides):
    env = Environment()
    config = ReproConfig.small()
    if geometry is not None:
        config = config.with_(geometry=geometry)
    params = dict(num_logs=config.geometry.total_chips)
    if num_logs is not None:
        params["num_logs"] = num_logs
    params.update(kaml_overrides)
    config = config.with_(kaml=KamlParams(**params))
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def put_one(ssd, nsid, key, value, size=512):
    yield from ssd.put([PutItem(nsid, key, value, size)])


# -- namespaces ---------------------------------------------------------------

def test_create_namespace_returns_ids():
    env, ssd = make_ssd()

    def flow():
        a = yield from ssd.create_namespace()
        b = yield from ssd.create_namespace()
        return a, b

    a, b = run(env, flow())
    assert a != b
    assert set(ssd.namespaces) == {a, b}


def test_create_namespace_allocates_dram():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=1000))
        return nsid

    nsid = run(env, flow())
    assert ssd.dram.used_bytes == ssd.namespaces[nsid].index.memory_bytes
    assert ssd.dram.used_bytes > 0


def test_delete_namespace_frees_dram():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.delete_namespace(nsid)

    run(env, flow())
    assert ssd.dram.used_bytes == 0
    assert not ssd.namespaces


def test_unknown_namespace_raises():
    env, ssd = make_ssd()

    def flow():
        yield from ssd.get(42, 1)

    with pytest.raises(NamespaceError):
        run(env, flow())


def test_default_assignment_all_logs():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        return nsid

    nsid = run(env, flow())
    assert ssd.namespaces[nsid].log_ids == [log.log_id for log in ssd.logs]


def test_dedicated_logs_policy():
    env, ssd = make_ssd()

    def flow():
        attrs = NamespaceAttributes(log_policy=DedicatedLogsPolicy(2))
        nsid = yield from ssd.create_namespace(attrs)
        return nsid

    nsid = run(env, flow())
    assert len(ssd.namespaces[nsid].log_ids) == 2


def test_explicit_logs_policy_and_retarget():
    env, ssd = make_ssd()

    def flow():
        attrs = NamespaceAttributes(log_policy=ExplicitLogsPolicy([0, 1]))
        nsid = yield from ssd.create_namespace(attrs)
        return nsid

    nsid = run(env, flow())
    assert ssd.namespaces[nsid].log_ids == [0, 1]
    ssd.retarget_namespace(nsid, ExplicitLogsPolicy([2]))
    assert ssd.namespaces[nsid].log_ids == [2]


def test_logs_land_on_distinct_channels_first():
    """N <= channels logs must occupy N distinct channels (Figure 8)."""
    env, ssd = make_ssd(num_logs=2)
    channels = {log.channel for log in ssd.logs}
    assert len(channels) == 2


def test_too_many_logs_rejected():
    with pytest.raises(KamlError):
        make_ssd(num_logs=1000)


# -- Get / Put ----------------------------------------------------------------

def test_put_get_roundtrip():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from put_one(ssd, nsid, 7, "hello")
        value = yield from ssd.get(nsid, 7)
        return value

    assert run(env, flow()) == "hello"


def test_get_missing_key_returns_none():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        value = yield from ssd.get(nsid, 999)
        return value

    assert run(env, flow()) is None


def test_update_returns_latest_value():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        for version in range(5):
            yield from put_one(ssd, nsid, 1, f"v{version}")
        value = yield from ssd.get(nsid, 1)
        return value

    assert run(env, flow()) == "v4"


def test_batched_put_applies_all_records():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        items = [PutItem(nsid, k, f"val-{k}", 256) for k in range(10)]
        yield from ssd.put(items)
        values = []
        for k in range(10):
            value = yield from ssd.get(nsid, k)
            values.append(value)
        return values

    assert run(env, flow()) == [f"val-{k}" for k in range(10)]


def test_put_across_namespaces_atomic():
    env, ssd = make_ssd()

    def flow():
        ns1 = yield from ssd.create_namespace()
        ns2 = yield from ssd.create_namespace()
        yield from ssd.put([
            PutItem(ns1, 1, "one", 128),
            PutItem(ns2, 1, "uno", 128),
        ])
        a = yield from ssd.get(ns1, 1)
        b = yield from ssd.get(ns2, 1)
        return a, b

    assert run(env, flow()) == ("one", "uno")


def test_values_isolated_between_namespaces():
    env, ssd = make_ssd()

    def flow():
        ns1 = yield from ssd.create_namespace()
        ns2 = yield from ssd.create_namespace()
        yield from put_one(ssd, ns1, 5, "ns1-value")
        missing = yield from ssd.get(ns2, 5)
        return missing

    assert run(env, flow()) is None


def test_empty_put_rejected():
    env, ssd = make_ssd()

    def flow():
        yield from ssd.put([])

    with pytest.raises(KamlError):
        run(env, flow())


def test_oversized_record_rejected():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from put_one(ssd, nsid, 1, "big", size=ssd.geometry.page_size * 2)

    with pytest.raises(RecordTooLargeError):
        run(env, flow())


def test_nonpositive_size_rejected():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from put_one(ssd, nsid, 1, "zero", size=0)

    with pytest.raises(KamlError):
        run(env, flow())


def test_batch_larger_than_nvram_is_refused_before_any_side_effect():
    """A batch that can never fit in NVRAM is refused up front: no counter
    moves, no PCIe time is spent and no span is recorded."""
    env = Environment()
    config = ReproConfig.small().with_(resources=SsdResources(nvram_bytes=64 * 1024))
    ssd = KamlSsd(env, config)
    nsid = run(env, ssd.create_namespace())
    items = [PutItem(nsid, key, f"v{key}", 4_000) for key in range(20)]
    started = env.now
    recorded = ssd.tracer.recorder.recorded

    def flow():
        with pytest.raises(NvramExhausted):
            yield from ssd.put(items)
        with pytest.raises(NvramExhausted):
            yield from ssd.prepare_batch(items, txn_id=1)

    run(env, flow())
    assert env.now == started
    for name in ("kaml.ssd.puts", "kaml.ssd.put_records", "kaml.put.bytes",
                 "kaml.ssd.prepares"):
        assert ssd.metrics.total(name) == 0, name
    assert ssd.tracer.recorder.recorded == recorded
    assert ssd.nvram.used_bytes == 0


def test_variable_sized_values_coexist():
    env, ssd = make_ssd()
    sizes = [100, 512, 1024, 4096, 50]

    def flow():
        nsid = yield from ssd.create_namespace()
        for key, size in enumerate(sizes):
            yield from put_one(ssd, nsid, key, ("val", key, size), size=size)
        out = []
        for key in range(len(sizes)):
            value = yield from ssd.get(nsid, key)
            out.append(value)
        return out

    assert run(env, flow()) == [("val", k, s) for k, s in enumerate(sizes)]


def test_delete_extension():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from put_one(ssd, nsid, 1, "x")
        removed = yield from ssd.delete(nsid, 1)
        gone = yield from ssd.get(nsid, 1)
        removed_again = yield from ssd.delete(nsid, 1)
        return removed, gone, removed_again

    assert run(env, flow()) == (True, None, False)


def test_put_latency_below_flash_program_time():
    """Put acks at phase 1 (NVRAM commit), not after the flash program."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        start = env.now
        yield from put_one(ssd, nsid, 1, "quick")
        return env.now - start

    latency = run(env, flow())
    assert latency < ssd.config.flash.program_us


def test_concurrent_puts_different_keys():
    env, ssd = make_ssd()
    results = {}

    def writer(nsid, key):
        yield from put_one(ssd, nsid, key, f"w{key}")

    def flow():
        nsid = yield from ssd.create_namespace()
        procs = [env.process(writer(nsid, k)) for k in range(20)]
        yield env.all_of(procs)
        yield from ssd.drain()
        for k in range(20):
            results[k] = yield from ssd.get(nsid, k)

    run(env, flow())
    assert results == {k: f"w{k}" for k in range(20)}


def test_concurrent_puts_same_key_serialize():
    """Entry locks order same-key Puts; a Get sees some complete value."""
    env, ssd = make_ssd()

    def writer(nsid, version):
        yield from put_one(ssd, nsid, 1, ("version", version))

    def flow():
        nsid = yield from ssd.create_namespace()
        procs = [env.process(writer(nsid, v)) for v in range(8)]
        yield env.all_of(procs)
        yield from ssd.drain()
        value = yield from ssd.get(nsid, 1)
        return value

    value = run(env, flow())
    assert value[0] == "version"
    assert 0 <= value[1] < 8


def test_stats_counters():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, k, "v", 64) for k in range(3)])
        yield from ssd.get(nsid, 0)

    run(env, flow())
    assert ssd.metrics.total("kaml.ssd.puts") == 1
    assert ssd.metrics.total("kaml.ssd.put_records") == 3
    assert ssd.metrics.total("kaml.ssd.gets") == 1


# -- namespace deleted under an acknowledged command ------------------------

def test_namespace_deleted_after_ack_leaves_no_reservation_or_pin():
    """An acked Put (or Delete) whose namespace is dropped before its
    background half runs completes quietly: the NVRAM pin is released
    and the completion process resolves instead of raising."""
    sanitize.set_enabled(True)
    try:
        env, ssd = make_ssd()

        def flow():
            # Put: the namespace goes before phase 2 takes its first step.
            nsid = yield from ssd.create_namespace()
            done = yield from ssd.put([PutItem(nsid, k, "v", 512) for k in range(3)])
            yield from ssd.delete_namespace(nsid)
            yield done
            # Delete: the namespace goes while the tombstone append is in flight.
            nsid = yield from ssd.create_namespace()
            yield from put_one(ssd, nsid, 1, "x")
            yield from ssd.drain()
            yield from ssd.delete(nsid, 1)
            yield env.timeout(1.0)  # _complete_delete is now waiting on its page
            yield from ssd.delete_namespace(nsid)
            yield from ssd.drain()

        run(env, flow())
        assert len(ssd.nvram) == 0
        ssd.close()  # SAN-NVRAM / SAN-PIN
    finally:
        sanitize.set_enabled(None)


def test_delete_namespace_leaves_no_per_key_state_behind():
    """50 Puts, a Delete, DeleteNamespace: the mapping forgets every
    version, tombstone, staged value and valid byte of the namespace."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        for key in range(50):
            yield from put_one(ssd, nsid, key, ("v", key))
        yield from ssd.delete(nsid, 7)
        yield from ssd.drain()
        assert ssd.mapping.valid_bytes_total() > 0
        yield from ssd.delete_namespace(nsid)
        return nsid

    nsid = run(env, flow())
    mapping = ssd.mapping
    # Version 0 loses to any version the table still remembers for the key.
    leftover = [k for k in range(50) if mapping.superseded(Record(nsid, k, None, 0, seq=0))]
    assert leftover == []
    assert list(mapping.references()) == []  # index entries and tombstones
    assert mapping.staged_items(nsid) == [] and ssd.staged_records == 0
    assert mapping.valid_bytes_total() == 0
