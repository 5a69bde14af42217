"""Functional tests for the KAML SSD: Table I commands, atomicity, GC."""

import pytest

from repro import sanitize
from repro.config import KamlParams, ReproConfig, SsdResources
from repro.kaml import (
    TOMBSTONE,
    DedicatedLogsPolicy,
    ExplicitLogsPolicy,
    KamlError,
    KamlSsd,
    NamespaceAttributes,
    NamespaceError,
    PutItem,
    RecordTooLargeError,
)
from repro.kaml.log import LogSpaceError
from repro.kaml.read import staged_keys
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


def test_get_served_from_flash_keeps_its_trace():
    """A traced Get that misses staging reads flash under its own root: the
    ``get.flash_read`` span, and the die and bus spans inside it, belong to
    the ``kaml.get`` trace instead of going unrecorded."""
    env, ssd = make_ssd()
    nsid = run(env, ssd.create_namespace())
    run(env, ssd.put([PutItem(nsid, 7, "seven", 100)]))
    run(env, ssd.drain())
    seen = len(ssd.tracer.recorder.events())
    assert run(env, ssd.get(nsid, 7)) == "seven"
    spans = ssd.tracer.recorder.events()[seen:]
    (root,) = [span for span in spans if span.parent_id is None]
    assert (root.name, root.tags["source"]) == ("kaml.get", "flash")
    (flash_read,) = [span for span in spans if span.name == "get.flash_read"]
    assert flash_read.parent_id == root.span_id
    children = {span.name for span in spans if span.parent_id == flash_read.span_id}
    assert {"nand.read", "bus.transfer"} <= children
    assert {span.trace_id for span in spans} == {root.trace_id}


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
            yield env.timeout(1.0)  # the tombstone's _complete_put now waits on its page
            yield from ssd.delete_namespace(nsid)
            yield from ssd.drain()

        run(env, flow())
        assert len(ssd.nvram) == 0
        ssd.close()  # SAN-NVRAM / SAN-PIN
    finally:
        sanitize.set_enabled(None)


def test_acked_put_whose_flash_append_fails_keeps_its_pin():
    """Every program fails, so the acked record's page gives up with
    LogSpaceError.  The batch was acknowledged at the pin, which is now its
    only durable copy: the pin stays, the key reads back from staging, the
    run ends normally, and replay lands the record once flash works again."""
    env, ssd = make_ssd()
    nsid = run(env, ssd.create_namespace())
    for _channel, _index, chip in ssd.array.iter_chips():
        chip.fault_hook = lambda kind, block, page: kind == "program"

    run(env, put_one(ssd, nsid, 7, "acked"))  # raised LogSpaceError here
    assert ssd.metrics.value("kaml.ssd.put_append_failures") == 1
    assert len(ssd.nvram) == 1 and ssd.nvram.used_bytes == 512
    assert run(env, ssd.get(nsid, 7)) == "acked"

    for _channel, _index, chip in ssd.array.iter_chips():
        chip.fault_hook = None
    ssd.power_loss()
    run(env, ssd.recover())
    assert len(ssd.nvram) == 0 and ssd.staged_records == 0
    assert ssd.namespaces[nsid].index.lookup(7)[0] is not None
    assert run(env, ssd.get(nsid, 7)) == "acked"


def test_put_records_that_share_a_page_each_install_their_own_run():
    """Four records of one Put land in one page, whose single completion
    installs each of them at its own chunk run."""
    env, ssd = make_ssd(num_logs=1)
    nsid = run(env, ssd.create_namespace())

    def flow():
        done = yield from ssd.put([PutItem(nsid, k, ("v", k), 512) for k in range(4)])
        yield done

    run(env, flow())
    assert ssd.staged_records == 0
    locations = [ssd.namespaces[nsid].index.lookup(k)[0] for k in range(4)]
    assert len({location.page for location in locations}) == 1
    assert len({location.chunk for location in locations}) == 4
    assert ssd.metrics.total("kaml.log.programmed_pages") == 1


def test_page_that_exhausts_its_retries_fails_each_waiting_put_once():
    """Three acked Puts, four records, one page on one log: every program
    fails, so the page gives up after its retries.  Each Put sees the
    failure once and keeps its own pin; replay lands all four records."""
    env, ssd = make_ssd(num_logs=1)
    nsid = run(env, ssd.create_namespace())
    for _channel, _index, chip in ssd.array.iter_chips():
        chip.fault_hook = lambda kind, block, page: kind == "program"
    batches = [[1, 2], [3], [4]]

    def flow():
        done = []
        for keys in batches:
            done.append((yield from ssd.put([PutItem(nsid, k, ("v", k), 512) for k in keys])))
        for process in done:
            yield process
        return len(done)

    assert run(env, flow()) == 3
    assert ssd.metrics.total("kaml.log.program_failures") == ssd.logs[0].MAX_PROGRAM_RETRIES
    assert ssd.metrics.value("kaml.ssd.put_append_failures") == 3
    assert len(ssd.nvram) == 3 and ssd.nvram.used_bytes == 4 * 512
    assert [run(env, ssd.get(nsid, k)) for k in range(1, 5)] == [("v", k) for k in range(1, 5)]

    for _channel, _index, chip in ssd.array.iter_chips():
        chip.fault_hook = None
    ssd.power_loss()
    run(env, ssd.recover())
    assert len(ssd.nvram) == 0 and ssd.staged_records == 0
    assert [run(env, ssd.get(nsid, k)) for k in range(1, 5)] == [("v", k) for k in range(1, 5)]


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
    assert staged_keys(mapping, nsid) == [] and ssd.staged_records == 0
    assert mapping.valid_bytes_total() == 0


def test_acked_put_whose_reappend_fails_keeps_its_pin():
    """GC severs an acked record between its page landing and its install,
    and every program of the re-append fails.  The re-append's
    LogSpaceError is the first append's: counted, the pin kept, the key read
    back from staging, and replay lands the record once flash works again."""
    env, ssd = make_ssd()
    nsid = run(env, ssd.create_namespace())
    severed = ssd.mapping.severed

    def sever_once(location, mark):
        ssd.mapping.severed = severed
        for _channel, _index, chip in ssd.array.iter_chips():
            chip.fault_hook = lambda kind, block, page: kind == "program"
        return True

    ssd.mapping.severed = sever_once
    run(env, put_one(ssd, nsid, 7, "acked"))  # the re-append raised here
    assert ssd.mapping.severed is severed
    assert ssd.metrics.value("kaml.ssd.put_append_failures") == 1
    assert ssd.metrics.total("kaml.log.program_failures") == ssd.logs[0].MAX_PROGRAM_RETRIES
    assert len(ssd.nvram) == 1 and ssd.nvram.used_bytes == 512
    assert run(env, ssd.get(nsid, 7)) == "acked"

    for _channel, _index, chip in ssd.array.iter_chips():
        chip.fault_hook = None
    ssd.power_loss()
    run(env, ssd.recover())
    assert len(ssd.nvram) == 0 and ssd.staged_records == 0
    assert run(env, ssd.get(nsid, 7)) == "acked"


def test_delete_churn_keeps_the_pin_of_a_batch_whose_reappend_finds_the_device_full():
    """Two clients put fresh 1 KiB keys and delete them at once, four keys
    per command, on ``ReproConfig.small()`` until the first append fails.
    Every delete leaves a tombstone, so the device fills; on this schedule
    the first failure is a re-append of a record GC severed, into a full
    log.  Nothing may escape the kernel, every key of a pinned batch reads
    back as acked, and the pins survive the power cut for replay.  (Replay
    itself needs room this full device no longer has: a tombstone is live
    while it is its key's newest version.)"""
    env, ssd = make_ssd()
    failures = ssd.metrics.counter("kaml.ssd.put_append_failures")
    acked = {}

    def churn(client, nsid):
        for i in range(100_000):
            if failures.value:
                return
            keys = [(2 * i + client) * 4 + j for j in range(4)]
            yield from ssd.put([PutItem(nsid, k, ("v", k), 1024) for k in keys])
            acked.update((k, ("v", k)) for k in keys)
            yield from ssd.put([PutItem(nsid, k, TOMBSTONE, 0) for k in keys])
            acked.update((k, None) for k in keys)

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        yield env.all_of([env.process(churn(client, nsid)) for client in range(2)])
        pinned = {item.key for _handle, batch in ssd.nvram.live_payloads() for item in batch.items}
        for key in sorted(pinned):
            assert (yield from ssd.get(nsid, key)) == acked[key]
        return pinned

    pinned = run(env, flow())
    assert failures.value >= 1
    held = len(ssd.nvram)
    assert held and pinned
    ssd.power_loss()
    assert len(ssd.nvram) == held


@pytest.mark.xfail(
    strict=True, raises=LogSpaceError,
    reason="no admission before the ack: replay after delete churn finds the device full",
)
def test_delete_churn_then_a_power_cut_reads_every_acked_key_back():
    """The churn loop above, run on through a power cut: recovery must
    replay every pinned batch, and every acked key must read back as
    acked.  Today recovery runs out of room (``LogSpaceError``); once a
    Put is refused before its ack when flash cannot hold it, this passes."""
    env, ssd = make_ssd()
    failures = ssd.metrics.counter("kaml.ssd.put_append_failures")
    acked = {}

    def churn(client, nsid):
        for i in range(100_000):
            if failures.value:
                return
            keys = [(2 * i + client) * 4 + j for j in range(4)]
            yield from ssd.put([PutItem(nsid, k, ("v", k), 1024) for k in keys])
            acked.update((k, ("v", k)) for k in keys)
            yield from ssd.put([PutItem(nsid, k, TOMBSTONE, 0) for k in keys])
            acked.update((k, None) for k in keys)

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        yield env.all_of([env.process(churn(client, nsid)) for client in range(2)])
        return nsid

    nsid = run(env, flow())
    ssd.power_loss()

    def read_back():
        yield from ssd.recover()
        values = {}
        for key in sorted(acked):
            values[key] = yield from ssd.get(nsid, key)
        return values

    assert run(env, read_back()) == acked


def test_overlapping_gets_of_one_block_leave_no_pin_behind():
    """Two Gets read the same block at once, so it is pinned twice.  After
    both return no pin is left, and GC's pre-erase barrier passes at once."""
    env, ssd = make_ssd(num_logs=1)
    nsid = run(env, ssd.create_namespace())

    def load():
        yield from ssd.put([PutItem(nsid, k, ("v", k), 512) for k in (1, 2)])
        yield from ssd.drain()

    run(env, load())
    block = ssd.namespaces[nsid].index.lookup(1)[0].block_key
    assert ssd.namespaces[nsid].index.lookup(2)[0].block_key == block
    peak = [0]

    def flow():
        gets = [env.process(ssd.get(nsid, k)) for k in (1, 2)]
        while not all(get.processed for get in gets):
            peak[0] = max(peak[0], ssd.mapping.pinned_blocks().get(block, 0))
            yield env.timeout(1.0)
        values = yield env.all_of(gets)
        left = ssd.mapping.pinned_blocks()
        before = env.now
        yield from ssd.mapping.wait_unpinned(block)
        return values, left, env.now - before

    proc = env.process(flow())
    env.run()
    assert proc.processed, "the pre-erase barrier waited for a pin nobody holds"
    assert peak == [2]  # the reads overlapped
    assert proc.value == ([("v", 1), ("v", 2)], {}, 0.0)


# -- the 2PC participant: a Put's two halves ---------------------------------

def _twin_devices(present_keys):
    """Two identical devices, each with ``present_keys`` installed, at the
    same instant."""
    twins = []
    for _ in range(2):
        env, ssd = make_ssd()
        nsid = run(env, ssd.create_namespace())

        def load(ssd=ssd, nsid=nsid):
            if present_keys:
                yield from ssd.put([PutItem(nsid, k, ("old", k), 512) for k in present_keys])
            yield from ssd.drain()

        run(env, load())
        twins.append((env, ssd, nsid))
    assert twins[0][0].now == twins[1][0].now
    return twins


@pytest.mark.parametrize(
    "keys, present",
    [([1], [1]), ([7], []), ([1, 2, 9], [1, 2])],
    ids=["one-present-key", "one-absent-key", "three-keys-wave"],
)
def test_participant_commit_costs_what_a_put_costs_after_the_pin(keys, present):
    """A prepare is a Put's pin and a commit its second half, so from the
    end of the NVRAM copy to the ack a participant pays exactly what a
    local Put of the same records pays: the same probes, the insert charge
    for an absent key, and one firmware wave for a batch."""
    (env_a, ssd_a, ns_a), (env_b, ssd_b, ns_b) = _twin_devices(present)
    start = env_a.now

    def local_put():
        yield from ssd_a.put([PutItem(ns_a, k, ("new", k), 512) for k in keys])
        return env_a.now

    def participant():
        handle = yield from ssd_b.prepare_batch(
            [PutItem(ns_b, k, ("new", k), 512) for k in keys], txn_id=1
        )
        pinned = env_b.now
        yield from ssd_b.commit_prepared(handle)
        return pinned, env_b.now

    put_acked = run(env_a, local_put())
    pinned, commit_acked = run(env_b, participant())
    assert pinned > start
    assert commit_acked - pinned > 0
    assert put_acked == commit_acked  # the pins match, so the commits do too
    for k in keys:
        assert run(env_b, ssd_b.get(ns_b, k)) == ("new", k)


def test_participant_pin_sample_spans_the_prepare_to_commit_gap():
    """``kaml.put.nvram_pin_us`` measures a prepared batch from its pin, not
    from its commit: the coordinator's decision time is pin time too."""
    env, ssd = make_ssd()
    nsid = run(env, ssd.create_namespace())
    gap_us = 500.0

    def flow():
        handle = yield from ssd.prepare_batch([PutItem(nsid, 1, "v", 512)], txn_id=1)
        prepared = env.now
        yield env.timeout(gap_us)
        done = yield from ssd.commit_prepared(handle)
        yield done  # phases 2-3 release the pin as they end
        return prepared, env.now

    prepared, released = run(env, flow())
    pinned = ssd.metrics.histogram("kaml.put.nvram_pin_us")
    assert pinned.count == 1
    assert ssd.nvram.used_bytes == 0
    # Pinned before the prepare returned, released when phases 2-3 ended.
    assert pinned.min_value >= released - prepared > gap_us
