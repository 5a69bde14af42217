"""Exactness oracle for zero-event acquisitions and delays on the real stack.

A mixed Get/Put/delete workload that drives GC on one device, GC
relocating survivors under reads, host reads under a write flood (so dies
suspend programs and erases for them, and power is cut while one is
suspended), a 2-shard cluster with cross-shard atomic Puts, and a device
whose power is cut by ``run(until=T)`` mid-workload, each run twice:
normally, and with the kernel's "would run next" test forced false
(``tests/sim/zero_event_seam.py``) so every firmware context, chip engine,
bus, PCIe pipe, program lock and NVRAM reservation is granted, and every
cost delay taken, through the heap as before the fast paths.
Every op must be issued and completed at the same simulated instants, the
clocks must end equal, and the runs must differ in dispatched events by
exactly the grants and advances elided.

The GC and 2PC workloads also run with every tracer armed and disarmed:
tracing is bookkeeping, so the two must agree on every op's timestamps,
the dispatched events and the registry export.
"""

import json
import random

import pytest
from tests.sim.zero_event_seam import counted_grants, forced_refusal

from repro.cache import KamlStore
from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.errors import PowerLossError
from repro.fault.harness import default_device_config
from repro.fault.shadow import ShadowModel
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.obs import to_builtin
from repro.sim import Environment


def run_twice(scenario):
    with counted_grants() as grants:
        env, ops, *_ = scenario()
    with forced_refusal():
        ref_env, ref_ops, *_ = scenario()
    assert ops == ref_ops  # every (client, op, issue time, completion time)
    assert env.now == ref_env.now
    assert grants[0] > 0
    assert ref_env.events_processed - env.events_processed == grants[0]
    return env.events_processed, ref_env.events_processed


def timed(env, ops, client, kind, gen):
    issued = env.now
    result = yield from gen
    ops.append((client, kind, issued, env.now))
    return result


def small_device():
    """A 4-chip, 4-log device with one namespace: ``(env, ssd, nsid)``."""
    env = Environment()
    geometry = FlashGeometry(
        channels=2, chips_per_channel=2, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=4, flush_timeout_us=300.0)
    )
    ssd = KamlSsd(env, config)

    def setup():
        return (yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64)))

    proc = env.process(setup())
    env.run_until(proc)
    return env, ssd, proc.value


def observed(registries, tracers):
    """The registries' export and the number of spans the tracers kept."""
    export = json.dumps([to_builtin(registry) for registry in registries], sort_keys=True)
    return export, sum(tracer.recorder.recorded for tracer in tracers)


def device_scenario(armed=True):
    env, ssd, nsid = small_device()
    ssd.tracer.enabled = armed
    store = KamlStore(env, ssd, 32 * 1024)
    rng = random.Random(99)
    keys = 24
    ops = []

    def writer(partition):
        mine = [k for k in range(keys) if k % 4 == partition]
        for i in range(320):  # records share pages: ~6 ops program one
            key = mine[i % len(mine)]
            if i % 11 == 10:
                yield from timed(env, ops, partition, "delete", ssd.delete(nsid, key))
            elif i % 3 == 0:
                batch = [
                    PutItem(nsid, k, ("w", partition, i), rng.choice([200, 900]))
                    for k in mine[:2]
                ]
                yield from timed(env, ops, partition, "put2", ssd.put(batch))
            else:
                item = PutItem(nsid, key, ("w", partition, i), rng.choice([200, 900, 2048]))
                yield from timed(env, ops, partition, "put", ssd.put([item]))
            think_us = rng.choice([0.0, 50.0, 400.0])
            env.try_advance(think_us) or (yield env.timeout(think_us))

    def reader(client):
        for i in range(80):
            key = rng.randrange(keys)
            if i % 2:
                yield from timed(env, ops, client, "get", ssd.get(nsid, key))
            else:
                yield from timed(env, ops, client, "cached-get", store.get(nsid, key))
            think_us = rng.choice([0.0, 100.0])
            env.try_advance(think_us) or (yield env.timeout(think_us))

    procs = [env.process(writer(p)) for p in range(4)]
    procs += [env.process(reader(4 + r)) for r in range(2)]
    env.run_until(env.all_of(procs))
    proc = env.process(ssd.drain())
    env.run_until(proc)
    # The schedule under test includes GC.
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 0
    return env, ops, observed([ssd.metrics], [ssd.tracer])


def relocation_scenario(armed=True):
    """One log, one record per page, and every block keeps one live record,
    so each GC victim has survivors to relocate while a reader reads them."""
    env = Environment()
    ssd = KamlSsd(env, ReproConfig.small().with_(kaml=KamlParams(num_logs=1)))
    ssd.tracer.enabled = armed
    proc = env.process(ssd.create_namespace())
    env.run_until(proc)
    nsid = proc.value
    ops = []

    def writer():
        for i in range(120):
            key = 100 + i if i % 8 == 0 else i % 3
            item = PutItem(nsid, key, ("w", i), 8000)
            yield from timed(env, ops, "writer", "put", ssd.put([item]))
            env.try_advance(900.0) or (yield env.timeout(900.0))

    def reader():
        for i in range(120):
            key = 100 + 8 * (i % 12)
            yield from timed(env, ops, "reader", "get", ssd.get(nsid, key))
            env.try_advance(450.0) or (yield env.timeout(450.0))

    env.run_until(env.all_of([env.process(writer()), env.process(reader())]))
    env.run()
    assert ssd.metrics.total("kaml.log.gc.relocated_records") > 10
    return env, ops, observed([ssd.metrics], [ssd.tracer])


def flood_scenario(cut_while_suspended=None):
    """Three readers of keys that live on flash beside four zero-think-time
    writers: most Gets find their die mid-program, some mid-erase, and
    suspend it.  With ``cut_while_suspended="program"|"erase"`` the power
    dies by ``run(until=T)`` at the first instant a die is away from such a
    pulse, sensing; the device must recover to the shadow model's verdict."""
    env, ssd, nsid = small_device()
    rng = random.Random(23)
    shadow = ShadowModel()
    static, churned = range(16), range(16, 32)
    ops = []

    def put(client, key, size):
        op_id = shadow.begin("put", [key])
        item = PutItem(nsid, key, shadow.value_for(op_id, key), size)
        yield from timed(env, ops, client, "put", ssd.put([item]))
        shadow.ack(op_id)

    def populate():
        for key in static:
            yield from put("setup", key, 900)
        yield from ssd.drain()

    env.run_until(env.process(populate()))

    def writer(partition):
        mine = [k for k in churned if k % 4 == partition]
        try:
            for i in range(500):
                if ssd.epoch:
                    return  # power was cut; the host stops issuing
                yield from put(partition, mine[i % len(mine)], 2048)
        except PowerLossError:
            return

    def reader(client):
        try:
            for _ in range(260):
                if ssd.epoch:
                    return
                yield from timed(env, ops, client, "get", ssd.get(nsid, rng.choice(static)))
                think_us = rng.choice([0.0, 40.0, 250.0])
                env.try_advance(think_us) or (yield env.timeout(think_us))
        except PowerLossError:
            return

    procs = [env.process(writer(p)) for p in range(4)]
    procs += [env.process(reader(4 + r)) for r in range(3)]
    done = env.all_of(procs)  # also where a ghost's sanitizer complaint lands
    if cut_while_suspended is None:
        env.run_until(done)
        env.run_until(env.process(ssd.drain()))
        # The schedule under test suspends both kinds of pulse.
        assert ssd.metrics.value("flash.suspensions", kind="program") > 100
        assert ssd.metrics.value("flash.suspensions", kind="erase") > 10
        # One tally, three views: per-die stats, the report, the registry.
        report = ssd.utilization_report()
        assert report["flash_suspensions"] == ssd.metrics.total("flash.suspensions")
        assert report["flash_suspended_reads"] == ssd.metrics.value("flash.suspended_reads")
        assert 0.0 < report["flash_away_us"] < env.now * 4
        return env, ops

    def die_away():
        for _channel, _index, chip in ssd.array.iter_chips():
            pulse = chip._pulse
            if (pulse is not None and pulse.kind == cut_while_suspended
                    and env.now < pulse.sense_end):
                return chip
        return None

    while die_away() is None:
        env.run(until=env.now + 5.0)
    chip = die_away()
    ops.append(("cut", chip.name, env.queue_depth, len(ops), env.now))
    before = [(b.erase_count, b.programmed_pages) for b in chip.blocks]
    ssd.power_loss()
    env.run(until=env.now + 7_000.0)  # the ghost pulse runs out its time
    # Cells were written at pulse start and an erase lands at pulse end, so
    # a cut inside a suspension tears or keeps exactly what it would have:
    # the suspended erase did not erase.
    assert [(b.erase_count, b.programmed_pages) for b in chip.blocks] == before

    def recover_and_read_back():
        yield from ssd.recover()
        observed = {}
        for key in shadow.touched_keys:
            observed[key] = yield from timed(env, ops, "audit", key, ssd.get(nsid, key))
        return observed

    proc = env.process(recover_and_read_back())
    env.run_until(proc)
    assert shadow.verify(proc.value) == []
    ops.append(("sim_time_us", env.now))
    return env, ops


def cluster_scenario(armed=True):
    env = Environment()
    cluster = KamlCluster.build(env, default_device_config(), ClusterConfig(num_shards=2))
    devices = list(cluster.shards.values())
    for tracer in [cluster.tracer, *(device.tracer for device in devices)]:
        tracer.enabled = armed
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
    rng = random.Random(5)
    ops = []

    def setup():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")

    proc = env.process(setup())
    env.run_until(proc)

    def client(cid):
        for i in range(40):
            if i % 3 == 0:
                items = [(rng.randrange(64), ("c", cid, i), 300) for _ in range(3)]
                items = list({key: (key, v, n) for key, v, n in items}.values())
                yield from timed(env, ops, cid, "put3", cluster.put("data", items))
            elif i % 3 == 1:
                item = (rng.randrange(64), ("c", cid, i), 500)
                yield from timed(env, ops, cid, "put", cluster.put("data", [item]))
            else:
                yield from timed(env, ops, cid, "get", cluster.get("data", rng.randrange(64)))

    procs = [env.process(client(c)) for c in range(6)]
    env.run_until(env.all_of(procs))
    proc = env.process(cluster.drain())
    env.run_until(proc)
    assert cluster.metrics.total("cluster.2pc.txns") > 0
    return env, ops, observed(
        [cluster.metrics, *(device.metrics for device in devices)],
        [cluster.tracer, *(device.tracer for device in devices)],
    )


def power_cut_scenario(cut_at):
    """Two writers; ``run(until=T)`` stops the clock mid-workload, power
    dies, the device recovers by scanning flash and every key is read back."""
    env, ssd, nsid = small_device()
    rng = random.Random(17)
    keys = 24
    ops = []

    def writer(partition):
        mine = [k for k in range(keys) if k % 2 == partition]
        try:
            for i in range(400):
                if ssd.epoch:
                    return  # power was cut; the host stops issuing
                item = PutItem(nsid, mine[i % len(mine)], ("w", partition, i),
                               rng.choice([200, 900, 2048]))
                yield from timed(env, ops, partition, "put", ssd.put([item]))
                think_us = rng.choice([0.0, 35.5, 420.0])
                env.try_advance(think_us) or (yield env.timeout(think_us))
        except PowerLossError:
            return

    for partition in range(2):
        env.process(writer(partition))
    env.run(until=cut_at)
    assert env.now == cut_at and 10 < len(ops) < 800  # mid-workload
    ops.append(("cut", env.queue_depth, len(ops), env.now))
    ssd.power_loss()

    def recover_and_read_back():
        yield from ssd.recover()
        for key in range(keys):
            value = yield from timed(env, ops, "audit", key, ssd.get(nsid, key))
            ops.append(("recovered", key, value, env.now))

    proc = env.process(recover_and_read_back())
    env.run_until(proc)
    proc.value  # re-raise a failed recovery  # noqa: B018
    ops.append(("sim_time_us", env.now))
    return env, ops


def test_device_with_gc_is_bit_identical_and_cheaper():
    events, reference = run_twice(device_scenario)
    assert events < 0.9 * reference


def test_gc_relocation_under_reads_is_bit_identical_and_cheaper():
    events, reference = run_twice(relocation_scenario)
    assert events < 0.9 * reference


def test_reads_suspending_a_write_flood_are_bit_identical_and_cheaper():
    events, reference = run_twice(flood_scenario)
    assert events < 0.9 * reference


@pytest.mark.parametrize("kind", ["program", "erase"])
def test_power_cut_while_a_pulse_is_suspended_recovers_identically(kind):
    events, reference = run_twice(lambda: flood_scenario(cut_while_suspended=kind))
    assert events < 0.9 * reference


def test_two_shard_cluster_is_bit_identical_and_cheaper():
    events, reference = run_twice(cluster_scenario)
    assert events < 0.9 * reference


@pytest.mark.parametrize(
    "scenario",
    [device_scenario, relocation_scenario, cluster_scenario],
    ids=["device-gc", "gc-relocation", "cluster-2pc"],
)
def test_arming_the_tracers_moves_nothing_simulated(scenario):
    env, ops, (export, spans) = scenario(armed=True)
    quiet_env, quiet_ops, (quiet_export, quiet_spans) = scenario(armed=False)
    assert spans > 0 and quiet_spans == 0
    assert ops == quiet_ops  # every (client, op, issue time, completion time)
    assert env.now == quiet_env.now
    assert env.events_processed == quiet_env.events_processed
    assert export == quiet_export


@pytest.mark.parametrize("cut_at", [3_011.0, 5_400.5, 7_003.25, 9_999.0, 14_250.75, 21_000.0])
def test_power_cut_by_run_until_time_recovers_identically(cut_at):
    """The horizon refusal: no process may be carried past ``T`` inline, so
    the cut finds, and recovery rebuilds, the same device in both kernels."""
    events, reference = run_twice(lambda: power_cut_scenario(cut_at))
    assert events < 0.9 * reference
