"""The NVRAM write-cache semantics: read-after-ack visibility, version
ordering of concurrent same-key Puts, and delete interactions."""

from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd, PutItem
from repro.sim import Environment


def make_ssd():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_get_sees_acked_value_before_flash_install():
    """A Get issued immediately after the Put ack (long before the page
    programs) must return the new value — served from NVRAM staging."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        programs_before = ssd.array.total_programs()
        yield from ssd.put([PutItem(nsid, 1, "fresh", 64)])
        value = yield from ssd.get(nsid, 1)
        return value, ssd.array.total_programs() - programs_before

    value, programs = run(env, flow())
    assert value == "fresh"
    assert programs == 0  # nothing had reached flash yet


def test_staged_get_is_fast():
    """Staging hits skip the flash read entirely."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "x", 64)])
        reads_before = ssd.array.total_reads()
        start = env.now
        yield from ssd.get(nsid, 1)
        staged_latency = env.now - start
        yield from ssd.drain()
        start = env.now
        yield from ssd.get(nsid, 1)
        flash_latency = env.now - start
        return staged_latency, flash_latency, reads_before

    staged_latency, flash_latency, _ = run(env, flow())
    assert staged_latency < 0.5 * flash_latency


def test_rapid_same_key_updates_not_serialized_by_flash():
    """Hot-key updates must proceed at phase-1 (ack) rate, not one per
    flash program — the property zipfian YCSB depends on."""
    env, ssd = make_ssd()
    updates = 20

    def flow():
        nsid = yield from ssd.create_namespace()
        start = env.now
        for i in range(updates):
            yield from ssd.put([PutItem(nsid, 7, ("v", i), 64)])
        elapsed = env.now - start
        value = yield from ssd.get(nsid, 7)
        return elapsed, value

    elapsed, value = run(env, flow())
    assert value == ("v", updates - 1)
    # Far below one flash-program (700 us) per update.
    assert elapsed / updates < ssd.config.flash.program_us / 4


def test_final_state_after_drain_is_last_version():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        for i in range(10):
            yield from ssd.put([PutItem(nsid, 3, ("v", i), 64)])
        yield from ssd.drain()
        yield env.timeout(50000.0)
        value = yield from ssd.get(nsid, 3)
        return value

    assert run(env, flow()) == ("v", 9)
    # Staging area fully drained.
    assert not ssd.staged_records


def test_concurrent_same_key_writers_converge():
    env, ssd = make_ssd()

    def writer(nsid, i):
        yield from ssd.put([PutItem(nsid, 5, ("w", i), 64)])

    def flow():
        nsid = yield from ssd.create_namespace()
        procs = [env.process(writer(nsid, i)) for i in range(12)]
        yield env.all_of(procs)
        yield from ssd.drain()
        yield env.timeout(50000.0)
        value = yield from ssd.get(nsid, 5)
        return value

    value = run(env, flow())
    assert value[0] == "w"
    assert not ssd.staged_records
    # Exactly one record (one 128 B chunk) remains valid; the eleven
    # superseded copies are garbage for GC.
    from repro.kaml.record import chunks_for
    expected = chunks_for(64, ssd.geometry.chunk_size) * ssd.geometry.chunk_size
    assert ssd.mapping.valid_bytes_total() == expected


def test_delete_wins_over_in_flight_install():
    """Delete immediately after an acked Put: the in-flight install must
    not resurrect the key."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 9, "doomed", 64)])
        removed = yield from ssd.delete(nsid, 9)
        yield from ssd.drain()
        yield env.timeout(50000.0)
        value = yield from ssd.get(nsid, 9)
        return removed, value

    removed, value = run(env, flow())
    assert removed is True
    assert value is None


def test_delete_of_staged_only_key_reports_existence():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 4, "staged", 64)])
        removed = yield from ssd.delete(nsid, 4)
        return removed

    assert run(env, flow()) is True


def test_batch_staging_is_atomic_for_gets():
    """After a batched Put acks, every record of the batch is visible."""
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, k, ("b", k), 64) for k in range(6)])
        values = []
        for k in range(6):
            value = yield from ssd.get(nsid, k)
            values.append(value)
        return values

    assert run(env, flow()) == [("b", k) for k in range(6)]
