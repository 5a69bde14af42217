"""Crash-timing edge cases: ghosts must never corrupt recovered state."""

import pytest

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.errors import PowerLossError
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


def make_small_ssd(flush_timeout=200.0):
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=1, flush_timeout_us=flush_timeout),
    )
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


@pytest.mark.parametrize("crash_at", [30.0, 80.0, 150.0, 400.0, 900.0])
def test_crash_at_any_instant_recovers_consistently(crash_at):
    """Whatever instant the power cut lands on, recovery must produce the
    full batch (it was staged in NVRAM before or during the window) or,
    for very early cuts, an entirely absent batch — never a partial one."""
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=32))
        state["nsid"] = nsid
        yield from ssd.put([PutItem(nsid, k, ("batch", k), 512) for k in range(6)])

    env.process(writer())
    env.run(until=crash_at)
    if "nsid" not in state:
        return  # crashed before the namespace existed; nothing to check
    ssd.power_loss()

    def recovery():
        yield from ssd.recover()
        values = []
        for k in range(6):
            value = yield from ssd.get(state["nsid"], k)
            values.append(value)
        return values

    values = run(env, recovery())
    present = [v for v in values if v is not None]
    assert len(present) in (0, 6), f"partial batch after crash at {crash_at}"
    if present:
        assert values == [("batch", k) for k in range(6)]


def test_crash_during_gc_preserves_data():
    """A power cut in the middle of a GC pass must not lose any record:
    relocated copies are installed transactionally via CAS, victims are
    only erased after full relocation."""
    env, ssd = make_small_ssd()
    state = {}

    def churner():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        for k in range(4):
            yield from ssd.put([PutItem(nsid, 100 + k, ("cold", k), 2048)])
        state["cold_done"] = True
        for i in range(400):
            yield from ssd.put([PutItem(nsid, i % 4, ("hot", i), 2048)])
            yield env.timeout(1500.0)
            if state.get("cut"):
                return  # the host stops at the cut, as its device went dark

    env.process(churner())
    # Run long enough that GC is active, then cut power mid-everything.
    env.run(until=250_000.0)
    assert state.get("cold_done")
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 0
    state["cut"] = True
    ssd.power_loss()

    def recovery():
        yield from ssd.recover()
        cold = []
        for k in range(4):
            value = yield from ssd.get(state["nsid"], 100 + k)
            cold.append(value)
        hot_ok = True
        for k in range(4):
            value = yield from ssd.get(state["nsid"], k)
            hot_ok = hot_ok and (value is None or value[0] == "hot")
        return cold, hot_ok

    cold, hot_ok = run(env, recovery())
    assert cold == [("cold", k) for k in range(4)]
    assert hot_ok


def test_double_crash_recover():
    """Crash, recover, crash again immediately, recover again."""
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        yield from ssd.put([PutItem(nsid, 1, "value-1", 512)])

    env.process(writer())
    env.run(until=100.0)
    ssd.power_loss()

    def first_recovery():
        yield from ssd.recover()

    run(env, first_recovery())
    ssd.power_loss()

    def second_recovery():
        yield from ssd.recover()
        value = yield from ssd.get(state["nsid"], 1)
        return value

    assert run(env, second_recovery()) == "value-1"


def test_traffic_resumes_after_recovery():
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=32))
        state["nsid"] = nsid
        yield from ssd.put([PutItem(nsid, 1, "pre-crash", 512)])

    env.process(writer())
    env.run(until=100.0)
    ssd.power_loss()

    def after():
        yield from ssd.recover()
        nsid = state["nsid"]
        for i in range(20):
            yield from ssd.put([PutItem(nsid, 10 + i, ("post", i), 512)])
        yield from ssd.drain()
        old = yield from ssd.get(nsid, 1)
        new = yield from ssd.get(nsid, 29)
        return old, new

    assert run(env, after()) == ("pre-crash", ("post", 19))


def test_power_cut_mid_program_keeps_every_acked_record():
    """A power cut lands after a flush allocated its page but before the
    program finished.  That program never lands, so recovery finds the
    page unprogrammed and may hand it out again; every acknowledged
    record must still read back, and so must every later write."""
    env, ssd = make_small_ssd()
    log = ssd.logs[0]
    state = {"acked": []}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=32))
        state["nsid"] = nsid
        for k in range(8):
            if (yield from ssd.put([PutItem(nsid, k, ("pre", k), 2048)])) is not None:
                state["acked"].append(k)  # None: the cut took the command

    env.process(writer())

    def page_in_flight():
        block = log._active[False]
        return block is not None and log._active_wp[False] > (
            log._chip().block(block).write_pointer
        )

    while not page_in_flight():
        env.step()
    block = log._chip().block(log._active[False])
    cut_page = block.write_pointer
    ssd.power_loss()
    assert block.write_pointer == cut_page  # the program was cut

    def after():
        yield from ssd.recover()
        nsid = state["nsid"]
        for k in range(12):
            yield from ssd.put([PutItem(nsid, 100 + k, ("post", k), 2048)])
        yield from ssd.drain()
        values = []
        for key in [*state["acked"], *range(100, 112)]:
            value = yield from ssd.get(nsid, key)
            values.append(value)
        return values

    values = run(env, after())
    assert len(state["acked"]) >= 4
    assert values == [("pre", k) for k in state["acked"]] + [
        ("post", k) for k in range(12)
    ]


#: The four read commands, each as ``(ssd, namespace, snapshot) -> generator``.
READS = {
    "get": lambda ssd, nsid, snap: ssd.get(nsid, 1),
    "get_from_snapshot": lambda ssd, nsid, snap: ssd.get_from_snapshot(snap, 1),
    "scan": lambda ssd, nsid, snap: ssd.scan(nsid, 0, 2),
    "list_keys": lambda ssd, nsid, snap: ssd.list_keys(nsid),
}


def three_drained_keys():
    """A sorted namespace holding three 1,000 B keys on flash, plus a
    snapshot of it."""
    env = Environment()
    ssd = KamlSsd(env, ReproConfig.small())
    nsid = run(env, ssd.create_namespace(NamespaceAttributes(index_structure="sorted")))

    def fill():
        for key in range(3):
            yield from ssd.put([PutItem(nsid, key, f"v{key}", 1000)])
        yield from ssd.drain()

    run(env, fill())
    snap = run(env, ssd.snapshot_namespace(nsid))
    return env, ssd, nsid, snap


@pytest.mark.parametrize("share", [0.005, 0.05, 0.2, 0.4, 0.6, 0.8, 0.99])
@pytest.mark.parametrize("command", sorted(READS))
def test_a_read_in_flight_at_a_power_cut_ends_cleanly(command, share):
    """A read still running when the power is cut (a ghost) must end in
    ``PowerLossError`` or in the answer it would have given, never in
    another exception, and must not stop recovery: the cut clears the
    tables the read was about to consult."""
    env, ssd, nsid, snap = three_drained_keys()
    started = env.now
    answer = run(env, READS[command](ssd, nsid, snap))
    cut_us = share * (env.now - started)

    env, ssd, nsid, snap = three_drained_keys()
    outcome = {}

    def join(read):
        try:
            outcome["value"] = yield read
        except Exception as exc:  # the assertion below names it
            outcome["error"] = exc

    env.process(join(env.process(READS[command](ssd, nsid, snap))))
    env.run(until=env.now + cut_us)
    ssd.power_loss()
    run(env, ssd.recover())
    env.run(until=env.now + 1_000.0)  # let the ghost finish

    if "error" in outcome:
        assert isinstance(outcome["error"], PowerLossError), outcome["error"]
    else:
        assert outcome["value"] == answer

    def read_back():
        values = []
        for key in range(3):
            values.append((yield from ssd.get(nsid, key)))
        return values

    assert run(env, read_back()) == ["v0", "v1", "v2"]


def one_staged_key(command):
    """A namespace holding one acked, still staged key; closed first when
    the command under test is ``open_namespace``."""
    env = Environment()
    ssd = KamlSsd(env, ReproConfig.small())
    nsid = run(env, ssd.create_namespace(NamespaceAttributes()))
    run(env, ssd.put([PutItem(nsid, 1, "v1", 1000)]))
    if command == "open_namespace":
        run(env, ssd.close_namespace(nsid))
    return env, ssd, nsid


@pytest.mark.parametrize("share", [0.001, 0.05, 0.3, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("command", ["close_namespace", "open_namespace", "snapshot_namespace"])
def test_a_namespace_command_in_flight_at_a_power_cut_changes_nothing(command, share):
    """A namespace command still waiting when the power is cut (a ghost)
    must end in ``PowerLossError`` and leave the recovered device as
    recovery built it: no snapshot, the index resident, the key readable."""
    env, ssd, nsid = one_staged_key(command)
    started = env.now
    run(env, getattr(ssd, command)(nsid))
    cut_us = share * (env.now - started)

    env, ssd, nsid = one_staged_key(command)
    outcome = {}

    def join(proc):
        try:
            outcome["value"] = yield proc
        except Exception as exc:  # the assertion below names it
            outcome["error"] = exc

    env.process(join(env.process(getattr(ssd, command)(nsid))))
    env.run(until=env.now + cut_us)
    ssd.power_loss()
    run(env, ssd.recover())
    env.run(until=env.now + 5_000.0)  # let the ghost finish

    assert isinstance(outcome.get("error"), PowerLossError), outcome
    assert ssd.snapshots == {}
    assert not ssd.dram.holds("snapshot:1:index")
    assert ssd.namespaces[nsid].resident
    assert run(env, ssd.get(nsid, 1)) == "v1"
