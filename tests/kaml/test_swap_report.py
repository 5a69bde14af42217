"""Namespace index swapping (Section IV-C) and the utilization report."""

import pytest

from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.kaml.namespace import NamespaceError
from repro.sim import Environment


def make_ssd():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def test_close_namespace_frees_dram():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=2000))
        used_before = ssd.dram.used_bytes
        yield from ssd.close_namespace(nsid)
        return nsid, used_before

    nsid, used_before = run(env, flow())
    assert used_before > 0
    assert ssd.dram.used_bytes == 0
    assert not ssd.namespaces[nsid].resident


def test_closed_namespace_rejects_io():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "x", 64)])
        yield from ssd.drain()
        yield from ssd.close_namespace(nsid)
        yield from ssd.get(nsid, 1)

    with pytest.raises(NamespaceError):
        run(env, flow())


def test_reopen_restores_service():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "persists", 64)])
        yield from ssd.drain()
        yield from ssd.close_namespace(nsid)
        yield from ssd.open_namespace(nsid)
        value = yield from ssd.get(nsid, 1)
        return value

    assert run(env, flow()) == "persists"
    assert ssd.dram.used_bytes > 0


def test_swap_charges_flash_streaming_time():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=5000))
        start = env.now
        yield from ssd.close_namespace(nsid)
        close_time = env.now - start
        start = env.now
        yield from ssd.open_namespace(nsid)
        open_time = env.now - start
        return close_time, open_time

    close_time, open_time = run(env, flow())
    assert close_time > 0
    assert open_time > 0


def test_close_idempotent():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.close_namespace(nsid)
        yield from ssd.close_namespace(nsid)  # no-op
        yield from ssd.open_namespace(nsid)
        yield from ssd.open_namespace(nsid)   # no-op
        return True

    assert run(env, flow())


def test_utilization_report_fields():
    env, ssd = make_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, k, "v", 512) for k in range(8)])
        yield from ssd.drain()
        return ssd.utilization_report()

    report = run(env, flow())
    assert report["namespaces"] == 1
    assert report["dram_used_bytes"] > 0
    assert report["valid_bytes"] > 0
    assert report["flash_programs"] >= 1
    assert report["staged_records"] == 0
    assert report["free_blocks"] > 0
    assert report["erase_count_max"] >= report["erase_count_min"]
    # No host read met a program: nothing was suspended.
    assert report["flash_suspensions"] == report["flash_suspended_reads"] == 0
    assert report["flash_away_us"] == 0.0
