"""Microbenchmark driver tests: both stacks run and report sane numbers."""

from repro.blockdev import NvmeBlockDevice
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes
from repro.sim import Environment
from repro.workloads import (
    block_fetch,
    block_update,
    kaml_fetch,
    kaml_insert,
    kaml_update,
)
from repro.workloads.micro import kaml_populate
from repro.workloads.oltp import drive


def make_kaml(keys=200, value_size=512):
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    ssd = KamlSsd(env, config)

    def create():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=keys * 2))
        return nsid

    nsid = drive(env, create())
    kaml_populate(env, ssd, nsid, keys, value_size)
    return env, ssd, nsid


def make_block():
    env = Environment()
    device = NvmeBlockDevice(env, ReproConfig.small())
    device.precondition()
    return env, device


def test_kaml_fetch_reports_throughput():
    env, ssd, nsid = make_kaml()
    result = kaml_fetch(env, ssd, nsid, 200, 512, threads=4, ops_per_thread=10)
    assert result.ops == 40
    assert result.throughput_mb_s > 0
    assert result.mean_latency_us > 0
    assert len(result.latencies_us) == 40


def test_kaml_update_and_batching():
    env, ssd, nsid = make_kaml()
    single = kaml_update(env, ssd, nsid, 200, 512, threads=2, ops_per_thread=8, batch=1)
    assert single.ops == 16
    env2, ssd2, nsid2 = make_kaml()
    batched = kaml_update(env2, ssd2, nsid2, 200, 512, threads=2, ops_per_thread=8, batch=4)
    assert batched.ops == 64
    # Batched records amortise per-command overhead (Figure 7).
    assert batched.ops_per_second > single.ops_per_second


def test_kaml_insert_creates_new_keys():
    env, ssd, nsid = make_kaml()
    result = kaml_insert(env, ssd, nsid, 512, threads=2, ops_per_thread=5)
    assert result.ops == 10
    assert ssd.metrics.total("kaml.ssd.put_records") >= 10


def test_block_fetch_runs():
    env, device = make_block()
    result = block_fetch(env, device, 512, threads=4, ops_per_thread=10)
    assert result.ops == 40
    assert result.throughput_mb_s > 0


def test_block_update_small_pays_rmw():
    env, device = make_block()
    result = block_update(env, device, 512, threads=2, ops_per_thread=10)
    assert device.ftl.metrics.total("ftl.rmw_reads") >= result.ops  # every sub-page write reads


def test_block_update_full_page_no_rmw():
    env, device = make_block()
    before = device.ftl.metrics.total("ftl.rmw_reads")
    block_update(env, device, 4096, threads=2, ops_per_thread=10)
    assert device.ftl.metrics.total("ftl.rmw_reads") == before


def test_put_vs_write_update_shape():
    """Figure 5b's direction: small-record Put bandwidth beats write.

    The full factor (paper: 6.7-7.9x) is asserted by the fig5 benchmark
    on the full-size geometry; this test uses the tiny test geometry.
    """
    env, ssd, nsid = make_kaml()
    put = kaml_update(env, ssd, nsid, 200, 512, threads=4, ops_per_thread=10)
    env2, device = make_block()
    write = block_update(env2, device, 512, threads=4, ops_per_thread=10)
    assert put.throughput_mb_s > 1.5 * write.throughput_mb_s


def test_get_vs_read_latency_similar():
    """Figure 6a: Get and read latency are comparable (single thread)."""
    env, ssd, nsid = make_kaml()
    get = kaml_fetch(env, ssd, nsid, 200, 512, threads=1, ops_per_thread=20)
    env2, device = make_block()
    read = block_fetch(env2, device, 512, threads=1, ops_per_thread=20)
    ratio = get.mean_latency_us / read.mean_latency_us
    assert 0.6 < ratio < 1.4
