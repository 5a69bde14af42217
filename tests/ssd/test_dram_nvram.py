"""Unit tests for on-board DRAM accounting and the NVRAM staging buffer."""

import pytest

from repro.errors import InvariantError
from repro.sim import Environment
from repro.ssd import DramExhausted, NvramBuffer, NvramExhausted, OnboardDram


# -- DRAM ---------------------------------------------------------------------

def test_dram_allocate_and_free():
    dram = OnboardDram(1000)
    dram.allocate("index:0", 600)
    assert dram.used_bytes == 600
    assert dram.free_bytes == 400
    assert dram.holds("index:0")
    assert dram.free("index:0") == 600
    assert dram.used_bytes == 0


def test_dram_exhaustion():
    dram = OnboardDram(1000)
    dram.allocate("a", 800)
    with pytest.raises(DramExhausted):
        dram.allocate("b", 300)


def test_dram_duplicate_tag_rejected():
    dram = OnboardDram(1000)
    dram.allocate("a", 10)
    with pytest.raises(ValueError):
        dram.allocate("a", 10)


def test_dram_free_unknown_tag():
    dram = OnboardDram(100)
    with pytest.raises(KeyError):
        dram.free("missing")


def test_dram_invalid_capacity():
    with pytest.raises(ValueError):
        OnboardDram(0)


def test_dram_negative_allocation():
    dram = OnboardDram(100)
    with pytest.raises(ValueError):
        dram.allocate("a", -5)


# -- NVRAM ---------------------------------------------------------------------

def test_nvram_immediate_reservation():
    env = Environment()
    nvram = NvramBuffer(env, 1000)
    event = nvram.reserve(400, payload="batch-1")
    assert event.triggered
    handle = event.value
    assert nvram.used_bytes == 400
    assert nvram.payload(handle) == "batch-1"
    nvram.release(handle)
    assert nvram.used_bytes == 0


def test_nvram_blocks_until_space_drains():
    env = Environment()
    nvram = NvramBuffer(env, 1000)
    grant_times = []

    def filler(env):
        handle = (yield nvram.reserve(900)) if True else None
        yield env.timeout(50.0)
        nvram.release(handle)

    def waiter(env):
        yield env.timeout(1.0)
        handle = yield nvram.reserve(500, payload="queued")
        grant_times.append(env.now)
        assert nvram.payload(handle) == "queued"
        nvram.release(handle)

    env.process(filler(env))
    env.process(waiter(env))
    env.run()
    assert grant_times == [50.0]


def test_nvram_fifo_no_starvation():
    """A small reservation queued behind a large one must not jump ahead."""
    env = Environment()
    nvram = NvramBuffer(env, 1000)
    order = []

    def filler(env):
        handle = yield nvram.reserve(800)
        yield env.timeout(10.0)
        nvram.release(handle)

    def big(env):
        yield env.timeout(1.0)
        handle = yield nvram.reserve(700)
        order.append("big")
        nvram.release(handle)

    def small(env):
        yield env.timeout(2.0)
        handle = yield nvram.reserve(100)
        order.append("small")
        nvram.release(handle)

    env.process(filler(env))
    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == ["big", "small"]


def test_nvram_oversized_reservation_rejected():
    env = Environment()
    nvram = NvramBuffer(env, 100)
    with pytest.raises(NvramExhausted):
        nvram.reserve(200)


def test_nvram_live_payloads_for_recovery():
    env = Environment()
    nvram = NvramBuffer(env, 1000)
    h1 = nvram.reserve(100, payload="first").value
    h2 = nvram.reserve(100, payload="second").value
    staged = [payload for _, payload in nvram.live_payloads()]
    assert staged == ["first", "second"]
    nvram.release(h1)
    staged = [payload for _, payload in nvram.live_payloads()]
    assert staged == ["second"]
    nvram.release(h2)
    assert len(nvram) == 0


def test_nvram_release_unknown_handle():
    env = Environment()
    nvram = NvramBuffer(env, 100)
    with pytest.raises(KeyError):
        nvram.release(99)


def test_nvram_double_release_rejected():
    """Releasing a granted handle twice is an invariant violation: two
    paths both believe they own the batch's NVRAM lifetime, and the
    second free would corrupt the accounting of whoever reused the
    bytes.  (A never-granted handle stays a plain KeyError.)"""
    env = Environment()
    nvram = NvramBuffer(env, 1000)
    handle = nvram.reserve(300, payload="batch").value
    nvram.release(handle)
    with pytest.raises(InvariantError) as excinfo:
        nvram.release(handle)
    assert "SAN-NVRAM" in str(excinfo.value)
    # The failed double release must not have touched the accounting.
    assert nvram.used_bytes == 0
