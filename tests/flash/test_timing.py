"""Timing behaviour of chips, channels, and the array."""

import pytest

from repro.config import FlashGeometry, FlashTimings
from repro.flash import FlashArray, PagePointer
from repro.sim import Environment


TIMINGS = FlashTimings(
    read_us=70.0, program_us=700.0, erase_us=3000.0,
    bus_bytes_per_us=400.0, bus_command_us=1.0,
)


@pytest.fixture
def setup():
    env = Environment()
    geometry = FlashGeometry.small()
    array = FlashArray(env, geometry, TIMINGS)
    return env, geometry, array


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_program_then_read_roundtrip(setup):
    env, geometry, array = setup
    pointer = PagePointer(0, 0, 0, 0)

    def flow():
        yield from array.program_page(pointer, data={"k": 1}, oob=0xFF)
        result = yield from array.read_page(pointer)
        return result

    data, oob = run(env, flow())
    assert data == {"k": 1}
    assert oob == 0xFF


def test_read_latency_is_cell_plus_transfer(setup):
    env, geometry, array = setup
    pointer = PagePointer(0, 0, 0, 0)

    def flow():
        yield from array.program_page(pointer, "x")
        start = env.now
        yield from array.read_page(pointer)
        return env.now - start

    latency = run(env, flow())
    expected = TIMINGS.read_us + 1.0 + geometry.page_size / TIMINGS.bus_bytes_per_us
    assert latency == pytest.approx(expected)


def test_program_latency_is_transfer_plus_program(setup):
    env, geometry, array = setup
    pointer = PagePointer(0, 0, 0, 0)

    def flow():
        start = env.now
        yield from array.program_page(pointer, "x")
        return env.now - start

    latency = run(env, flow())
    expected = 1.0 + geometry.page_size / TIMINGS.bus_bytes_per_us + TIMINGS.program_us
    assert latency == pytest.approx(expected)


def test_partial_read_transfer_is_cheaper(setup):
    env, geometry, array = setup
    pointer = PagePointer(0, 0, 0, 0)

    def flow():
        yield from array.program_page(pointer, "x")
        start = env.now
        yield from array.read_page(pointer, transfer_bytes=512)
        return env.now - start

    latency = run(env, flow())
    expected = TIMINGS.read_us + 1.0 + 512 / TIMINGS.bus_bytes_per_us
    assert latency == pytest.approx(expected)


def test_programs_on_different_channels_fully_parallel(setup):
    env, geometry, array = setup

    def program(channel):
        yield from array.program_page(PagePointer(channel, 0, 0, 0), "x")
        return env.now

    p0 = env.process(program(0))
    p1 = env.process(program(1))
    env.run()
    assert p0.value == pytest.approx(p1.value)


def test_programs_same_channel_interleave_on_bus(setup):
    """Two chips in one channel: transfers serialize, programs overlap."""
    env, geometry, array = setup
    transfer = 1.0 + geometry.page_size / TIMINGS.bus_bytes_per_us

    def program(chip):
        yield from array.program_page(PagePointer(0, chip, 0, 0), "x")
        return env.now

    p0 = env.process(program(0))
    p1 = env.process(program(1))
    env.run()
    first, second = sorted([p0.value, p1.value])
    assert first == pytest.approx(transfer + TIMINGS.program_us)
    # The second transfer waits for the first, then both program in parallel.
    assert second == pytest.approx(2 * transfer + TIMINGS.program_us)


def test_same_chip_programs_serialize_on_engine(setup):
    """Same chip: the second transfer overlaps the first program (cache-
    program style), but the cell programs themselves serialize."""
    env, geometry, array = setup

    def program(page):
        yield from array.program_page(PagePointer(0, 0, 0, page), "x")
        return env.now

    p0 = env.process(program(0))
    p1 = env.process(program(1))
    env.run()
    transfer = 1.0 + geometry.page_size / TIMINGS.bus_bytes_per_us
    first, second = sorted([p0.value, p1.value])
    assert first == pytest.approx(transfer + TIMINGS.program_us)
    assert second == pytest.approx(transfer + 2 * TIMINGS.program_us)


def test_erase_latency(setup):
    env, geometry, array = setup

    def flow():
        start = env.now
        yield from array.erase_block(PagePointer(0, 0, 0, 0))
        return env.now - start

    assert run(env, flow()) == pytest.approx(TIMINGS.erase_us)


def test_stats_counters(setup):
    env, geometry, array = setup

    def flow():
        yield from array.program_page(PagePointer(0, 0, 0, 0), "x")
        yield from array.read_page(PagePointer(0, 0, 0, 0))
        yield from array.erase_block(PagePointer(0, 1, 0, 0))

    run(env, flow())
    assert array.total_programs() == 1
    assert array.total_reads() == 1
    assert array.total_erases() == 1


def test_erase_count_spread(setup):
    env, geometry, array = setup

    def flow():
        yield from array.erase_block(PagePointer(0, 0, 0, 0))
        yield from array.erase_block(PagePointer(0, 0, 0, 0))

    run(env, flow())
    low, high = array.erase_count_spread()
    assert low == 0
    assert high == 2
