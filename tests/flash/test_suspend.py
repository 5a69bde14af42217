"""Read-priority dies: program/erase suspension and the bounded head start.

One-die timelines with exact instants.  Every scenario drives a bare
:class:`FlashChip` (no bus) from processes that start at chosen instants;
``Spans`` stands in for a trace context and notes each ``nand.*`` interval.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlashGeometry, FlashTimings
from repro.flash.chip import FlashChip
from repro.sim import Environment

T = FlashTimings()  # 70 / 700 / 3000, suspend 20, resume 20
SLOW = FlashTimings(suspend_us=100.0, resume_us=100.0)


class Spans:
    def __init__(self, env):
        self.env = env
        self.rows = []

    def record_span(self, name, start_us, end_us=None, parent=None, **tags):
        end_us = self.env.now if end_us is None else end_us
        self.rows.append((name, start_us, end_us, tags))

    def of(self, name):
        return [(start, end) for n, start, end, _tags in self.rows if n == name]

    def tags(self, name):
        return [tags for n, _s, _e, tags in self.rows if n == name]


class Die:
    """One chip, block 1 page 0 readable, commands launched at instants."""

    def __init__(self, timings=T):
        self.env = Environment()
        self.chip = FlashChip(self.env, FlashGeometry.small(), timings)
        self.chip.block(1).program(0, "stored", 1)
        self.spans = Spans(self.env)
        self.done = {}
        self._next_page = 0

    def at(self, when, tag, command):
        def proc():
            yield self.env.timeout(when)
            yield from command()
            self.done[tag] = self.env.now
        self.env.process(proc())

    def host_read(self, when, tag):
        self.at(when, tag, lambda: self.chip.read_cells(
            1, 0, ctx=self.spans, priority=True))

    def background_read(self, when, tag):
        self.at(when, tag, lambda: self.chip.read_cells(1, 0, ctx=self.spans))

    def program(self, when, tag):
        def command():  # block 0 fills in arrival order
            page, self._next_page = self._next_page, self._next_page + 1
            return self.chip.program_cells(0, page, "x", 1, ctx=self.spans)
        self.at(when, tag, command)

    def erase(self, when, tag, block=2):
        self.at(when, tag, lambda: self.chip.erase(block, ctx=self.spans))

    def run(self):
        self.env.run()
        return self.done


def test_host_read_suspends_a_program():
    die = Die()
    die.program(0, "program")
    die.host_read(100, "read")
    done = die.run()
    assert die.spans.of("nand.read") == [(120.0, 190.0)]  # t + suspend_us
    assert die.spans.of("nand.wait") == [(100.0, 120.0)]
    assert done["read"] == 190.0
    assert done["program"] == 700.0 + 20.0 + 70.0 + 20.0
    assert die.spans.tags("nand.program")[0]["away_us"] == 110.0
    stats = die.chip.stats
    assert (stats.suspensions, stats.suspended_reads, stats.away_us) == (1, 1, 110.0)
    assert (stats.reads, stats.programs) == (1, 1)
    assert stats.busy_us == 810.0  # the pulse's elapsed time covers the read


def test_second_read_in_the_away_window_pays_no_second_suspend():
    die = Die()
    die.program(0, "program")
    die.host_read(100, "first")
    die.host_read(150, "second")  # the die is sensing for `first` until 190
    die.host_read(155, "third")
    done = die.run()
    assert die.spans.of("nand.read") == [(120.0, 190.0), (190.0, 260.0), (260.0, 330.0)]
    # One suspend, three senses, one resume after the last.
    assert done["program"] == 700.0 + 20.0 + 3 * 70.0 + 20.0
    assert die.chip.stats.suspensions == 1
    assert die.chip.stats.suspended_reads == 3


@pytest.mark.parametrize("timings", [T, SLOW], ids=["20us", "100us"])
def test_read_in_the_resume_window_starts_now_not_in_the_past(timings):
    suspend, resume = timings.suspend_us, timings.resume_us
    die = Die(timings)
    die.program(0, "program")
    die.host_read(100, "first")
    sense_end = 100 + suspend + 70
    arrival = sense_end + resume / 2  # the die is half way back to the pulse
    die.host_read(arrival, "late")
    done = die.run()
    assert die.spans.of("nand.read") == [
        (100 + suspend, sense_end), (arrival, arrival + 70),
    ]
    assert done["late"] == arrival + 70
    # The die was away from 100 until the second resume completes.
    assert done["program"] == 700 + (arrival + 70 + resume - 100)
    assert die.chip.stats.suspensions == 1


def test_own_length_cap_refuses_and_the_refused_read_queues():
    """Nine reads of 70 µs fit in a program's 700 µs of slack beside the
    suspend and resume; the tenth would postpone it by 740 and is refused:
    it waits out the program on the engine like today."""
    die = Die()
    die.program(0, "program")
    for i in range(9):
        die.host_read(100 + i, f"read{i}")
    die.program(101, "next program")  # queued before most of the reads
    done = die.run()
    accepted = [(120.0 + 70 * i, 190.0 + 70 * i) for i in range(9)]
    program_end = 700.0 + 20.0 + 9 * 70.0 + 20.0
    assert program_end <= 1400.0
    assert die.spans.of("nand.read")[:9] == accepted
    assert done["program"] == program_end

    die = Die()
    die.program(0, "program")
    for i in range(10):
        die.host_read(100 + i, f"read{i}")
    die.program(101, "next program")
    done = die.run()
    # 20 + 10 * 70 + 20 > 700: the tenth is refused and queues ...
    assert done["program"] == 700.0 + 20.0 + 9 * 70.0 + 20.0
    assert die.chip.stats.suspended_reads == 9
    # ... with its head start, so it runs before the program that queued
    # at 101, which it does not suspend (it held the engine itself).
    assert done["read9"] == done["program"] + 70.0
    assert done["next program"] == done["read9"] + 700.0
    assert die.spans.of("nand.wait")[-2] == (109.0, done["program"])


def test_background_read_never_suspends():
    die = Die()
    die.program(0, "program")
    die.background_read(100, "gc read")
    done = die.run()
    assert done["program"] == 700.0
    assert done["gc read"] == 770.0
    assert die.chip.stats.suspensions == 0
    assert die.spans.tags("nand.program")[0]["away_us"] == 0.0


def test_host_read_suspends_an_erase():
    die = Die()
    die.erase(0, "erase")
    die.host_read(1000, "read")
    die.host_read(2000, "again")  # a second, separate suspension
    done = die.run()
    assert done["read"] == 1090.0
    assert done["again"] == 2090.0
    assert done["erase"] == 3000.0 + 2 * 110.0
    assert die.chip.block(2).erase_count == 1
    assert die.chip.stats.suspensions == 2
    assert die.spans.tags("nand.erase")[0]["away_us"] == 220.0


def test_erase_cap_is_its_own_length():
    die = Die()
    die.erase(0, "erase")
    for i in range(60):  # each alone: 110 µs away; 27 fit in 3,000 µs
        die.host_read(10 + 120 * i, f"read{i}")
    done = die.run()
    assert done["erase"] <= 6000.0
    assert die.chip.stats.away_us <= 3000.0
    assert die.chip.stats.suspended_reads == 27


def test_registry_counters_are_labelled_by_pulse_kind():
    from repro.obs import MetricsRegistry

    die = Die()
    registry = MetricsRegistry()
    die.chip.attach_metrics(registry)
    die.program(0, "program")
    die.host_read(100, "a")
    die.host_read(110, "b")
    die.erase(900, "erase")
    die.host_read(2000, "c")
    die.run()
    assert registry.value("flash.suspensions", kind="program") == 1
    assert registry.value("flash.suspensions", kind="erase") == 1
    assert registry.value("flash.suspended_reads") == 3


# -- the die queue: a bounded head start ---------------------------------


def test_queued_host_read_outranks_a_program_that_queued_first():
    """A Get stuck behind another read must not also sit out a program
    that merely queued before it."""
    die = Die()
    die.background_read(0, "scan")       # holds the engine 0..70
    die.program(10, "program")           # queues at 10
    die.host_read(20, "get")             # queues at 20, key 20 - 700
    done = die.run()
    assert done["get"] == 140.0
    assert done["program"] == 140.0 + 700.0


def test_head_start_is_bounded_by_one_program_time():
    die = Die()
    die.erase(0, "erase")
    die.program(100, "old program")
    for i in range(43):                  # 20 + 42 * 70 + 20 uses up the erase's
        die.host_read(110 + i, f"filler{i}")  # slack; the 43rd has to queue
    die.program(5000, "young program")   # queues 500 µs before the get
    die.host_read(5500, "get")           # refused as well (20 µs of slack left)
    done = die.run()
    assert die.chip.stats.suspended_reads == 42
    assert done["erase"] == 3000.0 + 20.0 + 42 * 70.0 + 20.0
    # filler42 (key 152 - 700) goes first, then the old program (key 100:
    # it queued 5,400 µs before the get); the get (key 4,800) overtakes the
    # young program (key 5,000) -- and does not suspend the old one, because
    # it was already waiting when that pulse began.
    assert done["filler42"] == done["erase"] + 70.0
    assert done["old program"] == done["filler42"] + 700.0
    assert done["get"] == done["old program"] + 70.0
    assert done["young program"] == done["get"] + 700.0


def test_saturating_readers_cannot_starve_a_program():
    """Four zero-think-time host readers keep the die 100 % busy.  A
    program that queues at 800 is overtaken only by reads that arrived
    before 1,500, so it is granted at 1,750 and done at 2,450 -- strict
    read priority would hold it until the readers stop at 20,000."""
    die = Die()

    def reader():
        while die.env.now < 20_000:
            yield from die.chip.read_cells(1, 0, priority=True)

    for _ in range(4):
        die.env.process(reader())
    die.program(800, "program")
    done = die.run()
    assert done["program"] == 2450.0
    assert die.chip.stats.busy_us <= die.env.now


# -- property: any mix of arrivals on one die -------------------------------

ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from(["host", "host", "host", "background", "program", "erase"]),
        st.integers(0, 6000),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ARRIVALS, st.sampled_from([T, SLOW]))
def test_any_arrival_pattern_keeps_the_die_consistent(arrivals, timings):
    die = Die(timings)
    erases = programs = 0
    for i, (kind, when) in enumerate(arrivals):
        if kind == "host":
            die.host_read(when, i)
        elif kind == "background":
            die.background_read(when, i)
        elif kind == "program" and programs < 8:  # block 0 has eight pages
            die.program(when, i)
            programs += 1
        elif kind == "erase":
            die.erase(when, i, block=2 + erases % 6)
            erases += 1
    done = die.run()
    stats = die.chip.stats
    senses = sorted(die.spans.of("nand.read"))
    # No two senses overlap, and every sense takes t_R.
    for (start, end), (next_start, _next_end) in zip(senses, senses[1:]):
        assert end <= next_start + 1e-9
    assert all(end - start == pytest.approx(70.0) for start, end in senses)
    # Every pulse ends at start + length + the away time charged to it,
    # which never exceeds its length; pulses never overlap each other.
    pulses = []
    for name, length in (("nand.program", 700.0), ("nand.erase", 3000.0)):
        for (start, end), tags in zip(die.spans.of(name), die.spans.tags(name)):
            assert end == pytest.approx(start + length + tags["away_us"])
            assert 0.0 <= tags["away_us"] <= length + 1e-9
            pulses.append((start, end, tags["away_us"]))
    pulses.sort()
    for (_s, end, _a), (next_start, _e, _na) in zip(pulses, pulses[1:]):
        assert end <= next_start + 1e-9
    # A sense inside a pulse's interval is a suspended read; outside any
    # pulse it held the engine itself.
    inside = sum(
        any(p_start < start and end <= p_end + 1e-9 for p_start, p_end, _a in pulses)
        for start, end in senses
    )
    assert inside == stats.suspended_reads
    assert len(senses) == stats.reads == sum(
        1 for kind, _w in arrivals if kind in ("host", "background")
    )
    # Die work is conserved: occupied time is pulses + away + plain reads,
    # counted once, and never more than the time that passed.
    away = sum(a for _s, _e, a in pulses)
    assert stats.away_us == pytest.approx(away)
    assert stats.busy_us == pytest.approx(
        700.0 * stats.programs + 3000.0 * stats.erases + away
        + 70.0 * (stats.reads - stats.suspended_reads)
    )
    assert stats.busy_us <= die.env.now + 1e-9
    assert len(done) == len(die.spans.of("nand.read")) + len(pulses)
