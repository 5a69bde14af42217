"""Direct unit tests for KamlLog: staging, flushing, timers, wear."""

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.flash import FlashArray, PagePointer
from repro.flash.block import BlockState
from repro.kaml.log import KamlLog, LogSpaceError
from repro.kaml.record import Record, RecordLocation, decode_bitmap, encode_bitmap
from repro.sim import Environment


class FakeHooks:
    """Minimal index stand-in: a key is valid only at its registered
    current location (mirroring what KamlSsd's mapping tables provide)."""

    def __init__(self):
        self.valid = {}          # block_key -> bytes
        self.locations = {}      # key -> current RecordLocation
        self.relocations = []
        #: The live processes the log spawns (``Mapping.processes``).
        self.processes = {}

    def register(self, key, location):
        """Mark a key's freshly written record as its current copy."""
        old = self.locations.get(key)
        if old is not None:
            self.valid[old.block_key] -= old.nchunks * 128
        self.locations[key] = location
        block_key = location.block_key
        self.valid[block_key] = self.valid.get(block_key, 0) + location.nchunks * 128

    def invalidate(self, key):
        old = self.locations.pop(key, None)
        if old is not None:
            self.valid[old.block_key] -= old.nchunks * 128

    def valid_bytes(self, block_key):
        return self.valid.get(block_key, 0)

    def page_live(self, pointer):
        return any(location.page == pointer for location in self.locations.values())

    def is_valid(self, record, location):
        return self.locations.get(record.key) == location

    def relocate(self, record, old, new):
        if self.locations.get(record.key) != old:
            return False
        self.relocations.append((record.key, old, new))
        self.register(record.key, new)
        return True

    def block_doomed(self, block_key):
        pass  # these tests never install during a clean

    def block_erased(self, block_key):
        self.valid.pop(block_key, None)

    def wait_unpinned(self, block_key):
        yield from ()  # never pinned in these tests


def make_log(blocks=8, pages=4, endurance=3000, flush_timeout=500.0):
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=blocks,
        pages_per_block=pages, erase_endurance=endurance,
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=1, flush_timeout_us=flush_timeout),
    )
    array = FlashArray(env, geometry, config.flash)
    hooks = FakeHooks()
    log = KamlLog(env, config, array, log_id=0, channel=0, chip=0, hooks=hooks)
    return env, log, hooks, array


def record(key, size=1000):
    return Record(namespace_id=1, key=key, value=("r", key), size=size)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


class CutPower(Exception):
    """What the fault injector raises at a crash point."""


def cut_power(log, hooks):
    """A power cut as the device makes one: reset the log, then end the
    processes it spawned (the one announcing the cut raises out itself)."""
    log.power_loss()
    for process in list(hooks.processes):
        process.kill(CutPower("power cut"))


def stage(log, rec, for_gc=False):
    """Stage one record the way the device does: its chunks counted once."""
    return log.stage(rec, rec.chunks(log.geometry.chunk_size), for_gc)


def append(log, rec):
    """Stage one host record and wait for its page; returns its location."""
    programmed, start = stage(log, rec)
    return RecordLocation((yield programmed), start, rec.chunks(log.geometry.chunk_size))




def test_append_returns_location_after_program():
    env, log, hooks, array = make_log()

    def flow():
        location = yield from append(log, record(1, size=7000))  # ~55 chunks
        return location

    location = run(env, flow())
    assert isinstance(location, RecordLocation)
    assert location.chunk == 0
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) >= 1
    data, bitmap = array.block_at(location.page).read(location.page.page)
    assert data[0].key == 1
    assert decode_bitmap(bitmap)[0] == (0, location.nchunks)


def test_records_pack_into_one_page():
    env, log, hooks, array = make_log()

    def flow():
        stages = [stage(log, record(k, size=1000), for_gc=False) for k in range(4)]
        log.force_flush()
        locations = []
        for event, start in stages:
            locations.append(RecordLocation((yield event), start, 8))
        return locations

    locations = run(env, flow())
    pages = {loc.page for loc in locations}
    assert len(pages) == 1  # 4 x 8-chunk records share one 64-chunk page
    chunks = [loc.chunk for loc in locations]
    assert chunks == sorted(chunks)
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1


def test_records_that_share_a_page_share_one_completion():
    env, log, hooks, array = make_log(flush_timeout=10_000_000.0)
    # 1,000 B records are 8 of a page's 64 chunks: eight fill one page and
    # launch its program, the ninth opens the next page.
    stages = [stage(log, record(k, size=1000), for_gc=False) for k in range(9)]
    events = [event for event, _start in stages]
    assert all(event is events[0] for event in events[:8])
    assert events[8] is not events[0]
    assert [start for _event, start in stages] == [8 * k for k in range(8)] + [0]
    log.force_flush()
    env.run()
    first, second = events[0].value, events[8].value
    assert (first.block, first.page) == (second.block, second.page - 1)
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 2


def test_full_page_flushes_without_timer():
    env, log, hooks, array = make_log(flush_timeout=10_000_000.0)

    def flow():
        # 8 records x 8 chunks each = 64 chunks: exactly one page.
        stages = [stage(log, record(k, size=1000), for_gc=False) for k in range(8)]
        for event, _start in stages:
            yield event
        return env.now

    finished = run(env, flow())
    assert finished < 10_000_000.0  # programmed by page-full, not timer
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1


def test_timer_flushes_partial_page():
    env, log, hooks, array = make_log(flush_timeout=500.0)

    def flow():
        location = yield from append(log, record(1, size=100))
        return env.now, location

    finished, _location = run(env, flow())
    assert finished >= 500.0  # waited for the timer
    assert log.metrics.total("kaml.log.wasted_chunks", log=log.log_id) > 0


def flush_launches(log):
    """Spy on the log: sim times at which an open host page was launched."""
    launches = []
    launch = log._launch_flush

    def spy(for_gc):
        if not for_gc and log._points[False].assembly.records:
            launches.append(log.env.now)
        launch(for_gc)

    log._launch_flush = spy
    return launches


def stage_at(env, log, when, key, size):
    env.run(until=when)
    stage(log, record(key, size=size), for_gc=False)


def test_lone_append_and_same_instant_batch_flush_at_exactly_one_timeout():
    for batch in (1, 3):
        env, log, hooks, array = make_log(flush_timeout=500.0)
        launches = flush_launches(log)
        env.run(until=123.0)
        for key in range(batch):
            stage(log, record(key, size=100), for_gc=False)
        env.run()
        assert launches == [623.0]
        assert log.metrics.total("kaml.log.timer_flushes", log=log.log_id) == 1


def test_timer_measures_quiescence_not_age():
    env, log, hooks, array = make_log(flush_timeout=500.0)
    launches = flush_launches(log)
    for key, when in enumerate((0.0, 400.0, 800.0, 1200.0)):
        stage_at(env, log, when, key, size=100)  # one chunk each
        assert log.open_room() == 64 - (key + 1)
    env.run()
    # Fed every 400 us, the page outlives three age deadlines and is padded
    # one timeout after its *last* append.
    assert launches == [1700.0]
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1
    assert log.metrics.total("kaml.log.wasted_chunks", log=log.log_id) == 60
    assert log.open_room() == 0


def test_fed_page_is_held_until_full_and_no_longer():
    timeout = 500.0
    env, log, hooks, array = make_log(flush_timeout=timeout)
    launches = flush_launches(log)
    per_page = 8  # 1,000 B records are 8 of a page's 64 chunks
    for key in range(per_page):
        stage_at(env, log, key * 0.95 * timeout, key, size=1000)
    env.run()
    assert launches == [(per_page - 1) * 0.95 * timeout]  # full: no padding
    assert launches[0] <= (per_page - 1) * timeout
    assert log.metrics.total("kaml.log.timer_flushes", log=log.log_id) == 0
    assert log.metrics.total("kaml.log.wasted_chunks", log=log.log_id) == 0


def test_timer_events_do_not_scale_with_appends():
    timeout, gap, appends = 500.0, 100.0, 50
    env, log, hooks, array = make_log(flush_timeout=timeout)
    before = env.events_processed
    for key in range(appends):
        stage_at(env, log, key * gap, key, size=100)
    window = appends * gap
    env.run(until=window)
    assert log.open_room() == 64 - appends  # still the one open page
    # Nothing else is scheduled, so every event is the log's timer: one
    # firing per (timeout - gap) at worst — an append never defuses or
    # re-arms it.
    assert env.events_processed - before <= window / (timeout - gap) + 1


def pending_timers(env, log):
    """Live heap entries that would run the log's flush timer."""
    return [
        event for _when, _priority, _eid, event in env._queue
        if log._timer_fired in (event.callbacks or ())
    ]


def test_page_after_a_full_page_goes_quiet_one_timeout_after_its_last_append():
    env, log, hooks, array = make_log(flush_timeout=500.0)
    launches = flush_launches(log)
    for key in range(8):  # 1,000 B records: eight fill page A, which launches full
        stage_at(env, log, 0.0, key, size=1000)
    stage_at(env, log, 100.0, 8, size=1000)  # page B, under the timer page A armed
    stage_at(env, log, 300.0, 9, size=1000)
    env.run()
    # The timer fires at 500 (armed by page A), finds B fed since and
    # re-arms: B launches at 300 + 500, as its own timer would have.
    assert launches == [0.0, 800.0]
    assert log.metrics.total("kaml.log.timer_flushes", log=log.log_id) == 1


def test_one_host_timer_per_log_is_handed_from_a_full_page_to_the_next():
    env, log, hooks, array = make_log(flush_timeout=500.0)
    stage(log, record(0, size=1000))
    timer = log._timer
    assert pending_timers(env, log) == [timer]
    for key in range(1, 9):  # page A fills and launches; key 8 opens page B
        stage(log, record(key, size=1000))
        assert pending_timers(env, log) == [timer]
    assert log._timer is timer and log.open_room() == 56
    for when in (200.0, 400.0, 600.0, 800.0):
        stage_at(env, log, when, 100 + int(when), size=100)
        assert len(pending_timers(env, log)) == 1
    env.run()
    assert log._timer is None and pending_timers(env, log) == []
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 2


def test_gc_clean_arms_no_timer():
    env, log, hooks, array = make_log(blocks=8, pages=4, flush_timeout=5000.0)
    locations = run(env, fill_block(log, range(4)))
    assert log._timer is None  # the last host page went quiet and launched
    hooks.register(0, locations[0])
    started = env.now
    run(env, log._clean_block(locations[0].page.block))
    assert [key for key, _old, _new in hooks.relocations] == [0]
    assert log._timer is None and pending_timers(env, log) == []
    assert env.now - started < 5000.0  # launched by the clean, not by a timer


def test_power_loss_leaves_no_timer_in_the_heap():
    env, log, hooks, array = make_log(flush_timeout=500.0)
    launches = flush_launches(log)
    stage_at(env, log, 10.0, 1, size=100)
    assert len(pending_timers(env, log)) == 1
    log.power_loss()
    assert log._timer is None and pending_timers(env, log) == []
    env.run()
    assert launches == []
    assert log.metrics.total("kaml.log.timer_flushes", log=log.log_id) == 0


def test_oversized_tail_starts_new_page():
    env, log, hooks, array = make_log()

    def flow():
        # 60 chunks, then a 10-chunk record that cannot fit the tail.
        first, first_start = stage(log, record(1, size=7600), for_gc=False)
        second, second_start = stage(log, record(2, size=1200), for_gc=False)
        log.force_flush()
        a = RecordLocation((yield first), first_start, 60)
        b = RecordLocation((yield second), second_start, 10)
        return a, b

    a, b = run(env, flow())
    assert a.page != b.page
    assert b.chunk == 0


def test_gc_reclaims_invalid_records():
    env, log, hooks, array = make_log(blocks=6, pages=2)

    def flow():
        # Fill most of the device; nothing is ever registered as current,
        # so GC has pure garbage to collect.
        for i in range(40):
            yield from append(log, record(i, size=7000))
            yield env.timeout(800.0)
        return True

    assert run(env, flow())
    assert log.metrics.total("kaml.log.gc.erased_blocks", log=log.log_id) > 0
    # nothing was valid
    assert log.metrics.total("kaml.log.gc.relocated_records", log=log.log_id) == 0


def test_gc_relocates_valid_records():
    """Blocks mixing one live record with garbage force relocation."""
    env, log, hooks, array = make_log(blocks=6, pages=2)
    live_keys = list(range(100, 105))

    def flow():
        # Interleave live and dead records so every block carries a
        # survivor (one record per page, two pages per block).
        for key in live_keys:
            location = yield from append(log, record(key, size=7000))
            hooks.register(key, location)
            yield from append(log, record(9000 + key, size=7000))  # garbage
            yield env.timeout(800.0)
        # Churn with garbage until GC must clean the mixed blocks.
        for i in range(20):
            yield from append(log, record(i, size=7000))
            yield env.timeout(800.0)
        return True

    assert run(env, flow())
    relocated_keys = {key for key, _old, _new in hooks.relocations}
    assert relocated_keys & set(live_keys)
    # Every live key's current location still holds its record.
    for key in live_keys:
        location = hooks.locations[key]
        data, _bitmap = array.block_at(location.page).read(location.page.page)
        assert data[location.chunk].key == key


def fill_block(log, keys):
    """One page-sized record per key, each on a page of its own."""
    locations = {}
    for key in keys:
        locations[key] = yield from append(log, record(key, size=7000))
    return locations


def test_gc_reads_only_the_pages_that_hold_a_live_record():
    """Live records on pages 0 and 2 of a four-page victim: two reads,
    and exactly those two records move."""
    env, log, hooks, array = make_log(blocks=8, pages=4)
    locations = run(env, fill_block(log, range(4)))
    victim = locations[0].page.block
    assert {location.page.block for location in locations.values()} == {victim}
    for key in (0, 2):
        hooks.register(key, locations[key])
    chip = array.chip(0, 0)
    reads = chip.stats.reads
    run(env, log._clean_block(victim))
    assert chip.stats.reads - reads == 2
    assert [(key, old) for key, old, _new in hooks.relocations] == [
        (0, locations[0]), (2, locations[2])
    ]
    assert hooks.valid_bytes((0, 0, victim)) == 0


def test_clean_block_relocates_each_survivor_to_its_own_location():
    """Six survivors, up to three to a victim page, move into one GC page
    with one completion: each still gets its own chunk run, which holds
    its record."""
    env, log, hooks, array = make_log(blocks=8, pages=4)

    def fill():
        # 32 records of 8 chunks: eight to a page, one block of four pages.
        stages = [(k, *stage(log, record(k, size=1000), for_gc=False)) for k in range(32)]
        locations = {}
        for key, event, start in stages:
            locations[key] = RecordLocation((yield event), start, 8)
        return locations

    locations = run(env, fill())
    victim = locations[0].page.block
    assert {location.page.block for location in locations.values()} == {victim}
    live = [1, 2, 5, 9, 10, 30]
    for key in live:
        hooks.register(key, locations[key])
    run(env, log._clean_block(victim))
    moved = {key: new for key, _old, new in hooks.relocations}
    assert sorted(moved) == live
    assert len({new.page for new in moved.values()}) == 1
    assert sorted(new.chunk for new in moved.values()) == [8 * k for k in range(6)]
    for key, new in moved.items():
        assert new.nchunks == 8 and hooks.locations[key] == new
        data, _bitmap = array.block_at(new.page).read(new.page.page)
        assert data[new.chunk].key == key


def test_gc_pass_counts_the_padding_of_its_part_filled_page():
    """One 55-chunk survivor leaves the GC page 9 chunks short; the
    forced flush at the end of the clean pads them, and they count."""
    env, log, hooks, array = make_log(blocks=8, pages=4)
    locations = run(env, fill_block(log, range(4)))
    victim = locations[0].page.block
    hooks.register(0, locations[0])
    wasted = log.metrics.total("kaml.log.wasted_chunks", log=log.log_id)
    run(env, log._clean_block(victim))
    assert [key for key, _old, _new in hooks.relocations] == [0]
    assert log.metrics.total("kaml.log.wasted_chunks", log=log.log_id) - wasted == 64 - 55


def test_gc_erases_a_victim_with_no_live_page_after_zero_reads():
    env, log, hooks, array = make_log(blocks=4, pages=4)
    # Nothing is registered: the fifth record seals the first block as
    # pure garbage and opens a second.
    locations = run(env, fill_block(log, range(5)))
    victim = locations[0].page.block
    assert log.full == [victim] and not log.gc_running
    chip = array.chip(0, 0)
    reads, erases = chip.stats.reads, chip.block(victim).erase_count

    def gc_pass():
        log.gc_running = True
        yield from log._gc_process()

    run(env, gc_pass())
    assert chip.stats.reads == reads
    assert chip.block(victim).erase_count == erases + 1
    assert hooks.relocations == []


def test_worn_out_blocks_retire():
    env, log, hooks, array = make_log(blocks=6, pages=2, endurance=3)

    def flow():
        for i in range(120):
            yield from append(log, record(i, size=7000))
            yield env.timeout(800.0)
        return True

    try:
        run(env, flow())
    except LogSpaceError:
        pass  # acceptable: the device ran out of healthy blocks mid-run
    assert log.metrics.total("kaml.log.retired_blocks", log=log.log_id) > 0
    # Retired blocks never return to the free pool.
    chip = array.chip(0, 0)
    for block_index in log.free:
        assert not chip.block(block_index).is_bad


def test_space_error_when_everything_valid():
    env, log, hooks, array = make_log(blocks=3, pages=2)

    def flow():
        # All records stay registered (valid): the device genuinely fills.
        try:
            for i in range(12):
                location = yield from append(log, record(i, size=7000))
                hooks.register(i, location)
                yield env.timeout(800.0)
        except LogSpaceError:
            return "full"
        return "fit"

    assert run(env, flow()) == "full"


# -- rescan: the log rebuilds its own block lists after a power cut -----------

def test_rescan_restores_block_lists_and_both_write_points():
    env, log, hooks, array = make_log(blocks=8, pages=4)

    def flow():
        for key in range(6):  # one 7,000 B record per page: a full block + 2 pages
            yield from append(log, record(key, size=7000))
        # One page on the GC stream, launched the way _clean_block launches it.
        programmed, _start = stage(log, record(100, size=7000), for_gc=True)
        log._launch_flush(for_gc=True)
        yield programmed

    run(env, flow())
    free, full = sorted(log.free), sorted(log.full)
    active, write_pointers = dict(log._active), dict(log._active_wp)
    assert write_pointers == {False: 2, True: 1}
    cut_power(log, hooks)
    assert (log.free, log.full) == ([], [])
    pages, found = run(env, log.rescan())
    assert pages == 7
    assert sorted(rec.key for rec, _location in found) == [0, 1, 2, 3, 4, 5, 100]
    for rec, location in found:
        data, _bitmap = array.block_at(location.page).read(location.page.page)
        assert data[location.chunk] == rec
    assert (sorted(log.free), sorted(log.full)) == (free, full)
    # GC's tail (3 free pages) is the larger one, so each stream resumes
    # exactly where it stopped.
    assert (log._active, log._active_wp) == (active, write_pointers)


def test_rescan_feeds_gc_the_larger_tail_seals_the_rest_and_skips_bad_blocks():
    env, log, hooks, array = make_log(blocks=8, pages=4)
    programmed = {0: 4, 1: 1, 2: 3, 3: 2}  # block -> pages: full, then three tails

    def flow():
        for block, pages in programmed.items():
            for page in range(pages):
                yield from array.program_page(
                    PagePointer(0, 0, block, page),
                    {0: record(10 * block + page, size=100)},
                    oob=encode_bitmap([1]),
                )

    run(env, flow())
    array.chip(0, 0).block(4).state = BlockState.BAD
    log.power_loss()
    pages, found = run(env, log.rescan())
    assert pages == 10 and len(found) == 10
    assert log._active == {True: 1, False: 3}  # 3 free pages to GC, 2 to the host
    assert log._active_wp == {True: 1, False: 2}
    assert log.full == [0, 2]  # the smallest tail is sealed for GC to reclaim
    assert log.free == [5, 6, 7]  # the bad block is in no list


# -- the program queue: one flush process per busy spell ----------------------

def launch_full_page(log, first_key, for_gc=False):
    """Stage eight 8-chunk records: the page fills and launches at once."""
    stages = [stage(log, record(key, size=1000), for_gc) for key in range(first_key, first_key + 8)]
    return stages[0][0]


def count_flush_processes(log):
    """Spy on the log: how many flush processes it started."""
    started = []
    flush_process = log._flush_process

    def spy():
        started.append(log.env.now)
        return flush_process()

    log._flush_process = spy
    return started


def test_pages_launched_on_a_busy_log_program_in_launch_order_from_one_process():
    env, log, hooks, array = make_log(flush_timeout=10_000_000.0)
    started = count_flush_processes(log)
    pages = [launch_full_page(log, 8 * k) for k in range(3)]
    assert len(log._flush_queue) == 3 and started == [0.0]
    env.run(until=1_000_000.0)  # the timer the first append armed has not fired
    assert started == [0.0]
    assert [(page.value.block, page.value.page) for page in pages] == [(0, 0), (0, 1), (0, 2)]
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 3
    assert not log._programming and not log._flush_queue
    # One bootstrap, a completion per page, and for the two pages that
    # start behind a completion due at the same instant one delay each (a
    # process per page behind a program lock took 11 events).
    assert env.events_processed == 6


def test_parked_host_page_requeues_behind_pages_launched_meanwhile():
    env, log, hooks, array = make_log(blocks=8, pages=4, flush_timeout=10_000_000.0)
    log.gc_running = True  # a GC pass is due to free space
    log.free = []
    parked = launch_full_page(log, 0)
    env.run(until=1.0)
    assert log.space_gate.waiting == 1 and not log._programming
    log.free = [5]  # GC's stream may take the last block, the host's may not
    gc_pages = [launch_full_page(log, 100 + 8 * k, for_gc=True) for k in range(2)]
    host_page = launch_full_page(log, 200)
    env.run(until=2.0)  # the first GC page is programming
    log.free += [6, 7]
    log.space_gate.fire()
    env.run(until=10_000.0)
    order = [(page.value.block, page.value.page) for page in (*gc_pages, host_page, parked)]
    assert order == [(5, 0), (5, 1), (6, 0), (6, 1)]
    assert log.space_gate.waiting == 0 and not log._programming


def test_parked_page_keeps_its_failed_attempts():
    env, log, hooks, array = make_log(blocks=8, pages=2)
    attempts = []
    array.chip(0, 0).fault_hook = lambda op, block, page: attempts.append((block, page)) or True
    log.gc_running = True
    log._active[False], log._active_wp[False] = 3, 0  # two pages left, then none
    log.free = []
    page = launch_full_page(log, 0)
    env.run(until=5_000.0)
    assert attempts == [(3, 0), (3, 1)] and log.space_gate.waiting == 1
    log.free = [4, 5, 6]
    log.space_gate.fire()
    env.run(until=10_000.0)
    # Two failed attempts before the park, two after: four in all.
    assert attempts == [(3, 0), (3, 1), (4, 0), (4, 1)]
    assert len(attempts) == KamlLog.MAX_PROGRAM_RETRIES
    assert isinstance(page.exception, LogSpaceError)
    assert "failed 4 times" in str(page.exception)


def test_crash_point_mid_flush_leaves_the_log_programmable_after_recovery():
    env, log, hooks, array = make_log(flush_timeout=10_000_000.0)
    cuts = []

    def crash_point(name):
        if name == "log.mid_flush" and not cuts:
            cuts.append(env.now)
            cut_power(log, hooks)
            raise CutPower(name)

    log._crash_point = crash_point
    lost = [launch_full_page(log, 8 * k) for k in range(2)]
    try:
        env.run()
    except CutPower:
        pass
    assert cuts == [0.0] and not log._flush_queue and not log._programming
    run(env, log.rescan())
    page = launch_full_page(log, 100)
    env.run(until=1_000_000.0)
    assert (page.value.block, page.value.page) == (0, 0)  # the lost pages never landed
    assert not any(event.triggered for event in lost)
