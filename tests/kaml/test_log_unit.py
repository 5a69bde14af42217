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




def test_append_returns_location_after_program():
    env, log, hooks, array = make_log()

    def flow():
        location = yield from log.append(record(1, size=7000))  # ~55 chunks
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
        stages = [log.stage(record(k, size=1000), for_gc=False) for k in range(4)]
        log.force_flush()
        locations = []
        for event in stages:
            locations.append((yield event))
        return locations

    locations = run(env, flow())
    pages = {loc.page for loc in locations}
    assert len(pages) == 1  # 4 x 8-chunk records share one 64-chunk page
    chunks = [loc.chunk for loc in locations]
    assert chunks == sorted(chunks)
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1


def test_full_page_flushes_without_timer():
    env, log, hooks, array = make_log(flush_timeout=10_000_000.0)

    def flow():
        # 8 records x 8 chunks each = 64 chunks: exactly one page.
        stages = [log.stage(record(k, size=1000), for_gc=False) for k in range(8)]
        for event in stages:
            yield event
        return env.now

    finished = run(env, flow())
    assert finished < 10_000_000.0  # programmed by page-full, not timer
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1


def test_timer_flushes_partial_page():
    env, log, hooks, array = make_log(flush_timeout=500.0)

    def flow():
        location = yield from log.append(record(1, size=100))
        return env.now, location

    finished, _location = run(env, flow())
    assert finished >= 500.0  # waited for the timer
    assert log.metrics.total("kaml.log.wasted_chunks", log=log.log_id) > 0


def flush_launches(log):
    """Spy on the log: sim times at which an open host page was launched."""
    launches = []
    launch = log._launch_flush

    def spy(for_gc):
        if not for_gc and not log._points[False].assembly.is_empty:
            launches.append(log.env.now)
        launch(for_gc)

    log._launch_flush = spy
    return launches


def stage_at(env, log, when, key, size):
    env.run(until=when)
    log.stage(record(key, size=size), for_gc=False)


def test_lone_append_and_same_instant_batch_flush_at_exactly_one_timeout():
    for batch in (1, 3):
        env, log, hooks, array = make_log(flush_timeout=500.0)
        launches = flush_launches(log)
        env.run(until=123.0)
        for key in range(batch):
            log.stage(record(key, size=100), for_gc=False)
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
    # Nothing else is scheduled, so every event is the page's timer: the
    # bootstrap, then one firing per (timeout - gap) at worst — an append
    # never defuses or re-arms it.
    assert env.events_processed - before <= window / (timeout - gap) + 1


def test_oversized_tail_starts_new_page():
    env, log, hooks, array = make_log()

    def flow():
        # 60 chunks, then a 10-chunk record that cannot fit the tail.
        first = log.stage(record(1, size=7600), for_gc=False)
        second = log.stage(record(2, size=1200), for_gc=False)
        log.force_flush()
        a = yield first
        b = yield second
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
            yield from log.append(record(i, size=7000))
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
            location = yield from log.append(record(key, size=7000))
            hooks.register(key, location)
            yield from log.append(record(9000 + key, size=7000))  # garbage
            yield env.timeout(800.0)
        # Churn with garbage until GC must clean the mixed blocks.
        for i in range(20):
            yield from log.append(record(i, size=7000))
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


def test_worn_out_blocks_retire():
    env, log, hooks, array = make_log(blocks=6, pages=2, endurance=3)

    def flow():
        for i in range(120):
            yield from log.append(record(i, size=7000))
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
                location = yield from log.append(record(i, size=7000))
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
            yield from log.append(record(key, size=7000))
        yield log.stage(record(100, size=7000), for_gc=True)  # one page, GC stream

    run(env, flow())
    free, full = sorted(log.free), sorted(log.full)
    active, write_pointers = dict(log._active), dict(log._active_wp)
    assert write_pointers == {False: 2, True: 1}
    array.power_loss()
    log.power_loss()
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
