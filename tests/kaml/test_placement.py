"""Rate-adaptive log striping: which open page a host record joins.

Unit tests drive :meth:`Namespace.pick_log` against stand-in logs; the
device tests check what the rule buys (a trickle shares pages, a burst
still stripes) and that steering state never outlives the log set or
the power epoch it describes.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.ftl import BucketedHashIndex
from repro.kaml import ExplicitLogsPolicy, KamlSsd, NamespaceAttributes, PutItem
from repro.kaml.namespace import Namespace, NamespaceError
from repro.sim import Environment

TIMEOUT_US = ReproConfig().kaml.flush_timeout_us
PAGE_CHUNKS = ReproConfig().geometry.chunks_per_page
RECORD_CHUNKS = 8  # a 1,000 B value + header, in 128 B chunks
PER_PAGE = PAGE_CHUNKS // RECORD_CHUNKS


# -- the rule, against stand-in logs -------------------------------------------


class OpenPage:
    """What the picker sees of a log: the room in its open host page."""

    def __init__(self):
        self.room = 0
        self.launched = self.padded = 0  # pages programmed, chunks padded

    def open_room(self):
        return self.room

    def stage(self, nchunks):
        if self.room < nchunks:
            if self.room:  # pad-launch whatever was open
                self.launched += 1
                self.padded += self.room
            self.room = PAGE_CHUNKS
        self.room -= nchunks
        if not self.room:  # a full page launches: room 0 again
            self.launched += 1


def make_namespace(log_ids):
    return Namespace(1, NamespaceAttributes(), BucketedHashIndex(64), log_ids)


def feed(namespace, logs, times, nchunks=RECORD_CHUNKS):
    picks = []
    for now in times:
        log = namespace.pick_log(logs, nchunks, now, TIMEOUT_US)
        log.stage(nchunks)
        picks.append(logs.index(log))
    return picks


def test_new_namespace_starts_wide_in_rotation_order():
    logs = [OpenPage() for _ in range(8)]
    namespace = make_namespace([3, 5, 6])
    # Same-instant records: round-robin, then back onto the pages opened.
    assert feed(namespace, logs, [0.0] * 7) == [3, 5, 6, 3, 5, 6, 3]


def test_trickle_narrows_onto_pages_it_can_keep_fed():
    logs = [OpenPage() for _ in range(64)]
    namespace = make_namespace(range(64))
    picks = feed(namespace, logs, [i * TIMEOUT_US / 3 for i in range(40)])
    assert namespace.stripe_width(TIMEOUT_US) == 1
    # Three pages opened while the estimate narrowed (no timer here to pad
    # them); after that a page opens only when one fills, on the next log
    # of the rotation.
    assert len(namespace._feeding) <= 3
    assert sorted(set(picks)) == list(range(math.ceil(40 / PER_PAGE)))


def test_record_that_does_not_fit_opens_the_next_page():
    logs = [OpenPage() for _ in range(16)]
    namespace = make_namespace(range(16))
    times = [i * TIMEOUT_US for i in range(12)]  # width 1 from the third on
    feed(namespace, logs, times, nchunks=20)
    stripe = {log_id: logs[log_id].room for log_id in namespace._feeding}
    assert any(stripe.values()) and max(stripe.values()) < 30
    chosen = namespace.pick_log(logs, 30, times[-1] + TIMEOUT_US, TIMEOUT_US)
    assert logs.index(chosen) not in stripe and chosen.room == 0  # a fresh page
    # Every page the stripe held is left to fill or go quiet: none padded early.
    assert {log_id: logs[log_id].room for log_id in stripe} == stripe


def test_full_width_pads_only_when_no_page_in_the_stripe_fits():
    # put-gc's 256 / 1,000 / 3,500 B records, arriving together: the
    # stripe spans all 8 logs, so every page a record skips is one it
    # would otherwise have padded early (12 % of chunks under "try the
    # head, else pad the next log of the rotation").
    logs = [OpenPage() for _ in range(8)]
    namespace = make_namespace(range(8))
    sizes = random.Random(1).choices([3, 8, 28], k=4000)
    for nchunks in sizes:
        namespace.pick_log(logs, nchunks, 0.0, TIMEOUT_US).stage(nchunks)
    assert namespace.stripe_width(TIMEOUT_US) == 8
    padded = sum(log.padded for log in logs)
    assert padded <= 0.04 * PAGE_CHUNKS * sum(log.launched for log in logs)


def test_retarget_resets_steering_state():
    logs = [OpenPage() for _ in range(8)]
    namespace = make_namespace([0, 1, 2, 3])
    feed(namespace, logs, [i * TIMEOUT_US / 3 for i in range(10)])
    assert namespace._feeding and namespace.stripe_width(TIMEOUT_US) == 1
    namespace.retarget([6, 7])
    assert namespace._feeding == []
    assert namespace.stripe_width(TIMEOUT_US) == 2  # wide again
    later = 10 * TIMEOUT_US / 3
    assert set(feed(namespace, logs, [later, later, later])) == {6, 7}


def test_pick_without_logs_raises():
    with pytest.raises(NamespaceError):
        make_namespace([]).pick_log([], 1, 0.0, TIMEOUT_US)


# -- on the device ---------------------------------------------------------------


def make_ssd(config=None):
    env = Environment()
    return env, KamlSsd(env, config or ReproConfig())


def run(env, generator):
    process = env.process(generator)
    env.run_until(process)
    return process.value


def create(env, ssd, **attributes):
    return run(env, ssd.create_namespace(NamespaceAttributes(**attributes)))


def appended(ssd, log_id):
    return ssd.metrics.total("kaml.log.appended_records", log=log_id, stream="host")


def test_trickle_shares_pages():
    env, ssd = make_ssd()
    nsid = create(env, ssd)
    records = 40

    def trickle():
        for key in range(records):
            yield from ssd.put([PutItem(nsid, key, key, 1000)])
            yield env.timeout(TIMEOUT_US / 3)
        yield from ssd.drain()

    run(env, trickle())
    # The few pages opened while the estimator narrows from its wide
    # start, plus the final pad; round-robin programmed one per record.
    assert ssd.array.total_programs() <= math.ceil(records / PER_PAGE) + 4


def test_burst_still_stripes_over_every_log():
    env, ssd = make_ssd()
    nsid = create(env, ssd, expected_keys=1024)
    pages = len(ssd.logs)

    def burst():
        done = yield from ssd.put(
            [PutItem(nsid, key, key, 1000) for key in range(pages * PER_PAGE)]
        )
        started = env.now
        yield done
        return env.now - started

    elapsed = run(env, burst())
    assert all(appended(ssd, log.log_id) == PER_PAGE for log in ssd.logs)
    assert ssd.array.total_programs() == pages
    assert ssd.metrics.total("kaml.log.timer_flushes") == 0
    # Phases 2-3 of this batch took 2,065.92 us under blind round-robin
    # (measured at the parent commit): striping costs a burst nothing.
    assert elapsed <= 2065.92


def test_unfitting_record_never_pads_the_fed_page_early():
    env, ssd = make_ssd()
    nsid = create(env, ssd)
    namespace = ssd.namespaces[nsid]

    def flow():
        for key in range(8):  # narrow the stripe; 20 chunks a record
            yield from ssd.put([PutItem(nsid, key, key, 2500)])
            yield env.timeout(TIMEOUT_US / 3)
        stripe = {log_id: ssd.logs[log_id].open_room() for log_id in namespace._feeding}
        assert any(stripe.values()) and max(stripe.values()) < 55
        yield from ssd.put([PutItem(nsid, 99, 99, 7000)])  # 55 chunks
        yield env.timeout(1.0)  # phase 2 stages after the ack
        return stripe

    stripe = run(env, flow())
    # It went to a fresh page...
    fresh = namespace._feeding[-1]
    assert fresh not in stripe and ssd.logs[fresh].open_room() == PAGE_CHUNKS - 55
    # ...and every page the stripe held stayed open.
    assert {log_id: ssd.logs[log_id].open_room() for log_id in stripe} == stripe


def test_tombstones_join_part_filled_pages():
    env, ssd = make_ssd()
    nsid = create(env, ssd)
    keys = 24

    def flow():
        yield from ssd.put([PutItem(nsid, key, key, 1000) for key in range(keys)])
        yield from ssd.drain()
        before = ssd.array.total_programs()
        for key in range(keys):
            yield from ssd.delete(nsid, key)
            yield env.timeout(TIMEOUT_US / 3)
        yield from ssd.drain()
        return ssd.array.total_programs() - before

    # One chunk each: a page apiece under round-robin.
    assert run(env, flow()) <= 4


def test_retarget_mid_stream_stays_inside_the_new_log_set():
    env, ssd = make_ssd()
    old, new = [0, 1, 2, 3], [8, 9]
    nsid = create(env, ssd, log_policy=ExplicitLogsPolicy(old))

    def flow():
        for key in range(12):  # leaves part-filled pages open on `old`
            yield from ssd.put([PutItem(nsid, key, key, 1000)])
            yield env.timeout(TIMEOUT_US / 8)
        assert any(ssd.logs[log_id].open_room() for log_id in old)
        before = {log.log_id: appended(ssd, log.log_id) for log in ssd.logs}
        ssd.retarget_namespace(nsid, ExplicitLogsPolicy(new))
        for key in range(12, 24):
            yield from ssd.put([PutItem(nsid, key, key, 1000)])
            yield env.timeout(TIMEOUT_US / 8)
        yield from ssd.drain()
        return before

    before = run(env, flow())
    grew = {
        log.log_id for log in ssd.logs if appended(ssd, log.log_id) > before[log.log_id]
    }
    assert grew and grew <= set(new)


def test_put_after_power_loss_lands_in_the_recovered_epoch():
    env, ssd = make_ssd()
    nsid = create(env, ssd)

    def flow():
        for key in range(6):  # narrowed, with a part-filled page open
            yield from ssd.put([PutItem(nsid, key, ("old", key), 1000)])
            yield env.timeout(TIMEOUT_US / 3)
        namespace = ssd.namespaces[nsid]
        stale = list(namespace._feeding)
        assert stale and all(ssd.logs[log_id].open_room() for log_id in stale)
        ssd.power_loss()
        assert not any(log.open_room() for log in ssd.logs)
        yield from ssd.recover()
        yield from ssd.put([PutItem(nsid, 100, "new", 1000)])
        yield env.timeout(1.0)  # phase 2 stages after the ack
        # Every page the namespace now feeds was opened after the cut.
        assert namespace._feeding
        assert all(ssd.logs[log_id].open_room() for log_id in namespace._feeding)
        yield from ssd.drain()
        ssd.power_loss()  # flash alone must hold everything acknowledged
        yield from ssd.recover()
        values = []
        for key in [*range(6), 100]:
            values.append((yield from ssd.get(nsid, key)))
        return values

    assert run(env, flow()) == [("old", key) for key in range(6)] + ["new"]


# -- property: any arrival pattern, namespaces sharing logs ------------------------

ARRIVALS = st.lists(
    st.tuples(
        st.integers(0, 1),  # namespace
        st.sampled_from([0.0, 1.0, 30.0, 200.0, 700.0, 2500.0]),  # gap before, us
        st.sampled_from([64, 300, 1000, 3000, 7000]),  # value bytes
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARRIVALS)
def test_pick_stays_in_log_set_and_within_width(arrivals):
    geometry = FlashGeometry(channels=2, chips_per_channel=4, blocks_per_chip=16)
    env, ssd = make_ssd(
        ReproConfig().with_(geometry=geometry, kaml=KamlParams(num_logs=8))
    )
    namespaces = [
        ssd.namespaces[create(env, ssd, log_policy=ExplicitLogsPolicy(log_ids))]
        for log_ids in ([0, 1, 2, 3, 4, 5], [4, 5, 6, 7])  # logs 4, 5 shared
    ]
    pick_log = Namespace.pick_log
    violations = []

    def checked(self, logs, nchunks, now, hold_us):
        feeding = len(self._feeding)
        most_room = max((logs[log_id].open_room() for log_id in self._feeding), default=0)
        log = pick_log(self, logs, nchunks, now, hold_us)
        # At width, a pick pads a page only if no page in the stripe could
        # take the record.  (Below width it opens on the next rotation log,
        # whose page another namespace sharing the log may have part-filled.)
        at_width = feeding >= self.stripe_width(hold_us)
        if at_width and 0 < log.open_room() < nchunks <= most_room:
            violations.append(("padded with room in the stripe", log.log_id))
        if log.log_id not in self.log_ids:
            violations.append(("outside log_ids", log.log_id))
        if len(self._feeding) > max(feeding, self.stripe_width(hold_us)):
            violations.append(("opened past width", list(self._feeding)))
        if len(set(self._feeding)) != len(self._feeding):
            violations.append(("duplicate", list(self._feeding)))
        return log

    def flow():
        for key, (which, gap, size) in enumerate(arrivals):
            yield env.timeout(gap)
            yield from ssd.put([PutItem(namespaces[which].namespace_id, key, key, size)])
        yield from ssd.drain()
        for key, (which, _gap, _size) in enumerate(arrivals):
            value = yield from ssd.get(namespaces[which].namespace_id, key)
            assert value == key

    Namespace.pick_log = checked
    try:
        run(env, flow())
    finally:
        Namespace.pick_log = pick_log
    assert violations == []
