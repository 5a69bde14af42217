"""Call budgets of the device's own paths, with the tracer disarmed.

Below the store the disarmed contract is the same as in it: no call into
``obs/trace.py`` at all (every layer takes ``ctx=None`` and guards its
span calls), and the kernel's inline tries cost no predicate call.  The
counts come from :mod:`tests.call_census`; before ``None`` became the one
spelling of "untraced" a Get miss made 14 tracing calls, a Put 22 and
this GC pass 54.

A budget may be lowered when the path gets cheaper; raising it needs a
reason as good as the one that set it.
"""

from tests.call_census import census, into

from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd, PutItem
from repro.sim import Environment

#: One device Get served from flash (before: obs 23, sim 40).
GET_MISS_BUDGET = {"kaml": 8, "flash": 11, "ssd": 5, "obs": 8, "sim": 29}
#: One device Get served from the staged overlay: the key's Put is acked
#: but not yet installed, so no index probe and no flash read.
GET_STAGED_BUDGET = {"kaml": 4, "flash": 0, "ssd": 5, "obs": 6, "sim": 7}
#: One single-key Delete through its ack: the existence check, then the
#: one-tombstone Put's phase 1 and the staging its phase 2 begins with
#: (kaml 20 while the check went through two mapping methods).
DELETE_BUDGET = {"kaml": 19, "flash": 0, "ssd": 10, "obs": 9, "sim": 18}
#: One single-record Put, from command arrival through its mapping
#: install in phase 3 (before: obs 46, sim 108; kaml 72 and sim 80 while
#: each record was appended by a process of its own; kaml 67, flash 22,
#: obs 23 and sim 68 while each record's chunks were counted many times
#: over, an erase mark walked the array through four calls, every page
#: bootstrapped a flush timer and the kernel built events in two frames;
#: kaml 36 while the batch's bytes were summed by a generator; sim 59
#: while every page was programmed by a process of its own behind the
#: log's program lock).
PUT_BUDGET = {"kaml": 34, "flash": 14, "ssd": 14, "obs": 17, "sim": 45}
#: One four-record Put of new keys through its installs, records sharing
#: one page (before: kaml 180, flash 46, obs 38, sim 99, while each
#: record's chunks were counted many times over and each record captured
#: its own erase mark; kaml 78 while the batch's bytes were summed by a
#: generator; kaml 73 while validation looked each record's namespace up
#: through two calls; sim 82 while every page was programmed by a process
#: of its own behind the log's program lock).
PUT_BATCH_BUDGET = {"kaml": 68, "flash": 14, "ssd": 32, "obs": 23, "sim": 55}
#: One GC pass of one log: two victims cleaned, two records relocated,
#: two blocks erased, two pages read (before: obs 186, sim 331; sim 173
#: while every completion went through the heap; kaml 207, flash 257 and
#: sim 163 while GC read all 16 pages of its victims, dead ones too; kaml
#: 165, obs 132 and sim 77 while the GC write point armed a flush timer;
#: obs 124 while every GC-pass instrument was looked up on each use; sim
#: 65 while every page was programmed by a process of its own behind the
#: log's program lock).
GC_PASS_BUDGET = {"kaml": 123, "flash": 103, "ssd": 0, "obs": 102, "sim": 47}

def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def disarmed_device(num_logs=None):
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(
        kaml=KamlParams(num_logs=num_logs or config.geometry.total_chips)
    )
    ssd = KamlSsd(env, config)
    ssd.tracer.enabled = False
    return env, ssd, run(env, ssd.create_namespace())


def warm_device():
    """Three records on flash; every log has an open block."""
    env, ssd, nsid = disarmed_device()

    def fill():
        for key in range(3):
            yield from ssd.put([PutItem(nsid, key, f"v{key}", 1000)])
        yield from ssd.drain()

    run(env, fill())
    return env, ssd, nsid


def within(calls, budget):
    assert into(calls, "trace") == 0  # disarmed: no tracing call at all
    spent = {package: into(calls, package) for package in budget}
    assert all(spent[p] <= budget[p] for p in budget), (spent, budget)


def test_get_miss_call_budget():
    env, ssd, nsid = warm_device()
    census(env, ssd.get_record(nsid, 0))  # resolve instruments
    value, calls = census(env, ssd.get_record(nsid, 1))
    assert value == ("v1", 1000)
    assert ssd.metrics.total("flash.suspended_reads") == 0
    within(calls, GET_MISS_BUDGET)


def test_get_staged_call_budget():
    env, ssd, nsid = warm_device()

    def put(key):
        yield from ssd.put([PutItem(nsid, key, "new", 1000)])  # acked, not installed

    census(env, put(5))
    census(env, ssd.get_record(nsid, 5))  # resolve instruments
    census(env, put(6))
    hits = ssd.metrics.total("kaml.ssd.get_staged_hits")
    value, calls = census(env, ssd.get_record(nsid, 6))
    assert value == ("new", 1000)
    assert ssd.metrics.total("kaml.ssd.get_staged_hits") == hits + 1
    within(calls, GET_STAGED_BUDGET)


def test_delete_call_budget():
    env, ssd, nsid = warm_device()
    census(env, ssd.delete(nsid, 0))  # resolve instruments
    existed, calls = census(env, ssd.delete(nsid, 1))
    assert existed is True
    within(calls, DELETE_BUDGET)


def test_put_through_install_call_budget():
    env, ssd, nsid = warm_device()

    def put(key):
        done = yield from ssd.put([PutItem(nsid, key, "new", 1000)])
        yield done  # phases 2 and 3: the program and the install

    census(env, put(0))
    _value, calls = census(env, put(1))
    assert ssd.staged_records == 0
    within(calls, PUT_BUDGET)


def test_batch_put_through_install_call_budget():
    env, ssd, nsid = warm_device()

    def put(keys):
        done = yield from ssd.put([PutItem(nsid, key, "new", 1000) for key in keys])
        yield done

    census(env, put([0]))
    _value, calls = census(env, put([10, 11, 12, 13]))
    assert ssd.staged_records == 0
    assert ssd.metrics.total("kaml.log.programmed_pages") == 5  # 3 warm pages, then 1 each
    within(calls, PUT_BATCH_BUDGET)


def test_gc_pass_call_budget():
    env, ssd, nsid = disarmed_device(num_logs=1)
    log = ssd.logs[0]

    def fill():
        # One page per record; every block keeps one live record, the
        # rest is overwritten, so any victim has something to relocate.
        for i in range(36):
            key = 100 + i if i % 8 == 0 else i % 3
            yield from ssd.put([PutItem(nsid, key, f"v{i}", 8000)])
            yield from ssd.drain()

    def gc_pass():
        log.gc_running = True
        yield from log._gc_process()

    run(env, fill())
    assert log.gc_running is False and len(log.free) < ssd.config.kaml.gc_restore_target
    reads = log._chip().stats.reads
    _value, calls = census(env, gc_pass())
    assert ssd.metrics.total("kaml.log.gc.relocated_records") >= 1
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") >= 1
    assert log._chip().stats.reads - reads == 2  # one live page per victim
    within(calls, GC_PASS_BUDGET)
