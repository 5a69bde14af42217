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
GET_MISS_BUDGET = {"kaml": 8, "flash": 11, "ssd": 5, "obs": 9, "sim": 29}
#: One single-record Put, from command arrival through its mapping
#: install in phase 3 (before: obs 46, sim 108).
PUT_BUDGET = {"kaml": 72, "flash": 22, "ssd": 14, "obs": 24, "sim": 94}
#: One GC pass of one log: two victims cleaned, two records relocated,
#: two blocks erased (before: obs 186, sim 331).
GC_PASS_BUDGET = {"kaml": 209, "flash": 265, "ssd": 0, "obs": 132, "sim": 253}


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


def test_put_through_install_call_budget():
    env, ssd, nsid = warm_device()

    def put(key):
        done = yield from ssd.put([PutItem(nsid, key, "new", 1000)])
        yield done  # phases 2 and 3: the program and the install

    census(env, put(0))
    _value, calls = census(env, put(1))
    assert ssd.staged_records == 0
    within(calls, PUT_BUDGET)


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
    _value, calls = census(env, gc_pass())
    assert ssd.metrics.total("kaml.log.gc.relocated_records") >= 1
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") >= 1
    within(calls, GC_PASS_BUDGET)
