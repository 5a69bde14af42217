"""Call budget of the caching layer's single-key transactions.

Host time on a cache-hit workload is Python calls, not simulation
events, so the saving of the inline lock grant, the inline hit, the
once-resolved instruments and the zero-call disarmed tracer is pinned
here as a count, not a timing (:mod:`tests.call_census`).

A budget may be lowered when the path gets cheaper; raising it needs a
reason as good as the one that set it.
"""

from tests.call_census import census, into

from repro.cache import KamlStore
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd
from repro.sim import Environment

#: Python calls into ``repro/cache``, and into ``repro/obs`` from there,
#: for one read transaction served by an uncontended lock and a cache hit
#: (before the inline forms and the disarmed-tracing diet: 20 and 17, ten
#: of them into ``obs/trace.py``).
READ_HIT_BUDGET = {"cache": 16, "obs": 5}
#: The same for one single-key update transaction; its commit's device
#: ``Put`` is the kaml layer's and not budgeted here (before: 25 and 8).
UPDATE_BUDGET = {"cache": 20, "obs": 4}


def warm_store():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    ssd = KamlSsd(env, config)
    ssd.tracer.enabled = False
    store = KamlStore(env, ssd, cache_bytes=1 << 20)

    def setup():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 1, "warm", 1000)
        yield from ssd.drain()
        return nsid

    proc = env.process(setup())
    env.run_until(proc)
    return env, ssd, store, proc.value


def test_read_hit_transaction_call_budget():
    env, ssd, store, nsid = warm_store()

    def reader():
        def body(txn):
            return (yield from store.transaction_read(txn, nsid, 1))
        return body

    census(env, store.run_transaction(reader()))  # resolve instruments, warm the lock table
    events = env.events_processed
    value, calls = census(env, store.run_transaction(reader()))
    assert value == "warm"
    assert store.metrics.total("cache.hits") == 2
    # The census process's start and end; the transaction itself ran inline.
    assert env.events_processed == events + 2
    assert into(calls, "trace") == 0  # disarmed: no tracing call at all
    spent = {"cache": into(calls, "cache"), "obs": into(calls, "obs", caller="cache")}
    assert spent["cache"] <= READ_HIT_BUDGET["cache"], spent
    assert spent["obs"] <= READ_HIT_BUDGET["obs"], spent


def test_update_transaction_call_budget():
    env, ssd, store, nsid = warm_store()

    def updater():
        def body(txn):
            yield from store.transaction_update(txn, nsid, 1, "new", 1000)
        return body

    census(env, store.run_transaction(updater()))
    _value, calls = census(env, store.run_transaction(updater()))
    assert into(calls, "trace") == 0  # the device Put below makes none either
    spent = {"cache": into(calls, "cache"), "obs": into(calls, "obs", caller="cache")}
    assert spent["cache"] <= UPDATE_BUDGET["cache"], spent
    assert spent["obs"] <= UPDATE_BUDGET["obs"], spent
