"""Call budget of the caching layer's single-key transactions.

Host time on a cache-hit workload is Python calls, not simulation
events, so the saving of the inline lock grant, the inline hit, the
once-resolved instruments and the zero-call disarmed tracer is pinned
here as a count, not a timing: ``sys.setprofile`` counts the Python
calls (function entries and generator resumes) made while one
transaction runs, by the package of the function called.

A budget may be lowered when the path gets cheaper; raising it needs a
reason as good as the one that set it.
"""

import os
import sys
from collections import Counter

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

_TRACE_PY = os.path.join("repro", "obs", "trace.py")


def _package(path):
    marker = os.sep + "repro" + os.sep
    at = path.rfind(marker)
    return path[at + len(marker):].split(os.sep, 1)[0] if at >= 0 else None


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


def census(env, make_body, store):
    """Run one transaction of ``make_body()`` and count the Python calls
    made meanwhile: ``{(callee package, caller package): n}`` plus the
    calls into ``obs/trace.py`` keyed ``("trace", caller package)``."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event != "call":
            return
        callee = frame.f_code.co_filename
        caller = frame.f_back.f_code.co_filename if frame.f_back is not None else ""
        calls[(_package(callee), _package(caller))] += 1
        if callee.endswith(_TRACE_PY):
            calls[("trace", _package(caller))] += 1

    def one():
        sys.setprofile(profile)
        try:
            return (yield from store.run_transaction(make_body()))
        finally:
            sys.setprofile(None)

    proc = env.process(one())
    env.run_until(proc)
    return proc.value, calls


def into(calls, package, caller=None):
    return sum(
        n for (callee, by), n in calls.items()
        if callee == package and caller in (None, by)
    )


def test_read_hit_transaction_call_budget():
    env, ssd, store, nsid = warm_store()

    def reader():
        def body(txn):
            return (yield from store.transaction_read(txn, nsid, 1))
        return body

    census(env, reader, store)  # resolve instruments, warm the lock table
    events = env.events_processed
    value, calls = census(env, reader, store)
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

    census(env, updater, store)
    _value, calls = census(env, updater, store)
    # The device Put's own null-context calls are the kaml layer's; the
    # store itself makes none.
    assert calls[("trace", "cache")] == 0
    spent = {"cache": into(calls, "cache"), "obs": into(calls, "obs", caller="cache")}
    assert spent["cache"] <= UPDATE_BUDGET["cache"], spent
    assert spent["obs"] <= UPDATE_BUDGET["obs"], spent
