"""Exact simulation-event counts of three fixed workloads.

The counts are deterministic on every machine, so any change to them
means the simulation schedules more (or less) work per operation:

* ``kernel`` — a timer cascade plus resource ping-pong with no KV stack
  on top; isolates event-loop cost (heap ops, callbacks, resumptions);
* ``mixed`` — a 50/50 Get/Put mix through the full KAML store;
* ``ycsb-b`` — YCSB B (95 % reads) through the caching layer and lock
  table, the stack Figure 10 exercises.

Store workloads count only their measured phase (setup excluded).  A
change to the modelled device re-pins these numbers together with the
digests, under DESIGN.md's re-pin protocol.  A kernel change may re-pin
them alone only if it is exact or event-only in DESIGN.md's sense
("Event-only changes"): every digest holds, both sanitised matrices print
the same bytes, and ``make bench-diff`` lets only ``sim_events_per_op``
move.  Tooling changes leave them alone.
"""

import random

from repro.harness.runner import build_kaml_store
from repro.sim import Environment
from repro.sim.resources import Resource
from repro.workloads import prepare_workload

EXPECTED = {"kernel": 76_865, "mixed": 9_158, "ycsb-b": 2_781}


def kernel_events() -> int:
    """64 pingers x 400 hops through an 8-slot gate.  The timeouts keep
    the plain ``yield env.timeout()`` spelling on purpose: the count
    measures the event heap, not the zero-event fast path."""
    env = Environment()
    gate = Resource(env, capacity=8, name="perf.gate")

    def pinger(seed):
        rng = random.Random(seed)
        for _ in range(400):
            request = gate.request()
            yield request
            yield env.timeout(1.0 + rng.random())
            gate.release(request)
            yield env.timeout(0.5)

    env.run_until(env.all_of([env.process(pinger(1000 + i)) for i in range(64)]))
    return env.events_processed


def store_events(workload: str, **params) -> int:
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    measured_phase = prepare_workload(workload, env, ssd, store, threads=4, **params)
    before = env.events_processed
    measured_phase()
    return env.events_processed - before


def test_sim_event_counts_are_exact():
    counts = {
        "kernel": kernel_events(),
        "mixed": store_events("mixed", seed=42, ops=2000, key_space=512),
        "ycsb-b": store_events("ycsb-b", seed=7, ops=1000, records=1000),
    }
    assert counts == EXPECTED
