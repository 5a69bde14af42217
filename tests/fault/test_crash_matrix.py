"""The crash-consistency matrix: every crash point x seeds 1-3.

For each seed a counting pass learns how often the workload announces
each crash point; one armed pass per point then cuts power at a
seed-derived occurrence, recovers, and diffs every touched key against
the shadow model.  Device points cut a single SSD; the ``cluster.2pc.*``
points cut a 2-shard rack at a coordinator decision boundary.  The sweep
runs once per session (the ``crash_matrix`` fixture in
``tests/conftest.py``), plain and under ``KAML_SANITIZE=1``, and the
``matrices`` digest pins its cell facts.
"""

import gc
import hashlib

from repro.fault import (
    ALL_CRASH_POINTS,
    CRASH_POINTS,
    FaultPlan,
    pick_hit,
    run_matrix,
    run_scenario,
)
from repro.fault.harness import DeviceTarget, run_on
from repro.sim import Environment

SEEDS = (1, 2, 3)


def run_crash_matrix():
    """The full sweep: 21 cells, the cluster points on 2 shards.

    The session keeps the report, so each cell's live metrics registry
    (some 3,000 objects a cell, which every later full collection would
    walk) is dropped; no matrix test reads it.
    """
    report = run_matrix(list(SEEDS))
    for cell in report["cells"]:
        cell.pop("metrics", None)
    return report


def rerun(cell):
    """The call that re-runs exactly this cell."""
    plan = "FaultPlan()" if cell["point"] is None else (
        f"FaultPlan({cell['point']!r}, {cell['hit']})"
    )
    return f"run_scenario({plan}, {cell['seed']}, shards={cell.get('shards')})"


def test_matrix_is_clean(crash_matrix):
    failing = [
        f"{rerun(cell)}: {cell['failures'][:2]}"
        for cell in crash_matrix["cells"]
        if not cell["ok"]
    ]
    assert not failing, "diverging cells:\n" + "\n".join(failing)


def test_matrix_covers_every_crash_point(crash_matrix):
    covered = [
        (cell["seed"], cell["point"]) for cell in crash_matrix["cells"] if cell["crashed"]
    ]
    assert sorted(covered) == sorted(
        (seed, point) for seed in SEEDS for point in ALL_CRASH_POINTS
    )
    for cell in crash_matrix["cells"]:
        assert cell["fired"]["point"] == cell["point"]
        assert cell.get("shards") == (None if cell["point"] in CRASH_POINTS else 2)


def test_matrix_cells_actually_recovered_state(crash_matrix):
    # The sweep must not pass vacuously: every device cell acked writes
    # and scanned flash during recovery, and every coordinator cut left a
    # cross-shard transaction in doubt for recovery to resolve.
    for cell in crash_matrix["cells"]:
        if cell["point"] in CRASH_POINTS:
            assert cell["acked_ops"] > 0, rerun(cell)
            assert cell["scanned_pages"] > 0, rerun(cell)
        else:
            assert cell["txns"] > 0, rerun(cell)
            assert cell["recovered_committed"] + cell["recovered_aborted"] > 0, rerun(cell)


def test_armed_run_is_deterministic():
    """Same plan + seed => identical crash time and verdict."""
    plan = FaultPlan(point="log.mid_flush", hit=5)
    first = run_scenario(plan, seed=2)
    second = run_scenario(plan, seed=2)
    assert first["ok"] and second["ok"]
    assert first["fired"] == second["fired"]
    assert first["sim_time_us"] == second["sim_time_us"]
    assert first["acked_ops"] == second["acked_ops"]


def test_an_armed_run_does_not_depend_on_when_the_garbage_collector_runs():
    """A process left parked on an event the cut dropped would be
    finalized by the garbage collector, whenever that runs, and its
    cleanup (a span closed, a flag cleared) would land at that instant.
    The cut ends every device process instead.  A sweeper collects every
    20 ms of simulated time in one run and never in the other: same
    clock, same recorded span stream."""

    def cell(collect):
        env = Environment()
        target = DeviceTarget(env)
        tracer = target.stack.tracer
        tracer.enabled = True

        def sweeper():
            while True:
                if collect:
                    gc.collect(0)  # the collector is off: the run's objects stay young
                yield env.timeout(20_000.0)

        env.process(sweeper())
        result = run_on(target, FaultPlan("put.before_nvram_pin", 203), seed=1)
        spans = [(span.name, span.start_us, span.end_us) for span in tracer.recorder.events()]
        stream = hashlib.sha256(repr(spans).encode()).hexdigest()
        return result, tracer.recorder.recorded, stream

    enabled = gc.isenabled()
    gc.disable()
    try:
        (quiet, quiet_spans, quiet_stream), (swept, swept_spans, swept_stream) = (
            cell(False), cell(True)
        )
    finally:
        if enabled:
            gc.enable()
    assert quiet["ok"] and swept["ok"]
    assert swept["sim_time_us"] == quiet["sim_time_us"]
    assert swept_spans == quiet_spans
    assert swept_stream == quiet_stream


def test_pick_hit_in_range_and_seed_dependent():
    hits = {pick_hit(seed, "put.before_install", 50) for seed in range(20)}
    assert all(1 <= hit <= 50 for hit in hits)
    assert len(hits) > 1  # different seeds crash at different depths


def test_flash_fault_rates_reach_cluster_cells():
    cell = run_scenario(
        FaultPlan(), seed=1, ops_per_writer=12, shards=2,
        program_fail_rate=0.2, erase_fail_rate=0.2,
    )
    assert cell["ok"], cell["failures"]
    assert cell["ops"] == 4 * 12  # ops_per_writer reaches the cluster workload too
    assert cell["metrics"].total("fault.flash.injected") > 0
