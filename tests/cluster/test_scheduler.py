"""ShardScheduler: bounded queues, admission control, epoch fencing."""

import pytest

from repro.cluster.errors import AdmissionError
from repro.cluster.scheduler import ShardScheduler
from repro.errors import PowerLossError
from repro.obs import MetricsRegistry
from repro.sim import Environment


def make_scheduler(queue_limit=4, workers=1, start=True):
    env = Environment()
    metrics = MetricsRegistry()
    scheduler = ShardScheduler(
        env, 0, metrics, queue_limit=queue_limit, workers=workers
    )
    if start:
        scheduler.start(0)
    return env, metrics, scheduler


def op(env, duration_us, value):
    """Factory building a fresh device-op generator per call."""

    def factory():
        def body():
            yield env.timeout(duration_us)
            return value

        return body()

    return factory


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def test_submit_runs_and_delivers_the_value():
    env, metrics, scheduler = make_scheduler()
    completion = scheduler.submit(op(env, 25.0, "done"))

    def wait():
        value = yield completion
        return value, env.now

    value, finished = run(env, wait())
    assert value == "done"
    assert finished == 25.0
    assert metrics.total("cluster.sched.admitted") == 1
    assert metrics.total("cluster.sched.completed") == 1


def test_queue_full_sheds_synchronously():
    # No workers started: the queue can only fill.
    env, metrics, scheduler = make_scheduler(queue_limit=3, start=False)
    for _ in range(3):
        scheduler.submit(op(env, 10.0, None))
    with pytest.raises(AdmissionError) as excinfo:
        scheduler.submit(op(env, 10.0, None))
    assert excinfo.value.reason == "queue_full"
    assert metrics.total("cluster.shed") == 1
    assert scheduler.depth() == 3  # the shed request was never enqueued


def test_slo_budget_sheds_before_enqueue():
    env, metrics, scheduler = make_scheduler(queue_limit=64, start=False)
    for _ in range(4):
        scheduler.submit(op(env, 10.0, None))
    # Backlog 4 x seed estimate 50us / 1 worker = 200us estimated wait.
    assert scheduler.estimated_wait_us() == pytest.approx(200.0)
    with pytest.raises(AdmissionError) as excinfo:
        scheduler.submit(op(env, 10.0, None), queue_budget_us=150.0)
    assert excinfo.value.reason == "slo_budget"
    # A tenant with budget headroom still gets in.
    scheduler.submit(op(env, 10.0, None), queue_budget_us=500.0)
    assert scheduler.depth() == 5


def test_service_ewma_tracks_completions():
    env, _metrics, scheduler = make_scheduler()
    completion = scheduler.submit(op(env, 150.0, None))

    def wait():
        yield completion

    run(env, wait())
    # seed 50 + 0.2 * (150 - 50)
    assert scheduler.service_ewma_us == pytest.approx(70.0)


def test_failed_op_fails_its_completion_only():
    env, metrics, scheduler = make_scheduler()

    def exploding():
        def body():
            yield env.timeout(5.0)
            raise ValueError("device said no")

        return body()

    bad = scheduler.submit(exploding)
    good = scheduler.submit(op(env, 5.0, "fine"))

    def wait():
        try:
            yield bad
        except ValueError:
            pass
        else:
            raise AssertionError("expected the device error to propagate")
        value = yield good
        return value

    assert run(env, wait()) == "fine"
    assert metrics.total("cluster.sched.completed") == 1


def test_power_loss_fails_queued_completions_and_fences_workers():
    env, _metrics, scheduler = make_scheduler(workers=1)
    slow = scheduler.submit(op(env, 1_000.0, None))
    queued = scheduler.submit(op(env, 10.0, None))

    def drive():
        yield env.timeout(100.0)  # the slow op is in flight, one queued
        scheduler.power_loss(1)
        outcomes = []
        for completion in (slow, queued):
            try:
                yield completion
            except PowerLossError:
                outcomes.append("power")
        return outcomes

    assert run(env, drive()) == ["power", "power"]
    assert scheduler.depth() == 0
    assert scheduler.inflight() == 0

    # A new epoch's pool serves fresh traffic; the old workers are ghosts.
    scheduler.start(1)
    fresh = scheduler.submit(op(env, 10.0, "post-recovery"))

    def wait():
        value = yield fresh
        return value

    assert run(env, wait()) == "post-recovery"


def test_submit_wakes_exactly_one_of_four_idle_workers():
    env, _metrics, scheduler = make_scheduler(workers=4)
    env.run()  # every worker parks on a wake event of its own
    parked = list(scheduler._idle)
    assert len(parked) == 4
    completion = scheduler.submit(op(env, 10.0, "done"))
    assert [wake.triggered for wake in parked] == [True, False, False, False]
    before = env.events_processed
    env.run()
    assert completion.value == "done"
    # The wake and the op's timeout: nothing else ran.  The worker parks
    # after the op, so its completion is dispatched inline.
    assert env.events_processed - before == 2
    # The served worker parked again, behind the three still idle.
    idle = list(scheduler._idle)
    assert len(idle) == 4 and idle[:3] == parked[1:]


def test_power_cut_inside_an_inline_request_fences_its_worker():
    env, metrics, scheduler = make_scheduler(workers=1)
    steps = []

    def slow():
        def body():
            steps.append("started")
            yield env.timeout(1_000.0)
            steps.append("finished")
            return "stale"

        return body()

    cut = scheduler.submit(slow)

    def drive():
        yield env.timeout(100.0)  # the worker is inside the request
        scheduler.power_loss(1)
        with pytest.raises(PowerLossError):
            yield cut
        scheduler.start(1)
        value = yield scheduler.submit(op(env, 10.0, "fresh"))
        return value, env.now

    assert run(env, drive()) == ("fresh", 110.0)
    env.run()  # the old worker finishes its request as a ghost
    assert steps == ["started", "finished"]
    assert metrics.total("cluster.sched.completed") == 1
    assert scheduler.inflight() == 0
    assert len(scheduler._idle) == 1  # only the new pool's worker parked


def test_power_loss_wakes_parked_workers_and_they_exit():
    env, _metrics, scheduler = make_scheduler(workers=4)
    env.run()
    parked = list(scheduler._idle)
    scheduler.power_loss(1)
    assert all(wake.triggered for wake in parked)
    assert not scheduler._idle
    env.run()
    # None of them parked again, so nothing serves a new request.
    assert not scheduler._idle
    orphan = scheduler.submit(op(env, 10.0, None))
    env.run()
    assert not orphan.triggered
