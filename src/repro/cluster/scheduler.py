"""Per-shard request scheduling with bounded queues and admission control.

Each shard owns a FIFO queue and a small pool of worker processes that
drain it onto the device.  The queue is bounded two ways:

* **capacity** — at most ``queue_limit`` requests may wait; request
  ``queue_limit + 1`` is shed immediately (``cluster.shed`` with
  ``reason="queue_full"``, the 429 of this tier).
* **SLO budget** — admission estimates the wait a new request would see
  (queued requests x the shard's EWMA service time / workers) and sheds
  up front when the estimate already exceeds the tenant's queue budget
  (``reason="slo_budget"``).  Shedding early is strictly better than
  serving late: the device does no work for a request that was going to
  breach anyway.

Admission is synchronous — :meth:`ShardScheduler.submit` either returns
a completion :class:`~repro.sim.Event` (yield it to wait) or raises
:class:`~repro.cluster.errors.AdmissionError` before any simulated time
passes.  An admitted request wakes one idle worker, the one idle
longest, and the worker runs the device op in its own frame.  Workers
are epoch-fenced like every other sim process in this stack: a cluster
power cut bumps the epoch, fails every queued and in-flight completion
with :class:`~repro.errors.PowerLossError`, wakes every idle worker, and
the old workers die as ghosts; recovery respawns a fresh pool.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.cluster.errors import AdmissionError
from repro.errors import PowerLossError
from repro.obs import MetricsRegistry
from repro.sim import Environment, Event


class _Request:
    """One queued unit of work: a device-op factory plus its completion."""

    __slots__ = ("factory", "completion", "tenant", "enqueued_us")

    def __init__(
        self,
        factory: Callable[[], Any],
        completion: Event,
        tenant: Optional[str],
        enqueued_us: float,
    ):
        self.factory = factory
        self.completion = completion
        self.tenant = tenant
        self.enqueued_us = enqueued_us


class ShardScheduler:
    """Bounded FIFO queue + worker pool in front of one device."""

    #: EWMA smoothing for the per-shard service-time estimate.
    EWMA_ALPHA = 0.2
    #: Seed estimate before the first completion (a typical single-device
    #: Get/Put costs tens of microseconds in the default geometry).
    SEED_SERVICE_US = 50.0

    def __init__(
        self,
        env: Environment,
        shard_id: int,
        metrics: MetricsRegistry,
        queue_limit: int = 64,
        workers: int = 4,
    ):
        self.env = env
        self.shard_id = shard_id
        self.queue_limit = queue_limit
        self.workers = workers
        #: Mirrors the cluster epoch; workers spawned for an older epoch
        #: observe the mismatch and die without touching the queue.
        self.epoch = 0
        self.service_ewma_us = self.SEED_SERVICE_US
        self._queue: Deque[_Request] = deque()
        self._inflight: List[_Request] = []
        #: Wake events of the idle workers, longest idle first.
        self._idle: Deque[Event] = deque()
        shard = str(shard_id)
        self._admitted_counter = metrics.counter("cluster.sched.admitted", shard=shard)
        self._completed_counter = metrics.counter("cluster.sched.completed", shard=shard)
        self._shed_full_counter = metrics.counter(
            "cluster.shed", shard=shard, reason="queue_full"
        )
        self._shed_budget_counter = metrics.counter(
            "cluster.shed", shard=shard, reason="slo_budget"
        )
        self._depth_gauge = metrics.gauge("cluster.queue.depth", shard=shard)
        self._wait_histogram = metrics.histogram("cluster.queue.wait_us", shard=shard)
        self._service_histogram = metrics.histogram(
            "cluster.sched.service_us", shard=shard
        )

    # -- queue state -----------------------------------------------------

    def depth(self) -> int:
        return len(self._queue)

    def inflight(self) -> int:
        return len(self._inflight)

    def estimated_wait_us(self) -> float:
        """Queue wait a newly admitted request would see (EWMA model)."""
        backlog = len(self._queue) + len(self._inflight)
        return backlog * self.service_ewma_us / max(1, self.workers)

    # -- admission -------------------------------------------------------

    def submit(
        self,
        factory: Callable[[], Any],
        tenant: Optional[str] = None,
        queue_budget_us: Optional[float] = None,
    ) -> Event:
        """Admit one request or shed it; returns the completion event.

        ``factory`` must build a *fresh* device-op generator each call —
        a worker instantiates it only once the request reaches the head
        of the queue.
        """
        if len(self._queue) >= self.queue_limit:
            self._shed_full_counter.inc()
            raise AdmissionError(
                self.shard_id,
                "queue_full",
                f"{len(self._queue)} queued >= limit {self.queue_limit}",
            )
        if queue_budget_us is not None:
            estimate = self.estimated_wait_us()
            if estimate > queue_budget_us:
                self._shed_budget_counter.inc()
                raise AdmissionError(
                    self.shard_id,
                    "slo_budget",
                    f"estimated wait {estimate:.0f}us exceeds "
                    f"tenant budget {queue_budget_us:.0f}us",
                )
        self._admitted_counter.inc()
        request = _Request(factory, Event(self.env), tenant, self.env.now)
        self._queue.append(request)
        self._depth_gauge.set(len(self._queue))
        if self._idle:
            self._idle.popleft().succeed()
        return request.completion

    # -- worker pool -----------------------------------------------------

    def start(self, epoch: int) -> None:
        """(Re)spawn the worker pool for ``epoch``."""
        self.epoch = epoch
        for _worker_id in range(self.workers):
            self.env.process(self._worker(epoch))

    def _worker(self, epoch: int) -> Any:
        while self.epoch == epoch:
            if not self._queue:
                self._idle.append(self.env.event())
                yield self._idle[-1]
                continue
            request = self._queue.popleft()
            self._depth_gauge.set(len(self._queue))
            self._wait_histogram.observe(self.env.now - request.enqueued_us)
            self._inflight.append(request)
            start_us = self.env.now
            # Begin where a child process's bootstrap would have run, so
            # the request keeps its place among same-instant rivals.
            self.env.try_advance(0.0) or (yield self.env.timeout(0.0))
            try:
                value = yield from request.factory()
            except Exception as exc:
                if self.epoch != epoch:
                    # Power was cut under this request; power_loss()
                    # already failed its completion.  Die as a ghost.
                    return
                self._inflight.remove(request)
                self._observe_service(self.env.now - start_us)
                request.completion.fail(exc)
                continue
            if self.epoch != epoch:
                return
            self._inflight.remove(request)
            self._observe_service(self.env.now - start_us)
            self._completed_counter.inc()
            if self._queue:
                # Inline, the client's next submit would overtake the
                # worker's next request: go through the heap.
                request.completion.succeed(value)
                continue
            # About to park: idle first, so a submit from the completion's
            # callbacks can wake this worker, then complete as the step's
            # last scheduling act.
            wake = self.env.event()
            self._idle.append(wake)
            self.env._finish(request.completion, value)
            yield wake

    def _observe_service(self, service_us: float) -> None:
        self._service_histogram.observe(service_us)
        self.service_ewma_us += self.EWMA_ALPHA * (service_us - self.service_ewma_us)

    # -- fault lifecycle -------------------------------------------------

    def power_loss(self, epoch: int) -> None:
        """Cluster power cut: fail every queued/in-flight completion.

        ``epoch`` is the cluster's new (post-cut) epoch; workers spawned
        for the old epoch see the mismatch and die.  Callers waiting on
        a completion get :class:`PowerLossError` thrown into them, the
        same contract a single device gives its in-flight commands.
        """
        self.epoch = epoch
        dropped = list(self._queue) + self._inflight
        self._queue.clear()
        self._inflight = []
        self._depth_gauge.set(0)
        for request in dropped:
            if not request.completion.triggered:
                request.completion.fail(
                    PowerLossError(f"cluster power lost (shard {self.shard_id})")
                )
        # Wake idle workers so they observe the epoch change and exit.
        while self._idle:
            self._idle.popleft().succeed()
