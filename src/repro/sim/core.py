"""Core of the discrete-event simulation kernel.

The kernel revolves around three ideas:

* :class:`Environment` owns the simulated clock and a priority queue of
  scheduled events.
* :class:`Event` is a one-shot occurrence.  Callbacks attached to an event
  run when the environment processes it.
* Processes (see :mod:`repro.sim.process`) are generators that ``yield``
  events; the kernel resumes them when the yielded event fires.

Time is a float in *microseconds* throughout :mod:`repro`; the kernel itself
is unit-agnostic.

Performance notes (see ``docs/performance.md`` for the full story):

* Events are slotted and their callback list is allocated lazily — most
  events carry exactly zero or one callback, so the common case does one
  list allocation at most.
* The dispatch loops in :meth:`Environment.run` / :meth:`run_until` inline
  the pop-advance-dispatch sequence with local variable bindings instead of
  calling :meth:`step` per event.
* Cancellation is cheap: :meth:`Event.defuse` turns a scheduled event into
  a guaranteed no-op without touching the heap; the ghost is popped like
  any other entry.
* Uncontended acquisitions and uninterrupted delays cost no event at
  all: when :meth:`Environment._would_run_next` proves that a grant
  scheduled now, or a timeout scheduled for ``now + delay``, would be the
  very next dispatch, ``Resource.try_acquire`` and friends hand the grant
  back inline and :meth:`Environment.try_advance` moves the clock inline,
  instead of pushing an event through the heap.
  :meth:`Environment.try_advance_to` is the same test for an absolute
  instant, the end of a hold booked on a :class:`~repro.sim.Timeline`.
* A completion nothing can overtake costs no event either: a process's
  return, or an ``all_of`` join fired by its last child, runs its
  callbacks on the spot (:meth:`Environment._finish`) when the completion
  would be the very next dispatch.  A finished process nobody waits on is
  processed on the spot (see :mod:`repro.sim.process`).
* ``Environment.now`` is a plain attribute the dispatch loops write (it
  is read some 26 times per cold Get); only the kernel may assign it.

Determinism contract: events are dispatched in exactly ``(time, priority,
sequence)`` order, where sequence numbers are handed out at schedule time.
Every optimisation here preserves that order bit-for-bit — the fixed-seed
digests in ``tests/determinism`` hold across the rewrite.  The only events
ever removed are provable no-ops: defused ghosts, and grants, delays and
completions that :meth:`Environment._would_run_next` shows would have been
popped next with nothing able to run in between.  The one exception is
event-only, not exact: a finished process nobody waits on (DESIGN.md,
"Event-only changes").
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ReproError

#: Event priorities.  Lower sorts earlier among events scheduled for the
#: same instant.  URGENT is used internally for resource handoffs so that a
#: released resource is re-granted before ordinary timeouts at the same time.
URGENT = 0
NORMAL = 1


class SimulationError(ReproError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence inside an :class:`Environment`.

    An event starts *pending*, becomes *triggered* once it has a value (or
    an exception) and is scheduled, and *processed* after its callbacks ran.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_triggered",
                 "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        # Lazily allocated: None means "no callbacks registered yet" while
        # pending, and "consumed" once processed (see _processed).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        # Environment._schedule, flattened as in Timeout.__init__.
        env = self.env
        env._eid = eid = env._eid + 1
        queue = env._queue
        heappush(queue, (env.now, priority, eid, self))
        if len(queue) > env._queue_high:
            env._queue_high = len(queue)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event get the exception thrown into them.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self, 0.0, priority)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            # Already processed: run immediately so late listeners still fire.
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def defuse(self) -> None:
        """Cheaply cancel a scheduled event: drop its listeners and let the
        heap entry become a no-op instead of deleting it.

        Contract: the caller guarantees nothing will wait on this event
        afterwards.  The ghost stays in the heap until it is popped: its
        dispatch moves the clock and counts in ``events_processed`` as the
        live event's would have.
        """
        self.callbacks = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Two thirds of all events are timeouts: Event.__init__ and
        # Environment._schedule are flattened into this one body.
        self.env = env
        self.callbacks = None
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        env._eid = eid = env._eid + 1
        queue = env._queue
        heappush(queue, (env.now + delay, NORMAL, eid, self))
        if len(queue) > env._queue_high:
            env._queue_high = len(queue)


class Environment:
    """Owns simulated time and the pending-event queue."""

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time; written by the dispatch loops only.
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Total events dispatched over the environment's lifetime (what
        #: kamlbench's ``sim_events_per_op`` and the event-count test count).
        self.events_processed = 0
        self.active_process = None  # set by Process while it runs
        #: Deepest the heap has been; only a push can set a new high, so
        #: it is tracked there and read on demand (:meth:`attach_metrics`).
        self._queue_high = 0
        self._metrics_attached = False
        #: True while the event being dispatched still has callbacks left
        #: to run after the current one (see :meth:`_would_run_next`).
        self._fanning_out = False
        #: Latest instant :meth:`try_advance` may carry the clock to:
        #: ``until`` while :meth:`run` has one.
        self._horizon = float("inf")
        #: The event :meth:`run_until` is running until, while it runs.
        self._until: Optional[Event] = None
        #: ``timeout(delay, value=None)``: bound once here so that making a
        #: timeout runs one Python frame, :class:`Timeout`'s constructor.
        self.timeout: Callable[..., Timeout] = partial(Timeout, self)

    def attach_metrics(self, registry) -> None:
        """Track the pending-event queue depth in ``registry``.

        The gauge's high-water mark exposes how much concurrent work the
        simulated system keeps in flight.  First caller wins: one stack
        root (the SSD under test) owns an environment's gauge.
        """
        if not self._metrics_attached:
            self._metrics_attached = True
            registry.polled_gauge(
                "sim.queue_depth",
                lambda: (float(len(self._queue)), float(self._queue_high)),
            )

    @property
    def queue_depth(self) -> int:
        """Pending heap entries, defused ghosts included."""
        return len(self._queue)

    # -- event construction helpers -------------------------------------

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator, registry: Optional[dict] = None) -> "Process":
        """Spawn ``generator``; its first step runs at a bootstrap event
        dispatched at the current instant.  With a ``registry`` (a dict of
        live processes) the process joins it until it ends."""
        from repro.sim.process import Process

        process = Process(self, generator, registry=registry)
        bootstrap = Event(self)
        bootstrap._triggered = True
        bootstrap.callbacks = [process._resume]
        self._schedule(bootstrap, 0.0)
        return process

    def start(self, generator: Generator, registry: Optional[dict] = None) -> "Process":
        """Spawn ``generator`` (into ``registry``, as :meth:`process` does)
        and run its first step now, inside the caller's step, instead of at
        a bootstrap dispatched later in this instant (the idea of Python
        3.12's eager asyncio tasks).

        This moves the child's first step ahead of every other event of
        the instant, so it is a model choice, not a provable no-op.  The
        step runs with ``_fanning_out`` set: the spawner's step is not
        over, so no grant, delay or completion may be taken inline during
        it.  A first step that returns leaves the process processed on the
        spot; one that raises propagates to the caller.
        """
        from repro.sim.process import Process

        process = Process(self, generator, registry=registry)
        first = Event(self)
        first._triggered = True
        fanning_out, self._fanning_out = self._fanning_out, True
        try:
            process._resume(first)
        finally:
            self._fanning_out = fanning_out
        return process

    def all_of(self, events) -> Event:
        """An event that fires when every one of ``events`` has fired."""
        events = list(events)
        result = self.event()
        remaining = [len(events)]
        if not events:
            result.succeed([])
            return result
        joined = False  # True once every child holds on_fire

        def on_fire(event: Event) -> None:
            if result.triggered:
                return
            if not event.ok:
                result.fail(event._exception)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                values = [e._value for e in events]
                if joined:
                    # The last child's dispatch: this is its callback's last act.
                    self._finish(result, values)
                else:
                    # Every child had fired already; the caller carries on.
                    result.succeed(values)

        for event in events:
            event.add_callback(on_fire)
        joined = True
        return result

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        self._eid = eid = self._eid + 1
        queue = self._queue
        heappush(queue, (self.now + delay, priority, eid, event))
        if len(queue) > self._queue_high:
            self._queue_high = len(queue)

    def _would_run_next(self, priority: int, delay: float = 0.0) -> bool:
        """Would an event scheduled for ``now + delay`` at ``priority`` be
        the very next dispatch?

        True when nothing can run before it: the event being dispatched
        has no further callbacks, and no heap entry sorts ahead of
        ``(now + delay, priority, <fresh sequence number>)`` — every entry
        already at that instant with that priority or a more urgent one
        holds an older sequence number and would go first (a ghost counts:
        refusing is always safe).  A caller that would schedule such an
        event and immediately yield it may skip both: the push, the pop
        and the resume decide nothing, so every timestamp and the
        relative order of all other events stay as they were.
        """
        if self._fanning_out:
            return False
        queue = self._queue
        if not queue:
            return True
        head = queue[0]
        when = self.now + delay
        return head[0] > when or (head[1] > priority and head[0] == when)

    def try_advance(self, delay: float) -> bool:
        """Take ``delay`` inline when ``timeout(delay)`` would be the very
        next dispatch: ``env.try_advance(d) or (yield env.timeout(d))``.

        On ``True`` the clock stands where that timeout would have put it
        and the caller carries on exactly as if resumed by it; on ``False``
        nothing was touched.  A delay, unlike a grant, can carry a process
        past the point where the running loop hands control back, so it
        is also refused beyond ``run(until=...)``, and (as fan-out) in
        ``step()`` and in the last dispatch of ``run_until``.

        The test is :meth:`_would_run_next` ``(NORMAL, delay)``, inlined:
        most tries on a busy schedule refuse, and a refusal should cost
        one evaluation, not a second call.
        """
        when = self.now + delay  # the float Timeout.__init__ would push
        if 0 <= delay and when <= self._horizon and not self._fanning_out:
            queue = self._queue
            if not queue or queue[0][0] > when or (
                queue[0][0] == when and queue[0][1] > NORMAL
            ):
                self.now = when
                return True
        return False

    def try_advance_to(self, when: float) -> bool:
        """Move the clock to the absolute instant ``when`` inline when
        ``timeout_at(when)`` would be the very next dispatch:
        ``env.try_advance_to(t) or (yield env.timeout_at(t))``.

        The same test and the same refusals as :meth:`try_advance`, at
        ``when`` itself rather than at ``now + (when - now)``, which can
        land an ulp away.
        """
        if self.now <= when <= self._horizon and not self._fanning_out:
            queue = self._queue
            if not queue or queue[0][0] > when or (
                queue[0][0] == when and queue[0][1] > NORMAL
            ):
                self.now = when
                return True
        return False

    def timeout_at(self, when: float) -> Event:
        """An event that fires at the absolute instant ``when``, scheduled
        as a ``NORMAL`` timeout would be."""
        if when < self.now:
            raise SimulationError(f"timeout_at({when}) is in the past (now={self.now})")
        event = Event(self)
        event._triggered = True
        self._eid = eid = self._eid + 1
        queue = self._queue
        heappush(queue, (when, NORMAL, eid, event))
        if len(queue) > self._queue_high:
            self._queue_high = len(queue)
        return event

    def _finish(self, event: Event, value: Any) -> None:
        """Succeed ``event`` at ``now`` as the last act of the callback
        running: a process returning, an ``all_of`` join's last child.

        When :meth:`_would_run_next` ``(NORMAL)`` holds — no callback of
        the current dispatch is left, and no heap entry (a ghost counts) is
        at ``now`` — the completion would be the very next pop, so its
        callbacks run here, with the loops' fan-out bookkeeping, instead of
        through a push and a pop.  Such an inline dispatch is not counted in
        ``events_processed``.  ``run_until``'s target always goes through
        the heap: its dispatch is that loop's last.
        """
        event._triggered = True
        event._value = value
        if event is self._until or not self._would_run_next(NORMAL):
            self._schedule(event, 0.0)
            return
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if callbacks:
            last = callbacks.pop()
            if callbacks:
                self._fanning_out = True
                for callback in callbacks:
                    callback(event)
                self._fanning_out = False
            last(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _priority, _eid, event = heappop(self._queue)
        self.now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if callbacks:
            # The caller decides what happens after this one dispatch, so
            # nothing it resumes is provably next: all of it fans out.
            self._fanning_out = True
            try:
                for callback in callbacks:
                    callback(event)
            finally:
                self._fanning_out = False

    def run_until(self, event: Event) -> None:
        """Run until ``event`` triggers.

        Unlike :meth:`run`, this terminates even when perpetual background
        processes (checkpointers, pollers) keep the schedule non-empty.
        """
        # Inlined dispatch loop; see run() for the rationale.
        queue = self._queue
        pop = heappop
        dispatched = 0
        self._until = event
        try:
            while not event._processed:
                if not queue:
                    raise SimulationError(
                        "run_until: event can never fire (schedule empty)"
                    )
                when, _priority, _eid, popped = pop(queue)
                self.now = when
                dispatched += 1
                callbacks, popped.callbacks = popped.callbacks, None
                popped._processed = True
                if callbacks:
                    # Same fan-out bookkeeping as run(), except that the
                    # target's dispatch is this loop's last: the caller
                    # runs next, so all of it fans out.
                    last = None if popped is event else callbacks.pop()
                    if callbacks:
                        self._fanning_out = True
                        for callback in callbacks:
                            callback(popped)
                        self._fanning_out = False
                    if last is not None:
                        last(popped)
        finally:
            self._fanning_out = False
            self._until = None
            self.events_processed += dispatched

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        # Hot loop: pop-advance-dispatch with local bindings instead of a
        # step() call per event, without the per-event method call and
        # attribute traffic (and, unlike step(), with the fast paths on).
        queue = self._queue
        pop = heappop
        dispatched = 0
        if until is not None:
            self._horizon = until
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self.now = until
                    return
                when, _priority, _eid, event = pop(queue)
                self.now = when
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if callbacks:
                    # All but the last callback run with _fanning_out set:
                    # code they resume is not the last thing this dispatch
                    # does, so an event it schedules is not provably next.
                    last = callbacks.pop()
                    if callbacks:
                        self._fanning_out = True
                        for callback in callbacks:
                            callback(event)
                        self._fanning_out = False
                    last(event)
        finally:
            self._fanning_out = False
            self._horizon = float("inf")
            self.events_processed += dispatched
        if until is not None:
            self.now = until
