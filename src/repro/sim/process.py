"""Generator-based simulation processes.

A process wraps a generator that yields :class:`~repro.sim.core.Event`
objects.  When a yielded event fires, the kernel resumes the generator with
the event's value (or throws the event's exception into it).  A process is
itself an event: it triggers with the generator's return value, so processes
can wait on each other simply by yielding them.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.core import Environment, Event, SimulationError, Timeout


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator inside the simulation."""

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: Environment, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current instant.
        bootstrap = Event(env)
        bootstrap._triggered = True
        bootstrap.add_callback(self._resume)
        env._schedule(bootstrap, 0.0)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        waiting_on = self._waiting_on
        if waiting_on is not None and waiting_on.callbacks is not None:
            try:
                waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not waiting_on.callbacks and isinstance(waiting_on, Timeout):
                # Nobody else is listening: the timeout would sit in the
                # heap as a ghost until its deadline.  Defuse it so the
                # environment can reclaim the entry.
                waiting_on.defuse()
        self._waiting_on = None
        throw = Event(self.env)
        throw._triggered = True
        throw._exception = Interrupt(cause)
        throw.add_callback(self._resume)
        self.env._schedule(throw, 0.0)

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        self._waiting_on = None
        previous, env.active_process = env.active_process, self
        # A loop, not recursion: a target that was already processed is fed
        # straight back in, however many of them the process yields in a row.
        while True:
            try:
                if event._exception is not None:
                    target = generator.throw(event._exception)
                else:
                    target = generator.send(event._value if event._triggered else None)
            except StopIteration as stop:
                env.active_process = previous
                self.succeed(stop.value)
                return
            except Interrupt as exc:
                # An unhandled interrupt terminates the process with that error.
                env.active_process = previous
                self.fail(exc)
                return
            except Exception as exc:
                env.active_process = previous
                if not self.callbacks:
                    # Nobody is waiting on this process; surface the bug loudly
                    # instead of recording a failure no one will observe.
                    raise
                self.fail(exc)
                return
            if not isinstance(target, Event):
                env.active_process = previous
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
            if target.env is not env:
                env.active_process = previous
                raise SimulationError("yielded an event from a different environment")
            if not target._processed:
                break
            event = target
        env.active_process = previous
        self._waiting_on = target
        if target.callbacks is None:
            target.callbacks = [self._resume]
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._triggered else "alive"
        return f"<Process {self.name} {state}>"
