"""Discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: simulated time,
generator-based processes, one-shot events, queued resources, FCFS
timelines for holds of known length, and the lock and gate built on
them.  Every other subsystem in :mod:`repro` (flash chips, channels,
firmware, host threads) is expressed as processes scheduled by an
:class:`Environment`.  A process runs until it returns or raises, or
until :meth:`Process.kill` ends it where it is parked (a power cut ends
a device's processes so); nothing else interrupts a process.

Typical usage::

    env = Environment()

    def worker(env):
        yield env.timeout(5.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert proc.value == "done"
"""

from repro.sim.core import Environment, Event, Timeout, SimulationError
from repro.sim.process import Process
from repro.sim.resources import Resource, Request, Timeline
from repro.sim.sync import SimLock, Gate

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Request",
    "Timeline",
    "SimLock",
    "Gate",
    "SimulationError",
]
