"""Host <-> SSD link: PCIe x4 Gen 3 carrying NVMe commands (Section V-A)."""

from __future__ import annotations

from typing import Any

from repro.config import InterconnectTimings
from repro.sim import Environment, Resource


class HostInterconnect:
    """Timed transfers over the PCIe link.

    The link is modeled as one full-bandwidth pipe per direction; command
    submission/completion overhead is a fixed per-command cost.  98% of
    ``Get`` latency in the paper is "hardware including the PCIe link and
    SSD internal latency" — this module is the PCIe share of that.
    """

    def __init__(self, env: Environment, timings: InterconnectTimings):
        self.env = env
        self.timings = timings
        self._to_device = Resource(env, capacity=1, name="pcie.tx")
        self._to_host = Resource(env, capacity=1, name="pcie.rx")
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        self.commands = 0

    def command_overhead(self) -> Any:
        """Submission queue doorbell + completion interrupt."""
        self.commands += 1
        command_us = self.timings.command_us
        self.env.try_advance(command_us) or (yield self.env.timeout(command_us))

    def _transfer(self, pipe: Resource, nbytes: int) -> Any:
        if nbytes <= 0:
            return
        request = pipe.try_acquire() or (yield pipe.request())
        try:
            wire_us = nbytes / self.timings.bytes_per_us
            self.env.try_advance(wire_us) or (yield self.env.timeout(wire_us))
        finally:
            pipe.release(request)

    def host_to_device(self, nbytes: int) -> Any:
        self.bytes_to_device += nbytes
        yield from self._transfer(self._to_device, nbytes)

    def device_to_host(self, nbytes: int) -> Any:
        self.bytes_to_host += nbytes
        yield from self._transfer(self._to_host, nbytes)
