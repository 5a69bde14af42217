"""Seeded violation: KL-RES001 — pin and NVRAM leaks across calls.

The pin is taken by a helper (an interprocedural acquisition the old
per-function heuristic could not see); the caller's early return drops
it.  The NVRAM reservation leaks on the validation short-circuit.
"""


class LeakyStore:
    def __init__(self, env, nvram):
        self.env = env
        self.nvram = nvram
        self._pins = {}

    def _pin(self, block):
        self._pins[block] = self._pins.get(block, 0) + 1

    def _unpin(self, block):
        self._pins[block] -= 1

    def _grab(self, block):
        # Uniform producer: every exit hands the pin to the caller.
        self._pin(block)
        return block

    def read_block(self, block, resident):
        self._grab(block)
        if not resident:
            return None  # KL-RES001: exits holding the pin from _grab
        value = block * 2
        self._unpin(block)
        return value

    def stage(self, payload, accept):
        handle = yield self.nvram.reserve(len(payload))
        if not accept:
            return None  # KL-RES001: reservation never released
        yield self.env.timeout(1.0)
        self.nvram.release(handle)
        return handle

    def stage_fast(self, payload, accept):
        handle = self.nvram.try_reserve(len(payload))
        if handle is None:
            handle = yield self.nvram.reserve(len(payload))
        if not accept:
            return None  # KL-RES001: one reservation (try + its wait), leaked
        self.nvram.release(handle)
        return handle
