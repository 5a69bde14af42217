"""Clean fixture: pins and NVRAM reservations balance on every path.

The pin releases through ``finally`` (covering the early return), and
the NVRAM handle is handed to a spawned completion process whose net
release balances the caller — the ``put``/``_complete_put`` split.
"""


class PairedStore:
    def __init__(self, env, nvram):
        self.env = env
        self.nvram = nvram
        self._pins = {}

    def _pin(self, block):
        self._pins[block] = self._pins.get(block, 0) + 1

    def _unpin(self, block):
        self._pins[block] -= 1

    def _grab(self, block):
        self._pin(block)
        return block

    def read_block(self, block, resident):
        self._grab(block)
        try:
            if not resident:
                return None  # the finally below still unpins
            return block * 2
        finally:
            self._unpin(block)

    def stage(self, payload):
        handle = self.nvram.try_reserve(len(payload))
        if handle is None:
            handle = yield self.nvram.reserve(len(payload))
        return self.env.process(self._complete(handle))

    def _complete(self, handle):
        yield self.env.timeout(700.0)  # program the staged page
        self.nvram.release(handle)
