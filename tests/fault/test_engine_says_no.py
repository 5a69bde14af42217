"""The scenario engine must be able to say *no*.

Every other ``tests/fault`` case is a green path through a correct
device.  Here the engine drives an in-memory fake — a dict behind the
target surface — that is healthy by default and can be given exactly one
defect; each defect must come back as ``ok == False`` with its own
failure text, or a green crash matrix would prove nothing.
"""

import pytest

from repro.errors import PowerLossError
from repro.fault.harness import SMOKE_KEY_BASE, group_keys, run_matrix, run_on
from repro.fault.plan import FaultPlan
from repro.sim import Environment

POINT = "put.after_nvram_pin"
ARMED = FaultPlan(point=POINT, hit=12)


class FakeTarget:
    """A durable dict: every put applies atomically where it announces
    its crash point.  ``defect`` breaks exactly one promise."""

    single_keys = 8
    value_sizes = (100,)
    group_roll = 0.9  # mostly group puts, so tearing has material
    ops_per_writer = 6
    smoke_ops = 2
    smoke_width = 1
    swallowed = ()
    metrics = recorder = None

    def __init__(self, defect=None):
        self.env = Environment()
        self.epoch = 0
        self.fault = None
        self.defect = defect
        self.group_keys = group_keys()
        self.data = {}
        self.puts = 0

    def setup(self):
        yield self.env.timeout(1.0)

    def power_loss(self):
        self.epoch += 1

    def put(self, items):
        epoch = self.epoch
        yield self.env.timeout(3.0)
        if self.epoch != epoch:
            return None  # crashed mid-command
        self.puts += 1
        if self.defect == "fires unarmed" and self.puts == 5:
            self.power_loss()
            raise PowerLossError("rogue cut")
        if self.fault is not None and self.defect != "mute":
            self.fault.reached(POINT)
        for key, value, _size in items:
            if not (self.defect == "smoke" and key >= SMOKE_KEY_BASE):
                self.data[key] = value
        return True

    def get(self, key):
        yield self.env.timeout(1.0)
        return self.data.get(key)

    def delete(self, key):
        epoch = self.epoch
        yield self.env.timeout(2.0)
        if self.epoch == epoch:
            self.data.pop(key, None)

    def drain(self):
        yield self.env.timeout(1.0)

    def recover(self):
        yield self.env.timeout(10.0)
        if self.defect == "recover raises":
            raise RuntimeError("mapping table unreadable")
        if self.defect == "forgets":
            self.data.clear()
        if self.defect == "tears":
            for keys in self.group_keys:
                self.data.pop(keys[0], None)

    def leftovers(self):
        if self.defect == "leftovers":
            return ["shard 0 still holds in-doubt prepares after recovery: {7: 3}",
                    "intent journal still open after recovery: [7]"]
        return []

    def facts(self):
        return {"fake": True}


def test_a_healthy_target_passes():
    counting = run_on(FakeTarget(), FaultPlan(), seed=1)
    assert counting["ok"] and not counting["crashed"], counting["failures"]
    assert counting["hits"][POINT] >= ARMED.hit
    cell = run_on(FakeTarget(), ARMED, seed=1)
    assert cell["ok"] and cell["crashed"], cell["failures"]
    assert cell["fired"]["point"] == POINT and cell["fake"] is True


@pytest.mark.parametrize(
    "defect, plan, text",
    [
        ("forgets", ARMED, "lost (key absent after recovery)"),
        ("tears", ARMED, "torn batch"),
        ("mute", ARMED, "never fired"),
        ("fires unarmed", FaultPlan(), "counting-pass injector fired"),
        ("recover raises", ARMED, "recovery failed: RuntimeError: mapping table"),
        ("leftovers", ARMED, "still holds in-doubt prepares"),
        ("leftovers", ARMED, "intent journal still open"),
        ("smoke", ARMED, "smoke key"),
    ],
)
def test_each_defect_yields_its_own_failure(defect, plan, text):
    cell = run_on(FakeTarget(defect), plan, seed=1)
    assert cell["ok"] is False
    assert any(text in failure for failure in cell["failures"]), cell["failures"]


def test_failures_do_not_bleed_into_each_other():
    """A failed recovery is judged on that alone — no read-back, no smoke."""
    cell = run_on(FakeTarget("recover raises"), ARMED, seed=1)
    assert len(cell["failures"]) == 1


def test_matrix_fails_a_point_the_counting_pass_never_reached():
    # Eight operations never fill a block, so GC never relocates.
    report = run_matrix([1], points=["gc.mid_relocation"], ops_per_writer=2)
    assert report["ok"] is False
    (cell,) = report["cells"]
    assert cell["point"] == "gc.mid_relocation" and not cell["crashed"]
    assert "never reached in the counting pass" in cell["failures"][0]
