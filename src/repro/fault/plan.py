"""Power-loss plans and the injector that executes them.

A :class:`FaultPlan` names *where* power is lost — a crash point the
data path announces (``put.before_nvram_pin``, ``log.mid_flush``,
``cluster.2pc.mid_commit``, ...) plus which occurrence of it, or an
absolute simulated time.  The :class:`PowerLossInjector` attached to
whatever announces those points (a :class:`~repro.kaml.ssd.KamlSsd` or a
whole :class:`~repro.cluster.KamlCluster` rack) counts every
announcement, and when the armed occurrence arrives it cuts power:
volatile state is discarded via the target's ``power_loss()`` (NVRAM
contents, completed flash programs and the host-durable intent journal
survive), then :class:`~repro.errors.PowerLossError` propagates out of
the raising sim process so the harness can stop the workload and drive
recovery.

Crash-point announcements are free when no injector is attached, and an
unarmed injector (``plan.point is None``) only counts — the counting
pass of the crash matrix uses that to learn how many occurrences a
workload produces without perturbing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import InvariantError, PowerLossError

#: Every crash point the data path announces, in data-path order.  The
#: crash matrix sweeps all of them; keep this tuple in sync with the
#: crash points :mod:`repro.kaml.put` announces and the ``_crash_point``
#: call sites in :mod:`repro.kaml.log`.
CRASH_POINTS = (
    # Put phase 1: the host transfer landed but the batch is not yet
    # pinned in NVRAM — the command must vanish without a trace.
    "put.before_nvram_pin",
    # Put phase 1: pinned but not yet versioned/acknowledged — the batch
    # must replay atomically or not at all.
    "put.after_nvram_pin",
    # Between the phase-2 flash programs and the phase-3 mapping-table
    # install — flash holds the records, NVRAM still owns the batch.
    "put.before_install",
    # GC copied a record to its new page but has not swapped the mapping.
    "gc.mid_relocation",
    # A full page assembly is about to program — the page may be torn.
    "log.mid_flush",
)

#: Crash points announced by the host-side cluster coordinator
#: (:mod:`repro.cluster`), not by a device.  A cut here powers down the
#: coordinator *and* every device at once; recovery replays the
#: coordinator's intent journal over the per-device NVRAM prepares.
CLUSTER_CRASH_POINTS = (
    # Every participant holds a durable prepare, but the commit decision
    # was never journaled — recovery must abort on all shards.
    "cluster.2pc.after_prepare",
    # The decision is journaled and a strict subset of participants has
    # committed — recovery must finish the commit on the rest.
    "cluster.2pc.mid_commit",
)

#: Every announceable crash point: device-side plus coordinator-side.
ALL_CRASH_POINTS = CRASH_POINTS + CLUSTER_CRASH_POINTS


@dataclass(frozen=True)
class FaultPlan:
    """Where (or when) to cut power.

    ``point`` is a :data:`CRASH_POINTS` name and ``hit`` selects its
    Nth announcement (1-based).  ``at_time`` instead cuts at an absolute
    simulated time, independent of crash points — the property tests use
    it to crash at seeded random instants.  ``point=None`` with no
    ``at_time`` is a counting-only plan that never fires.
    """

    point: Optional[str] = None
    hit: int = 1
    at_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.point is not None and self.point not in ALL_CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; choose from {ALL_CRASH_POINTS}"
            )
        if self.hit < 1:
            raise ValueError(f"hit is 1-based; got {self.hit}")


class PowerLossInjector:
    """Counts crash-point announcements and cuts power per a plan.

    ``target`` is whatever announces the points and loses the power — a
    :class:`~repro.kaml.ssd.KamlSsd`, a whole
    :class:`~repro.cluster.KamlCluster` rack, or a harness target
    wrapping either: anything with an ``env``, a ``fault`` slot and
    ``power_loss()``.
    """

    def __init__(self, target: Any, plan: FaultPlan):
        self.target = target
        self.plan = plan
        #: Announcements seen so far, per crash point (counting always
        #: happens, armed or not, so both matrix passes see it).
        self.hits: Dict[str, int] = {}
        #: Set once when the cut fires: ``{"point", "hit", "time_us"}``.
        self.fired: Optional[Dict[str, Any]] = None

    def attach(self) -> "PowerLossInjector":
        """Register with the target; crash points start reporting here."""
        if self.target.fault is not None and self.target.fault is not self:
            raise InvariantError(
                "SAN-FAULT", "target already has a fault injector attached"
            )
        self.target.fault = self
        if self.plan.at_time is not None:
            self.target.env.process(self._timer())
        return self

    def reached(self, name: str) -> None:
        """A data-path crash point announced itself."""
        count = self.hits.get(name, 0) + 1
        self.hits[name] = count
        if self.fired is not None:
            return  # power is already off; the caller is a ghost
        if self.plan.point == name and count == self.plan.hit:
            self._cut(name, count)

    def _timer(self) -> Any:
        env, at_time = self.target.env, self.plan.at_time
        env.try_advance(at_time) or (yield env.timeout(at_time))
        if self.fired is None:
            self._cut("timer", 0)

    def _cut(self, point: str, hit: int) -> None:
        """Cut power now: discard volatile state, then raise."""
        now = self.target.env.now
        self.fired = {"point": point, "hit": hit, "time_us": now}
        self.target.power_loss()
        raise PowerLossError(f"power lost at {point} (hit {hit}, t={now:.1f}us)")
