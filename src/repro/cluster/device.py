"""The ``Device`` protocol: what the serving tier needs from a backend.

:class:`~repro.kaml.ssd.KamlSsd` satisfies this structurally — no
inheritance, no adapter.  Any future backend (a page-mapped FTL, a
remote device stub) plugs into :class:`~repro.cluster.KamlCluster` by
growing the same surface.  Every data-path method is a simulation
generator (``yield``-driven, run under :meth:`Environment.process`);
the return annotations stay ``Any`` because the sim kernel's generator
protocol is untyped by design (see ``repro.sim.core``).

The protocol splits into four groups:

* namespace management — ``create_namespace`` / ``delete_namespace``
* the data path — ``get`` / ``get_record`` / ``put`` / ``delete`` /
  ``scan`` / ``list_keys``
* the 2PC participant surface — ``prepare_batch`` (durable, undecided
  NVRAM pin: the first half of ``put``, :mod:`repro.kaml.put`),
  ``commit_prepared`` (its second half) / ``abort_prepared`` (the
  decision), and ``prepared_batches`` (in-doubt survey after recovery);
  prepare and commit take the coordinator's ``ctx`` and the span their
  own spans nest under
* the fault lifecycle — ``power_loss`` / ``recover``
  (:mod:`repro.kaml.recovery`) / ``drain`` / ``close``, plus the
  ``fault`` attachment slot and ``epoch`` fence that :mod:`repro.fault`
  drives
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.kaml.namespace import NamespaceAttributes
from repro.kaml.put import PutItem
from repro.obs import MetricsRegistry, SloTracker, SpanEvent, Tracer
from repro.obs.trace import TraceContext
from repro.sim import Environment


@runtime_checkable
class Device(Protocol):
    """Structural contract between the serving tier and one backend."""

    env: Environment
    metrics: MetricsRegistry
    tracer: Tracer
    slo: SloTracker
    #: Power-loss fencing epoch; bumped by :meth:`power_loss` so that
    #: pre-crash sim processes ("ghosts") die without mutating state.
    epoch: int
    #: Slot for a :class:`repro.fault.PowerLossInjector` (or None).
    fault: Optional[Any]

    # -- namespace management ------------------------------------------
    def create_namespace(
        self, attributes: Optional[NamespaceAttributes] = None
    ) -> Any: ...

    def delete_namespace(self, namespace_id: int) -> Any: ...

    # -- data path ------------------------------------------------------
    def get(self, namespace_id: int, key: int) -> Any: ...

    def get_record(
        self, namespace_id: int, key: int, ctx: Optional[TraceContext] = None
    ) -> Any: ...

    def put(
        self, items: List[PutItem], ctx: Optional[TraceContext] = None
    ) -> Any: ...

    def delete(self, namespace_id: int, key: int) -> Any: ...

    def scan(self, namespace_id: int, low: int, high: int) -> Any: ...

    def list_keys(self, namespace_id: int) -> Any: ...

    # -- 2PC participant surface ---------------------------------------
    def prepare_batch(
        self, items: List[PutItem], txn_id: int,
        ctx: Optional[TraceContext] = None, parent: Optional[SpanEvent] = None,
    ) -> Any: ...

    def commit_prepared(
        self, handle: int,
        ctx: Optional[TraceContext] = None, parent: Optional[SpanEvent] = None,
    ) -> Any: ...

    def abort_prepared(self, handle: int) -> Any: ...

    def prepared_batches(self) -> Dict[int, int]: ...

    # -- fault lifecycle ------------------------------------------------
    def power_loss(self) -> None: ...

    def recover(self) -> Any: ...

    def drain(self) -> Any: ...

    def close(self) -> None: ...
