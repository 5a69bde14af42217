"""Lock-discipline lint: KL-LCK001 (acquire/release pairing).

Sites are identified by receiver text, canonicalised to
``ClassName.attr`` for ``self.*`` receivers.  Every latch-style
``X.acquire(...)`` must see a matching ``X.release*()`` in the same
function.  Lock *order* is checked at run time instead: under
``KAML_SANITIZE=1`` the ``SAN-LOCK`` recorder raises on the first
acquisition that closes a cycle (:mod:`repro.sanitize`).

Exemptions: classes that *implement* locks (``SimLock``, ``Resource``,
``LockTable``, ``LockManager``) and two-phase-locking managers, whose
releases happen at commit/abort by design (receivers aliasing
``LockManager``, e.g. ``self.locks``).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.core import (
    LintModule,
    TryThenWait,
    Violation,
    iter_functions,
    method_calls,
    receiver_text,
    register_pass,
)

#: Classes whose own methods are the lock implementation, not clients.
IMPLEMENTATION_CLASSES = {
    "SimLock", "Resource", "Gate", "LockTable", "LockManager",
    "LockOrderRecorder",
}

#: Receiver tails that denote a two-phase-locking manager: acquire here,
#: release at commit/abort in another function — exempt from pairing.
TWO_PHASE_RECEIVERS = {"locks", "lock_manager", "lockmanager"}

_RELEASE_METHODS = {"release", "release_all", "release_one"}


def _site(receiver: Optional[str], class_name: Optional[str]) -> Optional[str]:
    if receiver is None:
        return None
    if receiver == "self" or receiver.startswith("self."):
        owner = class_name or "<module>"
        attr = receiver[len("self."):] if receiver.startswith("self.") else ""
        return f"{owner}.{attr}" if attr else owner
    return receiver


def _unreleased(
    class_name: Optional[str], func: ast.FunctionDef
) -> List[Tuple[str, int]]:
    """Sites the function acquires (site, line) but never releases."""
    held: List[Tuple[str, int]] = []
    released: Set[str] = set()
    idiom = TryThenWait("acquire")
    for call in method_calls(func):
        method = call.func.attr
        site = _site(receiver_text(call.func.value), class_name)
        if site is None:
            continue
        acquires = idiom.acquires(method, site)
        if acquires is False:
            continue  # the contended wait of the try_acquire just counted
        if acquires:
            held.append((site, call.lineno))
        elif method in _RELEASE_METHODS:
            idiom.released(site)
            released.add(site)
            for position in range(len(held) - 1, -1, -1):
                if held[position][0] == site:
                    del held[position]
                    break
    return [(site, line) for site, line in held if site not in released]


def _is_two_phase(site: str) -> bool:
    return site.split(".")[-1].lower() in TWO_PHASE_RECEIVERS


@register_pass
def lck001_pairing(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-LCK001: latch-style locks release in the acquiring function."""
    findings = []
    for module in modules:
        for class_name, func in iter_functions(module.tree):
            if class_name in IMPLEMENTATION_CLASSES:
                continue
            for site, line in _unreleased(class_name, func):
                if _is_two_phase(site):
                    continue
                findings.append(
                    Violation(
                        "KL-LCK001",
                        str(module.path),
                        line,
                        func.col_offset,
                        f"`{func.name}` acquires {site} but never "
                        "releases it in any path through the function",
                    )
                )
    return findings
