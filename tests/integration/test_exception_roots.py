"""Every error the stack raises is catchable as one class: ``ReproError``.

Walks each ``repro.*`` module and fails on an exception class defined
there that does not descend from the root.  The two exemptions are not
errors of the stack: ``Interrupt`` is sim-process control flow, and
``UnknownRuleError`` is argv validation that must stay a ``ValueError``.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.errors import ReproError

EXEMPT = {"Interrupt", "UnknownRuleError"}

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_exceptions_descend_from_repro_error(module_name):
    module = importlib.import_module(module_name)
    strays = [
        name
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module_name
        and issubclass(cls, BaseException)
        and not issubclass(cls, ReproError)
        and name not in EXEMPT
    ]
    assert not strays, f"{module_name}: re-parent {strays} to repro.errors.ReproError"


def test_the_walk_sees_the_stack():
    assert {"repro.kaml.ssd", "repro.sim.core", "repro.cluster.errors"} <= set(MODULES)
