"""The component -> owning subsystem table."""

from repro.obs.diff import COMPONENT_OWNERS
from repro.obs.profile import COMPONENTS


def test_every_component_has_an_owner():
    assert set(COMPONENT_OWNERS) == set(COMPONENTS)
