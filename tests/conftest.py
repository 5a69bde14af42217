"""Session fixtures shared across tier-1 modules.

Each sweep runs once per session: its matrix test module and the
``matrices`` digest in ``tests/determinism/test_digests.py`` read the
same report.
"""

import pytest


@pytest.fixture(scope="session")
def crash_matrix():
    """Every crash point x seeds 1-3 (``tests/fault/test_crash_matrix.py``)."""
    from tests.fault.test_crash_matrix import run_crash_matrix

    return run_crash_matrix()


@pytest.fixture(scope="session")
def serving_matrix():
    """Shard counts 2/4/8 x seeds 1-3 (``tests/cluster/test_serving_matrix.py``)."""
    from tests.cluster.test_serving_matrix import run_serving_matrix

    return run_serving_matrix()
