import time
from pathlib import Path

import pytest

from repro.analysis_tools import run_analysis

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def whole_tree_lint():
    """The suite's one lint of the production tree, with its wall time."""
    start = time.monotonic()
    report = run_analysis([str(SRC)])
    return report, time.monotonic() - start
