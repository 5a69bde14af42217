"""Folding rules of the per-layer table (needs ``PYTHONPATH=src``)."""

import pytest

from kamlbench import layers
from kamlbench.workloads import Shadow


def test_source_paths_map_to_layers():
    assert layers.layer_of_path("/x/src/repro/sim/core.py") == "sim"
    assert layers.layer_of_path("/x/src/repro/ftl/mapping.py") == "kaml"
    assert layers.layer_of_path("/x/src/repro/obs/trace.py") == "obs"
    assert layers.layer_of_path("/x/kamlbench/driver.py") == "bench"
    assert layers.layer_of_path("/x/src/repro/config.py") is None
    assert layers.layer_of_path("~") is None
    assert layers.layer_of_path("/usr/lib/python3.11/heapq.py") is None


def test_builtins_bill_to_their_callers_and_roots_to_bench():
    sim = ("/x/src/repro/sim/core.py", 10, "run_until")
    cache = ("/x/src/repro/cache/buffer.py", 20, "read")
    config = ("/x/src/repro/config.py", 5, "chunks_per_page")
    push = ("~", 0, "<built-in method heappush>")
    length = ("~", 0, "<built-in method len>")
    root = ("~", 0, "<built-in method exec>")
    # rows are (cc, nc, tt, ct, callers); edges are (nc, cc, tt, ct)
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        sim: (10, 10, 4.0, 9.5, {root: (10, 10, 4.0, 9.5)}),
        cache: (20, 20, 2.0, 3.0, {sim: (20, 20, 2.0, 3.0)}),
        push: (30, 30, 1.5, 1.5, {sim: (30, 30, 1.5, 1.5)}),
        config: (8, 8, 1.0, 2.0, {cache: (6, 6, 0.75, 1.5), sim: (2, 2, 0.25, 0.5)}),
        length: (8, 8, 1.0, 1.0, {config: (8, 8, 1.0, 1.0)}),
    }
    time = layers._fold(stats, own=2, edge=2, up=3)
    assert time["sim"] == pytest.approx(4.0 + 1.5 + 0.25 + 1.0 * 0.25)
    assert time["cache"] == pytest.approx(2.0 + 0.75 + 1.0 * 0.75)
    assert time["bench"] == pytest.approx(0.5)
    assert sum(time.values()) == pytest.approx(10.0)
    calls = layers._fold(stats, own=1, edge=0, up=0)
    assert calls["sim"] == pytest.approx(10 + 30 + 2 + 8 * 0.25)
    assert calls["cache"] == pytest.approx(20 + 6 + 8 * 0.75)
    assert sum(calls.values()) == pytest.approx(1 + 10 + 20 + 30 + 8 + 8)


def test_bucket_percentile_interpolates_inside_the_bucket():
    bounds = (1.0, 2.0, 5.0, 10.0)
    assert layers.bucket_percentile([0, 0, 0, 0, 0], bounds, 0.99) == 0.0
    assert layers.bucket_percentile([100, 0, 0, 0, 0], bounds, 0.5) == pytest.approx(0.5)
    assert layers.bucket_percentile([50, 0, 50, 0, 0], bounds, 0.75) == pytest.approx(3.5)
    assert layers.bucket_percentile([0, 0, 0, 0, 7], bounds, 0.99) == 10.0


def test_shadow_accepts_either_order_of_overlapping_writes():
    shadow = Shadow()
    shadow.loaded(1, "load")
    assert shadow.accepts(1, "load") and not shadow.written
    shadow.wrote(1, 10.0, 20.0, "a")
    assert shadow.accepts(1, "a") and not shadow.accepts(1, "load")
    # "b" was issued before "a" was acknowledged: either may have won.
    shadow.wrote(1, 15.0, 30.0, "b")
    assert shadow.accepts(1, "a") and shadow.accepts(1, "b")
    # "c" started after both were acknowledged: only "c" can be read.
    shadow.wrote(1, 40.0, 50.0, "c")
    assert shadow.accepts(1, "c")
    assert not shadow.accepts(1, "a") and not shadow.accepts(1, "b")
    assert shadow.written == {1}
