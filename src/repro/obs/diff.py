"""Which subsystem owns each kamlprof component.

kamlbench imports the table from here to fold span time into its
per-layer ``<layer>.sim_share`` metrics (the layer is the owner's first
dotted part); ``benchmarks/bench_diff.py`` names the layer that moved
between two records by the same prefixes.
"""

from __future__ import annotations

from typing import Dict

#: Which subsystem owns each kamlprof component — the attribution step
#: that turns "nand_wait grew 6pp" into "look at flash.chip".
COMPONENT_OWNERS: Dict[str, str] = {
    "host_transfer": "ssd.interconnect",
    "cache_cpu": "cache.buffer",
    "firmware_cpu": "ssd.firmware",
    "index_cpu": "kaml.namespace.index",
    "lock_wait": "cache.locks",
    "nvram_wait": "ssd.nvram",
    "nvram_pin": "ssd.nvram",
    "log_append": "kaml.log",
    "bus_wait": "flash.channel",
    "bus_transfer": "flash.channel",
    "nand_wait": "flash.chip",
    "nand_read": "flash.chip",
    "nand_program": "flash.chip",
    "nand_erase": "flash.chip",
    "gc_wait": "kaml.gc",
    "background": "kaml.put.background",
    "cluster": "cluster.serving",
    "other": "unattributed",
}
