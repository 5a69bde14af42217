#!/usr/bin/env python
"""Quickstart: talk to a simulated KAML SSD with the Table I commands.

Creates a namespace, performs an atomic multi-record Put, reads the
records back with Get, and prints what the device did — all inside the
discrete-event simulator, so the timings printed are simulated
microseconds on the modeled hardware (16 flash channels x 4 chips).

Run:  python examples/quickstart.py
"""

from repro.harness import build_kaml_ssd
from repro.kaml import NamespaceAttributes, PutItem


def main() -> None:
    env, ssd = build_kaml_ssd()

    def session():
        # A namespace is an independent key space with its own mapping
        # table in the SSD's DRAM (Section IV-C of the paper).
        namespace_id = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=1024)
        )
        print(f"created namespace {namespace_id} "
              f"({ssd.dram.used_bytes} B of on-board DRAM for its index)")

        # Atomic multi-record Put: either every record below lands, or
        # none do (Section IV-D's two-phase protocol).
        start = env.now
        yield from ssd.put([
            PutItem(namespace_id, 1, b"alpha", len(b"alpha")),
            PutItem(namespace_id, 2, b"beta", len(b"beta")),
            PutItem(namespace_id, 3, b"x" * 2048, 2048),   # variable sizes are native
        ])
        print(f"atomic Put of 3 records acknowledged in {env.now - start:.1f} "
              f"simulated us (committed in NVRAM, flash write in background)")

        for key in (1, 2, 3):
            start = env.now
            value = yield from ssd.get(namespace_id, key)
            shown = value if len(value) <= 8 else f"<{len(value)} bytes>"
            note = ""
            if key == 1:
                note = "  (first Get waits for the in-flight commit's index install)"
            print(f"Get({key}) -> {shown!r:20}  [{env.now - start:.1f} us]{note}")

        missing = yield from ssd.get(namespace_id, 99)
        print(f"Get(99) -> {missing} (absent keys return None)")

    proc = env.process(session())
    env.run()
    assert proc.ok

    puts = int(ssd.metrics.total("kaml.ssd.puts"))
    gets = int(ssd.metrics.total("kaml.ssd.gets"))
    print(f"\ndevice counters: {ssd.array.total_programs()} flash programs, "
          f"{ssd.array.total_reads()} flash reads, {puts} Puts, {gets} Gets")


if __name__ == "__main__":
    main()
