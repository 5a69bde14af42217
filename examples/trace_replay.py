#!/usr/bin/env python
"""Trace capture and replay against the simulated KAML SSD.

Production KV traces are proprietary, so this repo ships a synthetic
generator that emits the kamltrace op-journal schema (the same rows a
live capture records).  This example preconditions a namespace,
synthesizes a hot-key skewed mixed journal, saves and reloads it, replays
it closed-loop, and prints latency percentiles plus the device's wear
report.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

from repro.analysis import summarize, wear_report
from repro.harness import build_kaml_ssd, format_kv
from repro.obs import load_journal, mix_summary, write_journal
from repro.workloads import journal_to_issues, replay_journal, synth_hotkey
from repro.workloads.micro import kaml_populate
from repro.workloads.oltp import drive


def main() -> None:
    env, ssd = build_kaml_ssd()
    nsid = drive(env, ssd.create_namespace())

    # Precondition: fill 1,000 keys, then replay a hot-key 70/30 mix.
    kaml_populate(env, ssd, nsid, keys=1000, value_size=1024)
    rows = synth_hotkey(
        operations=800,
        key_space=1000,
        read_fraction=0.7,
        value_size=1024,
        namespace=nsid,
        seed=21,
    )

    # The same journal can be saved and reloaded (gzipped JSONL).
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "hotkey.jsonl.gz")
        write_journal(path, rows)
        reloaded = load_journal(path)
    assert reloaded == rows

    result = replay_journal(env, ssd, journal_to_issues(reloaded), threads=8)
    latency = summarize(result.latencies_us)
    print(format_kv("Journal replay (hot-key, 70% reads, 8 threads)", {
        "operations": result.ops,
        "journal working set": mix_summary(reloaded)["working_set"],
        "throughput ops/s": result.ops_per_second,
        "mean latency us": latency.mean_us,
        "p95 latency us": latency.p95_us,
        "p99 latency us": latency.p99_us,
    }))

    wear = wear_report(ssd)
    print()
    print(format_kv("Device wear after the run", {
        "host MB written": wear.host_bytes_written / 1e6,
        "flash MB programmed": wear.flash_bytes_programmed / 1e6,
        "write amplification": wear.write_amplification,
        "mean erase count": wear.mean_erase_count,
        "life used %": wear.life_used * 100,
    }))


if __name__ == "__main__":
    main()
