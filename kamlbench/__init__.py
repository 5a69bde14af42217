"""kamlbench: the two-clock, per-layer benchmark of record for the KAML
reproduction.  See ``kamlbench/README.md``; the contract the numbers are
held to is ``BENCHMARK.json`` at the repository root.
"""
