# Developer entry points. CI runs the same commands (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-sanitized lint kamllint lint-deep format bench bench-aa bench-record bench-diff bench-smoke bench-perf bench-cluster prof perf-gate rebaseline obs-demo crash-matrix cluster-matrix record replay diff

test:
	$(PYTHON) -m pytest -x -q

# Tier-1 suite with the runtime invariant sanitizers armed (SAN-* checks).
test-sanitized:
	KAML_SANITIZE=1 $(PYTHON) -m pytest -x -q

lint:
	ruff check .
	ruff format --check src/repro/obs tests/obs

# Static protocol/determinism analysis; see docs/static-analysis.md.
kamllint:
	$(PYTHON) -m repro.analysis_tools src/repro

# Everything the CI lint-deep job runs: mypy gates hard on the strict
# obs/sim/cluster modules and stays advisory on the rest of the tree.
lint-deep: kamllint
	mypy -p repro.sim -p repro.obs -p repro.cluster
	-mypy src/repro

format:
	ruff format src/repro/obs tests/obs

# kamlbench, the two-clock per-layer benchmark of record (BENCHMARK.json is
# its contract, kamlbench/README.md its manual): `bench` runs all four
# workloads with both traced passes; `bench-aa` runs everything twice and
# insists the simulated/exact metrics repeat bit-for-bit.
bench:
	$(PYTHON) -m kamlbench run --seed 1

bench-aa:
	$(PYTHON) -m kamlbench aa --seed 1

# The committed trajectory: a PR that touches the measured path runs
# `make bench-record PR=<n>`, commits BENCH_<n>.json and adds its row to
# the table in docs/performance.md.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 2; }
	$(PYTHON) -m kamlbench run --seed 1 --out BENCH_$(PR).json

# Two committed records side by side: the trajectory row for TO, every
# end-to-end delta against its BENCHMARK.json bound, and a non-zero exit
# if a simulated/exact metric not listed in MOVED differs at all, e.g.
# `make bench-diff FROM=18 TO=19 MOVED=sim_events_per_op`; a MOVED entry
# may be scoped to one workload, `MOVED=cluster-2pc/sim_mean_us,...`.
bench-diff:
	@test -n "$(FROM)" -a -n "$(TO)" || { echo "usage: make bench-diff FROM=<n> TO=<n> [MOVED=[workload/]metric,...]"; exit 2; }
	$(PYTHON) benchmarks/bench_diff.py $(FROM) $(TO) --moved "$(MOVED)"

# The CI smoke benchmarks: Figure 5 leaves metrics + Chrome trace +
# flight-recorder artifacts in benchmarks/artifacts/ (the perf gate reads
# them); Figures 10 and 8 guard read and write parallelism, the QoS
# ablation guards read isolation (dies suspending programs for host reads).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_fig5_bandwidth.py -q
	$(PYTHON) -m pytest benchmarks/test_fig10_ycsb.py benchmarks/test_fig8_multilog.py \
		benchmarks/test_ablation_qos.py -q

# Simulator-throughput benchmark: deterministic sim-event counts (gated
# by perf-gate alongside the fig5 numbers) plus wall events/sec and
# ops/sec (printed, never gated).
bench-perf:
	mkdir -p benchmarks/artifacts
	$(PYTHON) -m repro.harness perf --json benchmarks/artifacts/perf.json

# kamlprof: critical-path latency breakdown + flamegraph + device
# telemetry for the canonical workload.  The JSON report's component
# fractions feed the perf gate's bottleneck-shift check.
prof:
	mkdir -p benchmarks/artifacts
	$(PYTHON) -m repro.harness prof --workload ycsb-b \
		--json-out benchmarks/artifacts/prof.json \
		--flame-out benchmarks/artifacts/prof.folded \
		--timeseries-out benchmarks/artifacts/timeseries.json

# Cluster serving-tier benchmark at the gated configuration (4 shards x
# 3 seeds); the artifact's aggregate throughput and rebalance p99 feed
# the perf gate.
bench-cluster:
	mkdir -p benchmarks/artifacts
	$(PYTHON) -m repro.harness cluster --shards 4 --seeds 1,2,3 \
		--json-out benchmarks/artifacts/cluster.json

# Compare the freshest smoke-bench + perf + prof + cluster artifacts
# against baseline.json.
perf-gate:
	$(PYTHON) benchmarks/compare_baseline.py

# Refresh the checked-in baseline after an *intentional* performance shift:
# re-runs the smoke bench, the throughput benchmark, the profiler, and
# the cluster tier, rewrites baseline.json with every gated metric, and
# you commit the result.
rebaseline: bench-smoke bench-perf prof bench-cluster
	$(PYTHON) benchmarks/compare_baseline.py --rebaseline

# Power-loss crash-consistency matrix: every crash point x 3 seeds, with
# runtime sanitizers armed — the same sweep the CI crash-matrix job runs.
crash-matrix:
	KAML_SANITIZE=1 $(PYTHON) -m repro.harness crash --matrix --seeds 1,2,3

# Sharded serving-tier matrix: shard counts x 3 seeds, each cell driving
# the multi-tenant workload plus a mid-run autobalancer migration, with
# runtime sanitizers armed — the same sweep the CI cluster-matrix job runs.
cluster-matrix:
	KAML_SANITIZE=1 $(PYTHON) -m repro.harness cluster \
		--shards 2,4,8 --seeds 1,2,3

obs-demo:
	$(PYTHON) -m repro.harness obs --ops 200 --slo-put-us 100 \
		--trace-out /tmp/kaml_trace.json --flight-out /tmp/kaml_flight.jsonl

# kamltrace: capture the canonical YCSB-B run as an op journal, replay
# it deterministically, and diff two seeds of the same workload (the
# empty diff is the noise floor the attribution thresholds are set by).
record:
	mkdir -p benchmarks/artifacts
	$(PYTHON) -m repro.harness record --workload ycsb-b \
		--out benchmarks/artifacts/ycsb-b.jsonl.gz

replay:
	$(PYTHON) -m repro.harness replay benchmarks/artifacts/ycsb-b.jsonl.gz \
		--mode closed --threads 1 \
		--json-out benchmarks/artifacts/replay.json

diff:
	$(PYTHON) -m repro.harness diff --workload mixed --seed-a 7 --seed-b 11 \
		--json-out benchmarks/artifacts/diff_seeds.json
