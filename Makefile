# Tier-1 verification is `make check`: vet + build + race-enabled tests.
# The sharded runtime (internal/runtime) is concurrent, so -race is part
# of the default gate, not an optional extra.

GO ?= go

.PHONY: check vet build test race loc bench bench-runtime bench-harness bench-e2e bench-pairs bench-baseline bench-compare chaos chaos-net fuzz-seeds fuzz recover-smoke multiquery-smoke cluster-smoke profile profile-shed

check: vet build race fuzz-seeds chaos chaos-net recover-smoke multiquery-smoke cluster-smoke bench-harness profile-shed bench-compare

# Pinned so `go run` resolves one known-good version from the module
# cache or proxy. Offline (no proxy, cold cache) the probe fails and vet
# degrades to `go vet` alone instead of failing the gate.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2024.1.1

vet:
	$(GO) vet ./...
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "vet: $(STATICCHECK) unavailable (offline or cold module cache); skipping staticcheck"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Go lines under internal/ and cmd/, non-test beside test, so a move into
# _test.go shows in the same command: the size figures CHANGES.md quotes.
loc:
	@echo "non-test $$(find internal cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)  test $$(find internal cmd -name '*_test.go' | xargs cat | wc -l)"

# The chaos suite (docs/ROBUSTNESS.md + docs/DURABILITY.md +
# docs/CLUSTER.md): supervisor recovery, the circuit breaker,
# degradation ladder, corrupt-input, crash-recovery differentials (one
# runtime and a multi-query registry), every restore path (boot replay,
# restart, handoff import), kill-during-snapshot, node failure
# detection, cluster failover, concurrent fault-injection tests, the
# shared worker pool's bounds, the one fan-out pass (entry-point
# parity, log order under concurrent producers, what the router logs,
# the registry and router twins), the shard queue's bound and its
# isolation of queries under backpressure (OfferBlocks, Backpressure),
# and the runtime test rig's input log held to the registry's
# (RigWrites), always under the race detector.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Supervisor|CircuitBreaker|AllShardsFailed|DeadLetter|Rebuild|Degradation|Ladder|Admission|LineDecoder|Panic|Switchable|Chain|Corrupter|Stall|Healthz|Ingest|Recover|Recovery|Replay|Restart|Snapshot|Durab|WAL|Checkpoint|Torn|Monotone|FailStage|Failover|Placement|Detector|Takeover|Handoff|Cluster|Rendezvous|Steal|WorkSteal|Pool|EntryPointParity|LogOrder|RouterLogs|OnePass|RigWrites|OfferBlocks|Backpressure' \
		./internal/runtime ./internal/fault ./internal/shed ./internal/checkpoint ./internal/cluster ./internal/registry ./cmd/cepserved

# End-to-end durability drill: run the real server, SIGKILL it
# mid-stream, restart against the same -state-dir, and require recovery
# instead of a cold start (see TestRecoverSmoke).
recover-smoke:
	$(GO) test -count=1 -run RecoverSmoke ./cmd/cepserved

# End-to-end multi-tenant drill: two tenants x two queries registered
# over the admin API against one replayed stream; the low-priority
# tenant's Kleene query is driven into overload and the arbiter must
# degrade only that tenant while the other keeps full recall and sane
# p99, then drain cleanly (see TestMultiQuerySmoke, docs/MULTIQUERY.md).
multiquery-smoke:
	$(GO) test -count=1 -run MultiQuerySmoke ./cmd/cepserved

# End-to-end fault-tolerance drill: boot a 3-node cluster of real
# binaries on loopback, do one planned slot handoff, SIGKILL a node
# mid-stream, and require automatic failover to complete every match
# exactly once (see TestClusterSmoke, docs/CLUSTER.md). Offline-safe.
cluster-smoke:
	$(GO) test -count=1 -run ClusterSmoke -timeout 300s ./cmd/cepserved

# Network-partition chaos matrix (docs/CLUSTER.md, docs/ROBUSTNESS.md):
# deterministic fault injection on the inter-node links — dropped acks
# forcing idempotent retries, symmetric and asymmetric partitions,
# partition during handoff and during failover, topology reload with a
# node joining mid-stream — each run ending in a cluster-wide
# conservation audit. Always under the race detector.
chaos-net:
	$(GO) test -race -count=1 \
		-run 'TestChaosNet|TestDetectorAsymmetricPartition|TestTopologyReload|TestNetChaos' \
		./internal/cluster ./internal/fault

# Replay the checked-in fuzz corpora (seeds plus any minimized crashers)
# as a plain regression suite; part of `make check`.
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/runtime ./internal/query ./internal/checkpoint ./internal/cluster ./internal/mlkit

# Explore new inputs, FUZZTIME per target: the stream decoder, the line
# parser against its encoding/json oracle, then the k-means kernel and
# gap statistic against their straightforward oracles (bit for bit, rng
# draws included). Crashers land in testdata/fuzz/ — check them in.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNDJSON$$' -fuzztime $(FUZZTIME) ./internal/runtime
	$(GO) test -run '^$$' -fuzz '^FuzzParseEventFast$$' -fuzztime $(FUZZTIME) ./internal/runtime
	$(GO) test -run '^$$' -fuzz '^FuzzKMeansMatchesOracle$$' -fuzztime $(FUZZTIME) ./internal/mlkit

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Throughput scaling of the sharded runtime vs the sequential engine
# (numbers recorded in EXPERIMENTS.md).
bench-runtime:
	$(GO) test -bench 'BenchmarkRuntimeShards|BenchmarkRuntimeSequentialBaseline' -run '^$$' .

# The end-to-end benchmark BENCHMARK.json names (bench/README.md) is a Go
# module of its own that the root `go test ./...` does not see:
# bench-harness runs its unit tests (part of `make check`), bench-e2e the
# benchmark itself, all four workloads through the real cepserved.
bench-harness:
	cd bench && $(GO) test ./...

bench-e2e:
	bash bench/run.sh

# Perf trajectory (docs/PERFORMANCE.md): bench-baseline records
# BENCH_engine.json (engine hot path) on this machine; bench-compare
# re-measures it and fails when a workload's matches or virtual work per
# event differ from the baseline, or its allocs/event rose more than 5%;
# ns/event is printed, not gated. The serving path is measured by
# bench-e2e.
bench-baseline:
	$(GO) run ./cmd/cepbench -engine-bench -bench-out BENCH_engine.json

bench-compare:
	$(GO) run ./cmd/cepbench -engine-bench -bench-compare BENCH_engine.json

# Profile an overloaded async-planner run and prove from the pprof
# labels that shedding-set selection, the knapsack, and admission-table
# compilation never execute on a serving worker's stack (they must only
# appear under cep_role=shed_planner), and that no worker stack formats
# or hashes strings (what the cost-model bookkeeping once did per partial
# match and per epoch). Part of `make check`: if a future change moves
# either back onto the hot path, this fails loudly.
SHED_PROFILE ?= /tmp/cepshed-shed.pprof
profile-shed:
	$(GO) run ./cmd/cepbench -profile-shed $(SHED_PROFILE)
	@$(GO) tool pprof -traces $(SHED_PROFILE) | awk ' \
		function flush() { \
			if (inworker && sel) { bad++; printf "profile-shed: FORBIDDEN selection work on worker stack:\n%s", block } \
			if (sel && !inplanner) { stray++; printf "profile-shed: selection sample outside the shed_planner label:\n%s", block } \
			if (inworker && fmtw) { bad++; printf "profile-shed: FORBIDDEN string formatting/hashing on worker stack:\n%s", block } \
			inworker=0; inplanner=0; sel=0; fmtw=0; block="" \
		} \
		/^-----------\+/ { flush(); next } \
		{ block = block $$0 "\n" } \
		/cep_role: +worker/ { inworker=1; workers++ } \
		/cep_role: +shed_planner/ { inplanner=1; planner++ } \
		/SelectSheddingSet|selectFromPlanCells|knapsack\.|CompileAdmitTable/ { sel=1 } \
		/fmt\.Sprintf|hash\/maphash/ { fmtw=1 } \
		END { \
			flush(); \
			if (workers == 0) { print "profile-shed: no cep_role=worker samples; pprof labeling is broken"; exit 1 } \
			if (bad > 0 || stray > 0) { exit 1 } \
			print "profile-shed: ok — no selection/knapsack work and no Sprintf/maphash on " workers " worker sample block(s) (" planner " planner block(s) sampled)" \
		}'

# Grab a CPU profile from a running cepserved and open the pprof UI.
# The /debug/pprof routes share -admin-token; pass the same token here.
# Usage: make profile [HOST=localhost:8080] [SECONDS=10] [TOKEN=...]
HOST ?= localhost:8080
SECONDS ?= 10
TOKEN ?=
profile:
	@out=$$(mktemp /tmp/cepserved-cpu-XXXXXX.pb.gz); tok='$(TOKEN)'; \
	echo "profile: sampling $(HOST) for $(SECONDS)s -> $$out"; \
	curl -fsS $${tok:+-H "Authorization: Bearer $$tok"} \
		-o "$$out" "http://$(HOST)/debug/pprof/profile?seconds=$(SECONDS)" && \
	$(GO) tool pprof -top "$$out"

# Paired parent/change runs of one BENCHMARK.json workload with the
# choosing-metrics guide's verdict per metric (scripts/bench-pairs.sh).
# Usage: make bench-pairs PARENT=<rev> WORKLOAD=<name> [PAIRS=10] [SEED0=1]
PAIRS ?= 10
SEED0 ?= 1
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED0)
