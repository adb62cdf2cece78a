GO ?= go
BENCHTIME ?= 1s

.PHONY: build test vet lint race race-serving guards bench bench-json bench-saturation bench-cluster fuzz-kernel fuzz-wire fuzz-snapshot serve integration cluster-e2e window-e2e ns-e2e elastic-e2e reshard-e2e obs-smoke sim-multi-seed loadgen-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# loc prints the non-test Go lines of each package and their total,
# summed over the GoFiles `go list` reports; PKGS narrows it, e.g.
# make loc PKGS="./server ./server/ns ./client".
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}} {{join .GoFiles " "}}' $(or $(PKGS),./...) | \
	while read -r dir pkg files; do \
		n=0; if [ -n "$$files" ]; then n=$$(cd "$$dir" && cat $$files | wc -l); fi; \
		printf '%6d %s\n' "$$n" "$$pkg"; \
	done | awk '{ t += $$1; print } END { printf "%6d total\n", t }'

# lint runs staticcheck when it is installed; vet is the floor either
# way (the CI lint job installs staticcheck explicitly).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only"; \
	fi

race:
	$(GO) test -race ./...

# race-serving focuses the race detector on the concurrent serving stack
# (server, replication, clients) and the sharded filter and elastic chain
# under it, whose batch ops plan on several goroutines while readers hold
# shard locks (TestBatchInsertConcurrentWithQueries), without the -short
# gating CI applies to the full tree, and compiles every CLI (including
# mpcbf-trace) under the race detector so instrumented builds stay green.
# Tests run shuffled, so an order-dependent failure prints the seed that
# reproduces it (go test -shuffle=<seed>).
race-serving:
	$(GO) build -race ./cmd/...
	$(GO) test -race -shuffle=on -count=1 . ./elastic ./server/... ./cluster/... ./client/... ./window/...

# guards runs every allocation guard (*Alloc*) and resident-set test
# (*Resident*) without the race detector: its instrumentation allocates,
# so the allocation guards skip under -race, and its shadow memory
# swamps the resident-set signal.
guards:
	$(GO) test -short -count=1 -run 'Alloc|Resident' ./...

bench:
	$(GO) test -run '^$$' -bench 'Ops' -benchtime $(BENCHTIME) .

# bench-json runs the word-kernel benchmark pairs and records the ns/op
# numbers (plus kernel-vs-generic speedups) in BENCH_kernel.json.
bench-json:
	$(GO) test -run '^$$' -bench 'Benchmark(Kernel|Generic|OpsMPCBF1)' \
		-benchtime $(BENCHTIME) . | tee /tmp/bench_kernel.txt
	awk ' \
	  /^Benchmark/ { \
	    name = $$1; sub(/-[0-9]+$$/, "", name); \
	    ns[name] = $$3; order[n++] = name; \
	  } \
	  END { \
	    printf "{\n  \"geometry\": {\"w\": 64, \"k\": 3, \"g\": 1, \"memory_bits\": 8388608},\n"; \
	    printf "  \"ns_per_op\": {\n"; \
	    for (i = 0; i < n; i++) { \
	      printf "    \"%s\": %s%s\n", order[i], ns[order[i]], (i < n-1 ? "," : ""); \
	    } \
	    printf "  },\n  \"speedups\": {\n"; \
	    printf "    \"insert_delete_kernel_vs_generic\": %.2f,\n", \
	      ns["BenchmarkGenericInsertDelete"] / ns["BenchmarkKernelInsertDelete"]; \
	    printf "    \"contains_kernel_vs_generic\": %.2f,\n", \
	      ns["BenchmarkGenericContains"] / ns["BenchmarkKernelContains"]; \
	    printf "    \"word_incdec_kernel_vs_generic\": %.2f,\n", \
	      ns["BenchmarkGenericWordIncDec"] / ns["BenchmarkKernelRawIncDec"]; \
	    printf "    \"word_count_kernel_vs_generic\": %.2f\n", \
	      ns["BenchmarkGenericWordCount"] / ns["BenchmarkKernelRawCount"]; \
	    printf "  }\n}\n"; \
	  }' /tmp/bench_kernel.txt > BENCH_kernel.json
	@cat BENCH_kernel.json
	$(GO) test -run '^$$' -bench 'Benchmark(Dispatch|Store|Window)' \
		-benchtime $(BENCHTIME) ./server ./window | tee /tmp/bench_serving.txt
	MPCBF_SATURATION_OUT=$(SATURATION_OUT) $(GO) test -run 'TestSaturationReport' -count=1 ./server
	{ awk ' \
	  /^Benchmark/ { \
	    name = $$1; sub(/-[0-9]+$$/, "", name); \
	    ns[name] = $$3; order[n++] = name; \
	  } \
	  END { \
	    printf "{\n  \"ns_per_op\": {\n"; \
	    for (i = 0; i < n; i++) { \
	      printf "    \"%s\": %s%s\n", order[i], ns[order[i]], (i < n-1 ? "," : ""); \
	    } \
	    printf "  },\n  \"saturation\": "; \
	  }' /tmp/bench_serving.txt; cat $(SATURATION_OUT); printf "}\n"; } > BENCH_serving.json
	@cat BENCH_serving.json

# bench-saturation drives the SyncAlways mutation path at fixed
# connection counts — the pre-group-commit per-request-fsync baseline
# ("serialized") against free-running synchronous connections ("grouped")
# and the pipelined client API ("pipelined") — and writes ops/s with
# p50/p99 latency as JSON to $(SATURATION_OUT). bench-json merges the
# same block into BENCH_serving.json. Without MPCBF_SATURATION_OUT the
# test runs a tiny CI smoke instead.
SATURATION_OUT ?= /tmp/mpcbf_saturation.json
bench-saturation:
	MPCBF_SATURATION_OUT=$(SATURATION_OUT) $(GO) test -run 'TestSaturationReport' -count=1 -v ./server
	@cat $(SATURATION_OUT)

# fuzz-kernel gives the kernel/generic differential fuzzers, and the
# batch-vs-per-key one over kernel and fallback geometries, a short budget
# each; raise FUZZTIME for longer campaigns. Every fuzz-* target bounds
# the minimization of a new input at 1s: Go's default of 60s can spend
# the whole budget minimizing the first one. A failing input is still
# reported and written, only less minimized.
FUZZTIME ?= 10s
fuzz-kernel:
	$(GO) test -run '^$$' -fuzz FuzzWordKernelVsGeneric -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/hcbf
	$(GO) test -run '^$$' -fuzz FuzzKernelVsGeneric -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzBatchVsSequential -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .

# fuzz-wire hardens the network protocol decoders: malformed request,
# status, and replication frames must error, never panic, and the
# request and replication codecs must round-trip (AppendRequest and
# DecodeRequestInto are inverses, from either side).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./server/wire
	$(GO) test -run '^$$' -fuzz FuzzRequestRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./server/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeStatus -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./server/wire
	$(GO) test -run '^$$' -fuzz FuzzRepFrameRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./server/wire

# fuzz-snapshot hardens the snapshot decoders (reached over the network
# by IMPORT, replica bootstrap and namespace containers): malformed
# filter, elastic-chain and window encodings must error, never panic or
# allocate past their input, the snapshot verify path, which checks an
# encoding without building it, must accept exactly what the decoders
# accept, a decode into another filter's released arenas must build the
# same state as a fresh one (a multi-page seed makes the release hand
# pages back and the decode skip all-zero pages), and the word reader
# must decode any stream into any destination as an element-wise copy.
fuzz-snapshot:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalFilter$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./elastic
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalFilter$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./window
	$(GO) test -run '^$$' -fuzz '^FuzzCheckVsDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeIntoDirtyArenas$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./server
	$(GO) test -run '^$$' -fuzz '^FuzzWordsMatchesCopy$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/snapio

# serve runs the mpcbfd daemon with a local data dir; MPCBFD_FLAGS adds
# extra flags (e.g. MPCBFD_FLAGS='-fsync interval -shards 32').
MPCBFD_FLAGS ?=
serve:
	$(GO) run ./cmd/mpcbfd -dir mpcbfd-data $(MPCBFD_FLAGS)

# integration builds the daemon and runs the end-to-end crash-recovery
# test (SIGKILL mid-stream, restart, verify every acked mutation). The
# sliding-window e2e has its own target (window-e2e).
integration:
	$(GO) test -race -count=1 -run 'TestIntegrationCrashRecovery' -v ./server

# cluster-e2e builds the daemon and runs the replication end-to-end
# test: 1 primary + 2 replicas, concurrent writers, a replica SIGKILLed
# and restarted mid-stream, convergence to byte-identical filters, and
# a read-scaling throughput smoke. The tracing e2e rides along: one
# TRACE-enveloped batch fanned out over two primaries, spans with
# commit-round attribution on both, the replica apply joined by WAL
# offset, and the quiesced lag-in-time gauge ≈ 0.
cluster-e2e:
	$(GO) test -race -count=1 -run 'TestClusterE2E|TestClusterTraceE2E' -v ./cluster

# window-e2e builds the daemon with -window and verifies the sliding
# window end to end: keys expire after span + one rotation, in-window
# keys never report false negatives, and the generation ring survives a
# SIGKILL + crash recovery.
window-e2e:
	$(GO) test -race -count=1 -run 'TestIntegrationWindow' -v ./server

# ns-e2e builds the daemon with a 64 MiB namespace quota and drives 200
# mixed-geometry namespaces with concurrent writers: SIGKILL mid-stream,
# restart recovers every acked (namespace, key), evicted namespaces
# recover on touch with zero loss, and a replica converges to
# byte-identical per-namespace dumps.
ns-e2e:
	$(GO) test -race -count=1 -run 'TestIntegrationNamespaces' -v ./server

# elastic-e2e builds the daemon with -elastic and SIGKILLs it while
# concurrent writers push the default chain, an elastic namespace, and
# a windowed namespace past their seed geometries: recovery must keep
# every acked insert, preserve the chain shape, and replay byte-exactly
# a second time.
elastic-e2e:
	$(GO) test -race -count=1 -run 'TestIntegrationElasticCrashMidGrowth' -v ./server

# reshard-e2e grows a live 2-primary elastic cluster to three primaries
# under concurrent writers: the coordinator pushes the joint (dual-write)
# ring, snapshot-transfers both donors into the new node (DUMP->IMPORT
# with durable acks), and cuts over. Zero acked-insert loss, reads
# correct throughout, and every node's post-cutover DUMP byte-identical
# across a SIGKILL + replay.
reshard-e2e:
	$(GO) test -race -count=1 -run 'TestReshardE2E' -v ./cluster

# sim-multi-seed runs the deterministic fault-schedule harness: for
# each seed in MPCBF_SIM_SEEDS, a generated schedule (primary
# kill+restart, replica-link partition+heal, slow-fsync fault+repair)
# is replayed twice against a live primary/replica pair under loadgen
# traffic. Each replay asserts zero acked-write loss and a
# byte-identical replica dump; the two replays' event logs must match
# byte for byte. The first seed additionally replays as an elastic pair
# under a grow-mode keyspace ramp, so ELASTIC_GROW barriers replicate
# through the same faults. MPCBF_SIM_ARTIFACTS (a directory) collects
# per-seed event logs; MPCBF_SIM_DURATION scales the traffic window.
MPCBF_SIM_SEEDS ?= 1,2,3
MPCBF_SIM_ARTIFACTS ?=
sim-multi-seed:
	MPCBF_SIM_SEEDS=$(MPCBF_SIM_SEEDS) MPCBF_SIM_ARTIFACTS=$(MPCBF_SIM_ARTIFACTS) \
		$(GO) test -count=1 -run 'TestSimMultiSeed' -v ./cluster

# loadgen-smoke boots a windowed daemon on a loopback port and drives a
# short mpcbf-loadgen run in each loop model (closed, open, pipelined);
# a nonzero exit or any op error in the JSON results fails the target.
LOADGEN_SMOKE_ADDR ?= 127.0.0.1:46511
loadgen-smoke:
	$(GO) build -o /tmp/mpcbfd-smoke ./cmd/mpcbfd
	$(GO) build -o /tmp/mpcbf-loadgen ./cmd/mpcbf-loadgen
	@set -e; dir=$$(mktemp -d); \
	/tmp/mpcbfd-smoke -addr $(LOADGEN_SMOKE_ADDR) -dir $$dir/data \
		-window 30s -snapshot-interval 0 >$$dir/daemon.log 2>&1 & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true; rm -rf $$dir" EXIT; \
	ok=; for i in $$(seq 50); do \
	  if /tmp/mpcbf-loadgen -addrs $(LOADGEN_SMOKE_ADDR) -duration 2s -c 4 \
	      -seed 11 -json $$dir/closed.json 2>/dev/null; then ok=1; break; fi; \
	  sleep 0.2; \
	done; test -n "$$ok" || { cat $$dir/daemon.log; exit 1; }; \
	/tmp/mpcbf-loadgen -addrs $(LOADGEN_SMOKE_ADDR) -mode open -rate 2000 \
		-duration 2s -c 4 -seed 12 -json $$dir/open.json; \
	/tmp/mpcbf-loadgen -addrs $(LOADGEN_SMOKE_ADDR) -pipeline 16 \
		-duration 2s -c 2 -seed 13 -json $$dir/pipe.json; \
	! grep -E '"errors": [1-9]' $$dir/closed.json $$dir/open.json $$dir/pipe.json

# bench-cluster boots a primary plus one WAL-shipping replica and
# records reproducible loadgen runs (closed-loop, open-loop, pipelined,
# and replica-routed reads) in BENCH_cluster.json; every entry embeds
# the manifest that regenerates its workload.
BENCH_CLUSTER_DURATION ?= 5s
bench-cluster:
	$(GO) build -o /tmp/mpcbfd-bench ./cmd/mpcbfd
	$(GO) build -o /tmp/mpcbf-loadgen ./cmd/mpcbf-loadgen
	@set -e; dir=$$(mktemp -d); \
	/tmp/mpcbfd-bench -addr 127.0.0.1:46521 -dir $$dir/p -window 30s \
		-snapshot-interval 0 >$$dir/p.log 2>&1 & p=$$!; \
	sleep 1; \
	/tmp/mpcbfd-bench -addr 127.0.0.1:46522 -dir $$dir/r \
		-replicate-from 127.0.0.1:46521 >$$dir/r.log 2>&1 & r=$$!; \
	trap "kill $$p $$r 2>/dev/null || true; rm -rf $$dir" EXIT; \
	sleep 1; \
	/tmp/mpcbf-loadgen -addrs 127.0.0.1:46521 -duration $(BENCH_CLUSTER_DURATION) \
		-c 8 -zipf 1.1 -seed 42 -bench BENCH_cluster.json -bench-name closed_c8; \
	/tmp/mpcbf-loadgen -addrs 127.0.0.1:46521 -mode open -rate 5000 \
		-duration $(BENCH_CLUSTER_DURATION) -c 8 -zipf 1.1 -seed 42 \
		-bench BENCH_cluster.json -bench-name open_5k; \
	/tmp/mpcbf-loadgen -addrs 127.0.0.1:46521 -pipeline 32 \
		-duration $(BENCH_CLUSTER_DURATION) -c 4 -zipf 1.1 -seed 42 \
		-bench BENCH_cluster.json -bench-name pipelined_d32; \
	/tmp/mpcbf-loadgen -addrs 127.0.0.1:46521/127.0.0.1:46522 -mix contains=100 \
		-duration $(BENCH_CLUSTER_DURATION) -c 8 -zipf 1.1 -seed 42 \
		-bench BENCH_cluster.json -bench-name reads_replica_routed
	@cat BENCH_cluster.json

# obs-smoke boots the daemon with tracing, JSON logs, and the pprof
# listener enabled, then scrapes /metrics, /debug/vars, /readyz,
# /debug/requests, /debug/traces, and /debug/pprof/goroutine — failing
# on any non-200 or unparseable body. It then boots a 3-node fixture
# (two primaries + a replica of the first), drives traced load through
# the cluster-aware loadgen, and requires mpcbf-trace to stitch at
# least one cross-node trace out of the /debug/traces rings.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke' -v ./server
	$(GO) build -o /tmp/mpcbfd-obs ./cmd/mpcbfd
	$(GO) build -o /tmp/mpcbf-loadgen ./cmd/mpcbf-loadgen
	$(GO) build -o /tmp/mpcbf-trace ./cmd/mpcbf-trace
	@set -e; dir=$$(mktemp -d); \
	/tmp/mpcbfd-obs -addr 127.0.0.1:46531 -http 127.0.0.1:46541 \
		-dir $$dir/p1 >$$dir/p1.log 2>&1 & p1=$$!; \
	/tmp/mpcbfd-obs -addr 127.0.0.1:46532 -http 127.0.0.1:46542 \
		-dir $$dir/p2 >$$dir/p2.log 2>&1 & p2=$$!; \
	trap 'kill $$p1 $$p2 $$r1 2>/dev/null || true; wait; rm -rf $$dir' EXIT; \
	sleep 1; \
	/tmp/mpcbfd-obs -addr 127.0.0.1:46533 -http 127.0.0.1:46543 \
		-dir $$dir/r1 -replicate-from 127.0.0.1:46531 >$$dir/r1.log 2>&1 & r1=$$!; \
	ok=; for i in $$(seq 50); do \
	  if /tmp/mpcbf-loadgen -addrs 127.0.0.1:46531,127.0.0.1:46532 -duration 2s \
	      -c 4 -batch 8 -trace-sample 10 -seed 21 -json $$dir/load.json 2>/dev/null; \
	      then ok=1; break; fi; \
	  sleep 0.2; \
	done; test -n "$$ok" || { cat $$dir/p1.log $$dir/p2.log; exit 1; }; \
	sleep 1.2; \
	/tmp/mpcbf-trace -nodes 127.0.0.1:46541,127.0.0.1:46542,127.0.0.1:46543 \
		| tee $$dir/traces.txt; \
	grep -q '^trace ' $$dir/traces.txt

ci: build lint race guards integration window-e2e cluster-e2e ns-e2e elastic-e2e reshard-e2e obs-smoke loadgen-smoke sim-multi-seed
	$(GO) test -run '^$$' -bench 'Ops' -benchtime 100x .
