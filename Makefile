# CI and humans run the exact same commands: .github/workflows/ci.yml
# and nightly.yml invoke these targets and nothing else.

GO ?= go

# The crash-recovery gate's repetition count and timeout; the nightly
# workflow raises them (make crash CRASH_COUNT=10 CRASH_TIMEOUT=900s).
CRASH_COUNT ?= 3
CRASH_TIMEOUT ?= 300s

# Per-target budget for the nightly fuzz smoke.
FUZZTIME ?= 60s

# Benchmarks captured by the recorded artifact (bench-record): the
# parallel-executor speedup table, pruning, the sharded-ingestion
# suite, the WAL fsync-policy costs (including group commit, matched
# by the AppendWAL pattern), the two-worker TCP scatter stream and the
# two-worker TCP append.
BENCH_RECORD = 'Parallel|Pruning|IngestAppend|AppendWAL|AppendBatchWAL|ScatterTCPStream|ClusterAppendTCP'
# Hot-path benchmarks guarded by the regression gate (bench-compare),
# each on the counts its bench/baseline.json row carries (B/op,
# allocs/op, fsyncs/point, reads/segment), never on its time:
# per-point append, batched append (both at zero allocations per
# point), a whole grouped EP load, the heavy parallel scan, the
# per-series hourly roll-up, the streamed TCP scatter, the master's
# append to two TCP workers (wire codec and worker ingestion), the
# group-commit append, the file-store scan, the master-side ORDER BY
# finalize of internal/query, the HTTP API's CSV render of a
# 24 000-row DataPoint range, the HTTP API's 500-point JSON append and
# the same points as a remote-write body beside AppendBatch of them,
# and DB.LoadCSV of 20 000 points. Each entry is N:pattern: the family
# runs exactly N ops (-benchtime Nx), never for a time, so a cost paid
# once per run is spread over the same N on every machine.
BENCH_GATE = \
	5000000x:'IngestAppendSerial|IngestAppendBatch' \
	2000x:'ParallelSumDataPointView/^workers' \
	1000x:'ParallelSumDataPointView/filtered' \
	500x:'ParallelCubeHourByTid|ScatterTCPStream|ClusterAppendTCP|QueryCSV' \
	100x:'IngestGroupedEP|LoadCSV|FinalizeOrderBy' \
	10000x:'AppendWALGroupCommit' \
	50x:'FileStoreScan' \
	3000x:'HTTPAppend'
# Packages holding the gated benchmarks.
BENCH_GATE_PKGS = . ./internal/query ./internal/httpapi

.PHONY: all build vet fmt-check lint vuln test race bench crash ci \
	bench-record bench-compare fuzz obs-smoke docs-check \
	benchmark-smoke benchmark bench-pairs float-sweep

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-formatted, printing the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: vet fmt-check

# Scans the module against the Go vulnerability database. Needs
# network access; CI runs it, local runs may skip it offline.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# -timeout 120s: a deadlocked cluster transport (or any hung test)
# fails the run instead of hanging it — CI relies on this.
test:
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -timeout 120s ./...

# Smoke run: every benchmark executes once so regressions in bench
# code are caught without paying for stable measurements.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark of record (BENCHMARK.json) is a nested module that
# `go test ./...` never enters. Its smoke test builds the harness
# against this tree and runs all five workloads, untraced and traced,
# at tiny scale, so a change that breaks an exported signature the
# harness imports — or an answer its oracle checks — fails here rather
# than when a change is accepted.
benchmark-smoke:
	cd benchmark && $(GO) test ./...

# The benchmark of record at full length: every workload, seed 42.
benchmark:
	bash benchmark/run.sh --workload all

# The protocol a performance claim is judged by, as one command: PAIRS
# alternating runs of WORKLOAD on PARENT (a git revision, exported
# under .bench_build/) and on this tree, then the --compare verdict.
WORKLOAD ?= all
PAIRS ?= 10
PARENT ?= HEAD
SEED ?= 42
bench-pairs:
	./scripts/bench_pairs.sh $(WORKLOAD) $(PAIRS) $(PARENT) $(SEED)

# Records the benchmark suite as a machine-readable artifact:
# BENCH_results.json (env + every result) and BENCH_results.md (the
# table BENCHMARKS.md embeds). CI runs this on its multi-core runners
# and uploads both files, which is how the speedup tables get
# re-recorded on real parallel hardware.
bench-record:
	$(GO) test -run '^$$' -bench $(BENCH_RECORD) -benchtime 1s -count 1 . | tee BENCH_raw.txt
	$(GO) run ./cmd/benchjson record -o BENCH_results.json -md BENCH_results.md BENCH_raw.txt

# Regression gate: re-measures the hot-path benchmarks, each family at
# its fixed op count, and compares their counts with the committed
# baseline. B/op and allocs/op fail past 15% above it; fsyncs/point
# (group-commit efficiency) and reads/segment (log reads per scanned
# segment) fail past 30%, since how many appends a group commit
# coalesces depends on timing. At a fixed op count the counts are
# properties of the code, so the committed baseline gates CI runners of
# any speed. Time is not gated here: `make bench-pairs` judges it, in
# alternating parent/change runs.
bench-compare:
	: > BENCH_gate.txt
	set -e; for run in $(BENCH_GATE); do \
		$(GO) test -run '^$$' -bench "$${run#*:}" -benchtime "$${run%%:*}" -count 1 \
			$(BENCH_GATE_PKGS) >> BENCH_gate.txt; \
	done
	$(GO) run ./cmd/benchjson record -o BENCH_gate.json BENCH_gate.txt
	$(GO) run ./cmd/benchjson compare -baseline bench/baseline.json -current BENCH_gate.json \
		-threshold 15 -gate-metrics fsyncs/point,reads/segment -metric-threshold 30

# Observability smoke: boots a real modelardbd with -http, drives one
# load + query through the line protocol, and scrapes /metrics,
# /statusz and /debug/pprof/heap — the admin surface is exercised end
# to end (flags, listener, exposition, slow-query log), not just the
# obs package units.
obs-smoke:
	$(GO) build -o BENCH_smoke_modelardbd ./cmd/modelardbd
	$(GO) build -o BENCH_smoke_cli ./cmd/modelardb-cli
	./scripts/obs_smoke.sh ./BENCH_smoke_modelardbd ./BENCH_smoke_cli

# Docs gate: every intra-repo link in README.md and docs/ resolves
# (offline — no network), and the godoc Example functions build, run
# and produce their committed output.
docs-check:
	./scripts/check_links.sh
	$(GO) test -run '^Example' ./...

# Crash-recovery gate: the WAL and segment-log recovery tests (torn
# tails, kill-and-reopen, crash==no-crash property, worker restart,
# exactly-once dedup across restarts) and the cluster transport's fault
# tests (exactly-once redelivery, reconnect, a worker dying mid-query,
# cancel mid-scan, re-queue on failure, the retry-before-first-chunk
# rule, and the pipelined append's bound, error, close and ordering
# tests) run CRASH_COUNT times under the race detector, so flaky
# recovery ordering fails CI instead of shipping.
crash:
	$(GO) test -race -run 'WAL|Crash|Recover|Torn|Reopen|ExactlyOnce|Reconnect|WorkerDies|CancelMid|Requeue|RetryOnly|Pipeline' -count=$(CRASH_COUNT) -timeout $(CRASH_TIMEOUT) ./...

# Fuzz smoke over the untrusted-bytes parsers: the two framed logs
# (WAL segments and the segment log), both read back through the one
# frame scan of internal/durable and seeded from the torn-tail sweep
# fixtures; the WAL's two small files, the checkpoint (one frame) and
# walmeta, which Open parses before any segment; the segment record
# decoder the store is built on; the typed-column chunk-frame decoder
# the cluster transport feeds with peer-controlled bytes, where every
# partial it accepts is then checked, merged and finalized for a set of
# queries as a cluster master would, answering or failing but never
# panicking; the cluster transport's frame and call-body decoders, fed
# the same peer-controlled bytes, which must neither panic nor allocate
# more than a small multiple of their input; the remote-write body,
# snappy-decoded and then parsed as protobuf as the HTTP endpoint does,
# under the same kind of allocation bound; the JSON append body, posted
# to the handler on a fresh database, which must answer 200 or 400
# with a point count equal to the points the database gained; the
# same body through the hand-written append scanner, which must give
# the points and flush flag an encoding/json reference gives, or fail
# where it fails, whole and read one byte at a time; the
# Gorilla value-stream
# decoder every stored Gorilla segment goes through, checked against
# its reference; the Gorilla
# quantizer, whose every decoded value must be the appended one or
# within the bound of it; and the WHERE compiler, fed SQL text as HTTP
# and line-protocol clients send it, where a clause that compiles must
# run without error and answer the same at every worker count; the
# row scan's run-wise projection, for any projection, TS range and
# point conjunct the fuzzer composes, checked after every segment
# against a row-by-row reference; and the float text kernel every text surface spells a float cell with,
# fed arbitrary float64 bits and their float32 rounding, which must
# write strconv's bytes.
# `go test -fuzz` accepts one target per package invocation, hence
# fourteen runs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWALScanSegment$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzFileStoreRecover$$' -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePartial$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzCompileWhere$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzSelectRuns$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzRemoteWriteBody$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzAppendBody$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzAppendDecoderMatchesJSON$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzGorillaDecode$$' -fuzztime $(FUZZTIME) ./internal/models
	$(GO) test -run '^$$' -fuzz '^FuzzGorillaBound$$' -fuzztime $(FUZZTIME) ./internal/models

# Exhaustive proof of the float text kernel: all 2^32 float32 patterns,
# widened to float64, must render as strconv.AppendFloat(v, 'g', -1,
# 64) renders them. About 6 minutes on 2 vCPUs; the nightly workflow
# runs it.
float-sweep:
	$(GO) test -tags floatsweep -run '^TestAppendFloatSweep$$' -timeout 30m -v ./internal/query

ci: build lint vuln race bench benchmark-smoke crash obs-smoke docs-check
