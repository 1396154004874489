# grouphash — reproduction of "A Write-efficient and Consistent Hashing
# Scheme for Non-Volatile Memory" (ICPP 2018). Stdlib-only; any Go ≥ 1.22.

GO ?= go

.PHONY: all build test vet bench bench-json bench-engines bench-workload bench-baseline bench-diff bench-allocs bench-substrate race torture fuzz fuzz-smoke chaos-smoke soak cover serve-smoke deadcode figures figures-paper examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test is the tier-1 gate: vet, the full suite, and the race detector
# over the concurrent table (whose seqlock read path and online
# expansion only a -race run can meaningfully exercise) plus the paged
# native backend, the network layer built on top of it, the operation
# log, whose committer goroutine runs behind every log, and ghbench's
# serving cell, whose driver keeps bursts in flight on two goroutines.
# The façade's property oracle runs under it as well: it races per-op
# Put/Insert/Delete and Get sweeps against ApplyBatch bursts and Quiesce, which
# share one critical section. The crash torture runs under the race
# detector too, since it cuts power under all of them.
# perfbench is its own module, so ./... never builds it, yet it embeds
# engine.Engine and calls the façade: vet and test it here so a seam
# change cannot break the benchmark unseen.
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/core ./internal/engine ./internal/server ./internal/client ./internal/native ./internal/oplog ./cmd/ghbench
	$(GO) test -race -run 'TestConcurrentPropertyOracle' .
	$(GO) test -race -run 'CrashTorture' ./internal/chaos
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

race: torture fuzz-smoke chaos-smoke
	$(GO) test -race ./internal/core ./internal/engine ./internal/server ./internal/client ./internal/native ./internal/oplog ./internal/harness ./cmd/ghbench .
	$(GO) test -race -run 'OnlineExpansion|^TestExpand|^TestExplicitExpand|^TestRunPool' -count=4 -cpu 1,2,4 ./internal/core
	$(GO) test -race -run 'Replay' -count=4 -cpu 1,2,4 ./internal/oplog ./internal/engine .

# torture is the durability gate: the crash torture (three chaos
# schedules whose every event is a power cut that tears the log's
# unsynced tail, under load or at a snapshot's durable steps, with a
# crash mid-replay before every odd generation's recovery and the last;
# a zero-length and two (T, B) commit windows) under the race detector,
# plus ghchaos SIGKILLing a real serving process and auditing every
# acked write for exactly-once survival — swept across the (T, B)
# group-commit matrix: a zero-length window (fsync as soon as a write is
# staged), the 100µs/64KiB default, and a wide 1ms/256KiB window, the
# latter two growing segments in 1 KiB preallocation steps: the child
# snapshots (and so rotates) every 25 ms, leaving each segment a few
# KiB, and a step that small makes every generation grow its segments
# several times, so kills and torn tails land in grown, zero-filled
# regions (each kill logs the live segment's size, each tear the offset
# of its garbage, written where replay reads the next record). Seed 1's
# schedules are mostly SIGKILLs (21, 12 and 12 of them), with drains and
# torn tails mixed in; the small capacity forces online expansions on
# the flagship.
TORTURE = $(GO) run -race ./cmd/ghchaos -engine grouphash -capacity 4096 -seed 1
torture:
	$(GO) test -race -run 'CrashTorture' -count=1 ./internal/chaos
	$(TORTURE) -sync-every 0 -sync-bytes 0 -cycles 24
	$(TORTURE) -sync-every 100us -sync-bytes 65536 -prealloc 1024 -cycles 15
	$(TORTURE) -sync-every 1ms -sync-bytes 262144 -prealloc 1024 -cycles 15

# chaos-smoke is the randomized-schedule gate: 21 seeded schedules
# (flagship + both logged comparison engines × seven seeds) of six
# events each — kills, torn tails, sticky fsync faults, drains,
# snapshot cycles, forced online expansions — against a live in-process
# serving stack under the race detector, a full recovery (after a crash
# mid-replay on every odd generation and the last) and map-oracle audit
# after every event. Deterministic: a failure prints the exact
# (engine, seed) reproduction command. The tight -timeout turns any
# future wedge into a fast failure with a full goroutine dump instead
# of a ten-minute stall.
chaos-smoke:
	$(GO) test -race -count=1 -timeout 240s -run 'TestChaosMatrix|TestScheduleDeterminism' ./internal/chaos

# soak is the opt-in real-process arm of the chaos matrix: ghchaos
# plays the same schedule generator against a supervised child —
# real child processes, real SIGKILL and SIGTERM,
# power-failure garbage on the live oplog segment — across the engine
# seam, driving and auditing it with the chaos model over the wire. Bounded here; pass -duration for an open-ended soak, e.g.
#   go run ./cmd/ghchaos -duration 30m -engine grouphash -capacity 4096
soak:
	$(GO) run ./cmd/ghchaos -cycles 20 -engine grouphash -capacity 4096 -seed 1
	$(GO) run ./cmd/ghchaos -cycles 12 -engine pfht-l -seed 2
	$(GO) run ./cmd/ghchaos -cycles 12 -engine linearprobe-l -seed 3

bench:
	$(GO) test -bench=. -benchmem .

# bench-json regenerates the PR's benchmark numbers: the end-to-end
# batching sweep (single-op pipelined, transparently coalesced, vs
# explicit OpBatch frames of 1/8/64/256, with allocation and
# write-amplification counters per row), written to BENCH_PR8.json.
# Earlier PRs' files regenerate the same way (oplog -> BENCH_PR7.json,
# probe,expand -> BENCH_PR6.json, metrics -> BENCH_PR5.json, oplog at
# its pre-adaptive shape -> BENCH_PR4.json).
bench-json:
	$(GO) run ./cmd/ghbench -exp batch -scale default -json BENCH_PR8.json

# bench-engines regenerates the engine shoot-out: every scheme behind
# the internal/engine seam serving the batch experiment's strongest
# shape (16 conns, 256-op OpBatch frames, adaptive oplog) over loopback
# TCP. The grouphash rows here against BENCH_PR8's batch=256 rows bound
# the cost of the engine interface itself (acceptance: <= 1.05x).
bench-engines:
	$(GO) run ./cmd/ghbench -exp engines -scale default -json BENCH_PR9.json

# bench-workload regenerates the workload-shape table: uniform vs
# Zipfian θ=0.99 vs flash-crowd vs four-tenant load on the flagship,
# through the same loadgen machinery cmd/ghload exposes on the command
# line.
bench-workload:
	$(GO) run ./cmd/ghbench -exp workload -scale default -json BENCH_PR10.json

# The Go-benchmark set bench-baseline/bench-diff track: the substrate
# microbenchmarks, oplog replay into a growing concurrent store (restart
# time, in ns/record), a random cell access against the bare word read
# it wraps, the fingerprint-sensitive lookup benchmarks, the
# allocation-pinned wire codecs, and the end-to-end acked-write path
# through the server (no log, a zero-length commit window, the
# 100µs/64KiB default) plus the batch-frame serving loop. -count 5 so
# ghbenchdiff compares means, not single noisy samples; -benchmem so
# allocs/op is tracked alongside ns/op.
BENCH_TRACKED = { \
	$(GO) test -run XXX -bench 'BenchmarkSubstrate' -benchtime 0.3s -benchmem -count 5 . && \
	$(GO) test -run XXX -bench 'BenchmarkReplayOplog' -benchtime 3x -benchmem -count 5 . && \
	$(GO) test -run XXX -bench 'BenchmarkCellsCommitRandom' -benchtime 0.3s -benchmem -count 5 ./internal/hashtab && \
	$(GO) test -run XXX -bench 'BenchmarkLookup(Hit|Miss)' -benchtime 0.3s -benchmem -count 5 ./internal/core && \
	$(GO) test -run XXX -bench 'Benchmark(ReadResponseFixed|WriteResponseFixed|WriteBatchResponses|RequestReaderBatch)' -benchtime 0.3s -benchmem -count 5 ./internal/wire && \
	$(GO) test -run XXX -bench 'Benchmark(AckedWrite|ServeBatchPipeline)' -benchtime 0.3s -benchmem -count 5 ./internal/server ; }

# bench-baseline refreshes the committed reference numbers in
# bench_baseline.txt. Rerun it (on the same class of machine) whenever
# a PR intentionally shifts substrate or lookup performance, and commit
# the result so bench-diff has something honest to compare against.
bench-baseline:
	$(BENCH_TRACKED) > bench_baseline.txt
	@echo "bench-baseline: wrote bench_baseline.txt"

# bench-diff reruns the tracked benchmarks and prints old-vs-new
# against the committed baseline via the stdlib-only ghbenchdiff
# (benchstat is an external dependency this repo does not take).
bench-diff:
	$(BENCH_TRACKED) > /tmp/ghbench_current.txt
	$(GO) run ./cmd/ghbenchdiff bench_baseline.txt /tmp/ghbench_current.txt

# bench-allocs is the zero-allocation gate for the steady-state serving
# loop: the wire codec benchmarks and the end-to-end batch-frame server
# benchmark must stay at (exactly) the ceilings committed in
# bench_allocs_floors.txt — allocs/op is deterministic, so unlike
# bench-diff this one fails the build on regression.
bench-allocs:
	{ \
	$(GO) test -run XXX -bench 'Benchmark(ReadResponseFixed|WriteResponseFixed|WriteBatchResponses|RequestReaderBatch)' -benchtime 0.3s -benchmem -count 3 ./internal/wire && \
	$(GO) test -run XXX -bench 'BenchmarkServeBatchPipeline' -benchtime 0.3s -benchmem -count 3 ./internal/server ; } > /tmp/ghbench_allocs.txt
	$(GO) run ./cmd/ghbenchdiff -gate bench_allocs_floors.txt /tmp/ghbench_allocs.txt

# Substrate microbenchmarks: dirty-word tracker (paged vs legacy map),
# cache hit path (SmallGeometry, L1-resident), cache miss path and
# hierarchy construction on PaperGeometry (BenchmarkSubstrateCacheMiss,
# BenchmarkSubstrateNewHierarchy), memsim stack, and the fixed trace
# replay.
bench-substrate:
	$(GO) test -run XXX -bench 'BenchmarkSubstrate' .
	$(GO) test -run XXX -bench 'BenchmarkConcurrent.*Parallel' -cpu 1,2,4 ./internal/core
	$(GO) test -run XXX -bench 'BenchmarkExpandRehash' -cpu 1,2,4 ./internal/core

# serve-smoke exercises the ghserver/ghload pair end to end for every
# engine behind the -engine flag: two generations per engine — start a
# server, push a short YCSB-B burst through it, SIGTERM it mid-serve,
# check the graceful drain left an image behind, then boot a second
# generation FROM that image and do it again. The generation-2 log must
# show the image actually loaded, so the real-binary snapshot/restart
# cycle is proven for the comparison schemes, not just the flagship.
serve-smoke:
	$(GO) build -o /tmp/gh-smoke/ ./cmd/ghserver ./cmd/ghload
	@for e in grouphash pfht pathhash chained linearprobe; do \
		rm -f /tmp/gh-smoke/store-$$e.pmfs; \
		for gen in 1 2; do \
			/tmp/gh-smoke/ghserver -addr 127.0.0.1:47790 -engine $$e -capacity 262144 \
				-image /tmp/gh-smoke/store-$$e.pmfs \
				>/tmp/gh-smoke/server-$$e-$$gen.log 2>&1 & \
			SRV=$$!; sleep 0.2; \
			/tmp/gh-smoke/ghload -addr 127.0.0.1:47790 -records 8000 -ops 60000 -conns 4 || exit 1; \
			kill -TERM $$SRV && wait $$SRV || exit 1; \
			test -s /tmp/gh-smoke/store-$$e.pmfs || { echo "serve-smoke($$e): no image saved"; exit 1; }; \
			grep -q "final snapshot" /tmp/gh-smoke/server-$$e-$$gen.log || { echo "serve-smoke($$e): no drain snapshot"; exit 1; }; \
		done; \
		grep -q "loaded .* items" /tmp/gh-smoke/server-$$e-2.log || { echo "serve-smoke($$e): restart did not load the image"; exit 1; }; \
		echo "serve-smoke($$e): OK (two generations, image reloaded)"; \
	done

fuzz:
	$(GO) test -fuzz=FuzzTableOps -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzCrashRecovery -fuzztime=30s ./internal/core

# fuzz-smoke is the hostile-input gate over the three surfaces that
# parse bytes an attacker (or a crash) controls — the wire protocol,
# the on-disk oplog and the pmfs snapshot image — plus the façade's
# randomised oracle property test under the race detector. ~30s per
# fuzz target; part of `make race`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzOplogScan -fuzztime=30s ./internal/oplog
	$(GO) test -fuzz=FuzzLoadImage -fuzztime=30s ./internal/pmfs
	$(GO) test -race -run TestConcurrentPropertyOracle -count=1 .

# cover enforces statement-coverage floors on the packages whose whole
# job is being provably correct: the metrics/exposition layer, the wire
# codec, the operation log and the snapshot image format. Floors sit a
# few points under current coverage so honest refactors pass but
# untested new code fails.
cover:
	@for spec in internal/stats:90 internal/wire:92 internal/oplog:78 internal/pmfs:83; do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		pct=$$($(GO) test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		echo "$$pkg: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' \
			|| { echo "cover: $$pkg below its $$floor% floor"; exit 1; }; \
	done

# deadcode lists the functions no product binary links (cmd/*,
# examples/* and perfbench, built without inlining), marking each
# test-only or unreached, with totals. A report, not a gate, and not
# part of test: a cold run rebuilds the standard library without
# inlining.
deadcode:
	$(GO) run ./cmd/ghdeadcode

# Regenerate every table and figure of the paper at laptop scale,
# with CSV data under ./figures/.
figures:
	$(GO) run ./cmd/ghbench -scale default -csv figures | tee experiments_default.txt

# Exact §4.1 sizes: needs several GB of RAM and tens of minutes.
figures-paper:
	$(GO) run ./cmd/ghbench -scale paper -csv figures-paper

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crashrecovery
	$(GO) run ./examples/dedup
	$(GO) run ./examples/backup
	$(GO) run ./examples/kvstore

clean:
	rm -rf figures figures-paper
	rm -f test_output.txt bench_output.txt
