# treebench — reproduction of "Benchmarking Queries over Trees" (SIGMOD 2000)

GO ?= go

.PHONY: all build loc test race bench bench-fork bench-commit bench-pool bench-exec bench-live bench-snap experiments experiments-full plots cover fuzz smoke snap-smoke wal-smoke clean

all: build test

build:
	$(GO) build ./...

# Non-test Go lines outside bench/: the ROADMAP's "line count going down"
# measure, printed by CI after the build so every PR shows its delta.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

test:
	$(GO) test ./...

# The concurrency gate: the parallel experiment scheduler and every shared
# cache under it must stay race-clean.
race:
	$(GO) test -race ./...

# Regenerate every paper table/figure through the bench harness.
bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot-fork cost: generation happens once, each iteration forks a full
# session. Watch ns/op, B/op and allocs/op — fork must stay O(catalog):
# ~3 KB and ~45 objects, since nothing in a fork is sized to the capacity
# of its page caches (two pre-sized LRU maps used to be 330 KB of it).
bench-fork:
	$(GO) test -run 'TestNothing^' -bench BenchmarkSessionFork -benchmem ./internal/session

# The write path per commit, at the live benchmark's scale: what
# ChainStore.Update costs the writer (ns, B, allocs, WAL bytes) and what
# the first session forked from the new head costs a reader. Watch
# wal-bytes/commit and the fork's allocs/op — a head must stay born primed
# (EXPERIMENTS.md records before/after). A fixed 200 commits each: the
# fork benchmark pays an untimed commit per iteration, so letting b.N
# chase a second of timed forks would take minutes.
bench-commit:
	$(GO) test -run 'TestNothing^' -bench 'Benchmark(ChainCommit|ForkAfterCommit)$$' -benchtime 200x -benchmem ./internal/persist

# Buffer-pool layer benchmarks: what Handle.GetAs costs on a resident page
# (one reader, and every CPU through one shared handle) and on a miss.
# Watch ns/op and allocs/op — a hit must stay 0 allocs, a miss of a reader
# that never quiesces 2 (its frame and its page) and a miss of a quiescing
# reader 0, its frame reused (TestGetHitAllocatesNothing,
# TestGetMissAllocations; EXPERIMENTS.md records before/after).
bench-pool:
	$(GO) test -run 'TestNothing^' -bench 'BenchmarkGet(Hit|HitParallel|Miss|MissRecycled)$$' -benchmem ./internal/bufpool

# What one measured query costs the Go program below the wire: the
# simulated page caches (hit, miss with eviction, cold-restart drain and
# refill — all 0 allocs/op), one cold execution of each `analytic`
# statement class on a long-lived session over the live benchmark's
# database (BenchmarkColdQuery), and the second run of each on a new
# session (BenchmarkSecondQuery), which must cost what the long-lived
# session's runs do: the batch, columns and scan buffers the first run
# borrowed stay with the session. Watch allocs/op and B/op — a query
# allocates by the query, not by the page, the row or the chunk
# (EXPERIMENTS.md records before/after; TestColdQueryAllocBudget and
# TestPageLRUSteadyStateAllocatesNothing enforce it). A fixed 20 queries
# per class: the database takes longer to generate than they take to run.
bench-exec:
	$(GO) test -run 'TestNothing^' -bench 'BenchmarkPageLRU' -benchmem ./internal/cache
	$(GO) test -run 'TestNothing^' -bench 'Benchmark(ColdQuery|SecondQuery)' -benchtime 20x -benchmem ./internal/session

# The live query path, end to end and per layer: bench/ builds treebenchd,
# drives the four BENCHMARK.json workloads over the real client and checks
# every answer (~2.5 min; bench/README.md). bench/ is its own module, so
# its unit tests run here too rather than under `make test`.
bench-live:
	$(GO) test -C bench ./...
	$(GO) run -C bench .

# Warm boot vs cold boot: loading the paper-scale 2000×1000 Derby snapshot
# from disk against generating it from scratch (EXPERIMENTS.md records the
# speedup).
bench-snap:
	$(GO) test -run 'TestNothing^' -bench 'BenchmarkSnapshot(Generate|Load)' -benchmem ./internal/persist

# The experiment CLI (scale factor 10 by default; SF=1 is paper scale).
experiments:
	$(GO) run ./cmd/treebench -all

experiments-full:
	$(GO) run ./cmd/treebench -all -sf 1

# Gnuplot data + scripts for every experiment, into ./plots.
plots:
	$(GO) run ./cmd/treebench -all -gnuplot plots

cover:
	$(GO) test -cover ./...

# Continuous fuzzing entry points (interrupt when satisfied).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/oql
	$(GO) test -fuzz FuzzPageOps -fuzztime 30s ./internal/storage
	$(GO) test -fuzz FuzzDecodeFrame -fuzztime 30s ./internal/wire
	$(GO) test -fuzz FuzzLoadSnapshot -fuzztime 30s ./internal/persist
	$(GO) test -fuzz FuzzDecodeCommit -fuzztime 30s ./internal/persist

# End-to-end query-server smoke: treebenchd + oqlsh -coord vs oqlsh.
smoke:
	./scripts/server_smoke.sh

# Snapshot-store smoke: save/verify/corrupt/reload plus a two-boot
# treebenchd warm start from one snapshot directory.
snap-smoke:
	./scripts/snap_smoke.sh

# Write-path smoke: writable treebenchd, commits under query load, kill -9
# mid-storm, torn WAL tail, offline fsck, reboot recovery byte-diffed
# against a clean run with the same commit count.
wal-smoke:
	./scripts/wal_smoke.sh

clean:
	rm -rf plots results.csv test_output.txt bench_output.txt
