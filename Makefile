# Repro build/check entry points.
#
#   make check   - everything CI runs: gofmt, vet, build, race tests (-short),
#                  then the zero-allocation guards without the race detector
#   make test    - full test suite without the race detector
#   make bench   - throughput benchmarks -> BENCH_parallel.json (perf trajectory)
#   make bench-smoke - 1x-iteration bench emit + BENCH_*.json schema validation (CI)
#   make bench-all - every benchmark including exhibit regeneration
#   make tables  - regenerate the paper's tables and the extension cells

GO ?= go

.PHONY: check fmt-check vet build test test-race test-alloc bench bench-smoke bench-all tables

check: fmt-check vet build test-race test-alloc

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run uses -short: the harness tests skip their heaviest exhibit
# regenerations and the randomized crash tests trim their iteration count,
# keeping the whole run to a couple of minutes.
test-race:
	$(GO) test -race -short ./...

# The zero-allocation guards (alloc_test.go) skip under -race, whose
# instrumentation allocates, so they get a non-race run of their own.
test-alloc:
	$(GO) test -count=1 -run ZeroAllocs .

# The perf-trajectory benchmarks: wall-clock parallel shards, per-config
# throughput, replication degree and sharded sim throughput. Results land
# in BENCH_parallel.json (parsed + raw benchstat-compatible lines; compare
# runs with: jq -r '.raw[]' BENCH_parallel.json | benchstat old.txt -).
# The availability run lands separately in BENCH_availability.json (repair
# duration/bytes, min-window tps, time-to-restored-quorum), and the
# unattended chaos run in BENCH_chaos.json (mean/max MTTD, mean MTTR,
# worst window, faults handled), the key-value YCSB-style mixes in
# BENCH_kv.json (sim ops/s and SAN B/op per mix), the read-scaling
# cell in BENCH_readscale.json (read-heavy sim ops/s per read mode on a
# K=3 group, replica/primary read split, and zero stale-read
# violations), the disk-tier
# kill-and-restart drill in BENCH_durability.json (recovery wall time,
# replayed records, and zero lost acked writes across three snapshot
# intervals), the served-over-TCP
# load (cmd/kvload against an in-process cmd/kvserver deployment: 1000
# concurrent connections, primary crashed mid-load, wall-clock
# p50/p99/p999 and zero acked-write loss) in BENCH_server.json, the
# elastic 2 -> 4 -> 8 online-rebalance run in BENCH_rebalance.json (ranges
# and bytes migrated, worst mid-migration window, zero acked-write loss),
# and the observability price sheet in BENCH_obs.json (K=3 quorum batch-16
# commit throughput bare vs instrumented, plus the wall-clock cost of a
# full Metrics() scrape against hot instruments). Every emitted file is
# schema-validated with benchjson -check at the end, which also lints
# the live obs metric catalog: every registered name legal
# (^[a-z][a-z0-9_.]*$) and unique across the deployment and serving
# registries. The runs go through temp files, not pipes, so a failing
# benchmark fails the target instead of silently writing an empty JSON.
bench:
	$(GO) test -bench 'ParallelShards|Throughput|ReplicationDegree|ShardedCluster' \
		-benchtime 2000x -run XXX -count 1 . > bench.out.tmp || { cat bench.out.tmp; rm -f bench.out.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_parallel.json < bench.out.tmp
	@rm -f bench.out.tmp
	$(GO) test -bench 'Availability' -benchtime 1x -run XXX -count 1 . > bench.avail.tmp || { cat bench.avail.tmp; rm -f bench.avail.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_availability.json < bench.avail.tmp
	@rm -f bench.avail.tmp
	$(GO) test -bench 'Chaos' -benchtime 1x -run XXX -count 1 . > bench.chaos.tmp || { cat bench.chaos.tmp; rm -f bench.chaos.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_chaos.json < bench.chaos.tmp
	@rm -f bench.chaos.tmp
	$(GO) test -bench 'KV' -benchtime 2000x -run XXX -count 1 . > bench.kv.tmp || { cat bench.kv.tmp; rm -f bench.kv.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_kv.json < bench.kv.tmp
	@rm -f bench.kv.tmp
	$(GO) test -bench 'ReadScale' -benchtime 2000x -run XXX -count 1 . > bench.rs.tmp || { cat bench.rs.tmp; rm -f bench.rs.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_readscale.json < bench.rs.tmp
	@rm -f bench.rs.tmp
	$(GO) test -bench 'BenchmarkDurability' -benchtime 5x -run XXX -count 1 . > bench.dur.tmp || { cat bench.dur.tmp; rm -f bench.dur.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_durability.json < bench.dur.tmp
	@rm -f bench.dur.tmp
	$(GO) run ./cmd/kvload -selfhost -conns 1000 -ops 100000 -keys 10000 -crash 20000 -q -benchfmt \
		> bench.server.tmp || { cat bench.server.tmp; rm -f bench.server.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_server.json < bench.server.tmp
	@rm -f bench.server.tmp
	$(GO) test -bench 'BenchmarkObs' -benchtime 2000x -run XXX -count 1 . > bench.obs.tmp || { cat bench.obs.tmp; rm -f bench.obs.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_obs.json < bench.obs.tmp
	@rm -f bench.obs.tmp
	$(GO) test -bench 'BenchmarkRebalance' -benchtime 1x -run XXX -count 1 . > bench.reb.tmp || { cat bench.reb.tmp; rm -f bench.reb.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_rebalance.json < bench.reb.tmp
	@rm -f bench.reb.tmp
	$(GO) run ./cmd/benchjson -check BENCH_parallel.json BENCH_availability.json BENCH_chaos.json BENCH_kv.json BENCH_readscale.json BENCH_durability.json BENCH_server.json BENCH_obs.json BENCH_rebalance.json

# The CI smoke run: every bench family at one iteration, emitted into a
# scratch directory (the committed BENCH_*.json stay untouched), then
# schema-validated with benchjson -check — so a bench or schema regression
# fails the build in seconds instead of minutes.
bench-smoke:
	@rm -rf .benchsmoke && mkdir -p .benchsmoke
	$(GO) test -bench 'ParallelShards|Throughput|ReplicationDegree|ShardedCluster' \
		-benchtime 1x -run XXX -count 1 . > .benchsmoke/parallel.txt || { cat .benchsmoke/parallel.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_parallel.json < .benchsmoke/parallel.txt > /dev/null
	$(GO) test -bench 'Availability' -benchtime 1x -run XXX -count 1 . > .benchsmoke/avail.txt || { cat .benchsmoke/avail.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_availability.json < .benchsmoke/avail.txt > /dev/null
	$(GO) test -bench 'Chaos' -benchtime 1x -run XXX -count 1 . > .benchsmoke/chaos.txt || { cat .benchsmoke/chaos.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_chaos.json < .benchsmoke/chaos.txt > /dev/null
	$(GO) test -bench 'KV' -benchtime 100x -run XXX -count 1 . > .benchsmoke/kv.txt || { cat .benchsmoke/kv.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_kv.json < .benchsmoke/kv.txt > /dev/null
	$(GO) test -bench 'ReadScale' -benchtime 100x -run XXX -count 1 . > .benchsmoke/rs.txt || { cat .benchsmoke/rs.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_readscale.json < .benchsmoke/rs.txt > /dev/null
	$(GO) test -bench 'BenchmarkDurability' -benchtime 1x -run XXX -count 1 . > .benchsmoke/dur.txt || { cat .benchsmoke/dur.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_durability.json < .benchsmoke/dur.txt > /dev/null
	$(GO) run ./cmd/kvload -selfhost -conns 64 -ops 3000 -keys 1000 -crash 500 -q -benchfmt \
		> .benchsmoke/server.txt || { cat .benchsmoke/server.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_server.json < .benchsmoke/server.txt > /dev/null
	$(GO) test -bench 'BenchmarkObs' -benchtime 100x -run XXX -count 1 . > .benchsmoke/obs.txt || { cat .benchsmoke/obs.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_obs.json < .benchsmoke/obs.txt > /dev/null
	$(GO) test -bench 'BenchmarkRebalance' -benchtime 1x -run XXX -count 1 . > .benchsmoke/reb.txt || { cat .benchsmoke/reb.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o .benchsmoke/BENCH_rebalance.json < .benchsmoke/reb.txt > /dev/null
	$(GO) run ./cmd/benchjson -check .benchsmoke/BENCH_parallel.json .benchsmoke/BENCH_availability.json \
		.benchsmoke/BENCH_chaos.json .benchsmoke/BENCH_kv.json .benchsmoke/BENCH_readscale.json \
		.benchsmoke/BENCH_durability.json .benchsmoke/BENCH_server.json .benchsmoke/BENCH_obs.json \
		.benchsmoke/BENCH_rebalance.json
	@rm -rf .benchsmoke

bench-all:
	$(GO) test -bench . -benchtime 2000x -run XXX ./...

tables:
	$(GO) run ./cmd/replbench -experiment everything
