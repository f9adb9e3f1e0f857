#!/bin/sh
# Repository gate: vet, pinned static analysis, full tests, race tests on
# the concurrent packages, a 1-iteration benchmark smoke, the coverage
# floor, the soak smokes, the estimator-accuracy regression gate, and a
# short fuzz smoke. This file is the only definition of the gate: `make
# check` runs it, and `make race`, `make accuracy` and `make fuzz-smoke`
# run its steps of those names.
#
# Usage: sh scripts/check.sh [all|race|accuracy|fuzz-smoke]   (default all)
# GO selects the go command (default go).
set -eux

cd "$(dirname "$0")/.."
GO=${GO:-go}

# Race-test the packages with concurrent hot paths: the staircase build
# fan-out, the batch estimation workers, the engine's once-per-artifact
# builds, the WAL's group-commit fsync batching, the relation store's build
# pool, delta overlays, and hot-swap publication, the HTTP batch endpoint,
# the robustness middleware, the fault-injection harness, the daemon's
# signal-driven drain, the oracle differential suite (which runs batches
# against live hot-swaps), the shard tier's scatter-gather, hedging,
# breaker, and mirror-on-demand machinery, the optimizer's single-flight
# plan cache under concurrent misses and invalidations, and the bounds-only
# AkNN join (whose summaries are shared across snapshot readers).
race() {
	$GO test -race ./internal/core/... ./internal/engine/... ./internal/aknn/... ./internal/wal/... ./internal/store/... ./internal/optimizer/... ./internal/service/... ./internal/faultinject/... ./internal/oracle/... ./internal/shard/... ./cmd/knncostd/...
}

# Estimator-accuracy gate: audit every estimation technique against the
# brute-force oracle, print the per-technique pass/fail table, and fail if
# an exact-equality invariant breaks or a q-error quantile degrades beyond
# 10% of results/ACCURACY_BASELINE.json. Refresh the golden file with:
#   go run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json -update-baseline
accuracy() {
	$GO run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json
}

# Fuzz smoke: the seed corpus runs on plain `go test`; this additionally
# explores new inputs for a couple of seconds per target — the oracle
# differential targets, the AkNN targets, every loader of bytes the
# process reads back from its catalog cache, and the write-ahead log replay.
fuzz_smoke() {
	$GO test -run xxx -fuzz FuzzEstimateSelect -fuzztime 2s ./internal/oracle/
	$GO test -run xxx -fuzz FuzzJoinCost -fuzztime 2s ./internal/oracle/
	$GO test -run xxx -fuzz 'FuzzAknnJoin$' -fuzztime 2s ./internal/aknn/
	$GO test -run xxx -fuzz FuzzAknnBoundsEstimate -fuzztime 2s ./internal/aknn/
	$GO test -run xxx -fuzz FuzzLoadAknnSummary -fuzztime 2s ./internal/aknn/
	$GO test -run xxx -fuzz FuzzLoadStaircase -fuzztime 2s ./internal/core/
	$GO test -run xxx -fuzz FuzzLoadCatalogMerge -fuzztime 2s ./internal/core/
	$GO test -run xxx -fuzz FuzzLoadVirtualGrid -fuzztime 2s ./internal/core/
	$GO test -run xxx -fuzz FuzzReplayWAL -fuzztime 2s ./internal/wal/
}

all() {
	$GO vet ./...
	sh scripts/lint.sh
	$GO test ./...
	race
	$GO test -run xxx -bench 'BenchmarkEstimateSelectHot|BenchmarkStaircaseBuildAlloc|BenchmarkFig13SelectPreprocessCC' -benchtime 1x .

	# Coverage floors: per-package statement coverage, internal/engine >= 85%,
	# internal/aknn >= 85%, internal/shard >= 78%, internal/wal >= 80%,
	# internal/optimizer >= 80%.
	sh scripts/cover.sh

	# Sharded-tier smoke: three shard daemons + router, a routed registration,
	# and a rebalance that must heal via a zero-build warm restore.
	sh scripts/soak.sh shard

	# Crash-recovery smoke: stream appends into a live daemon, kill -9 it
	# mid-ingest, restart over the same cache, and require the WAL replay to
	# converge bit-exact with a from-scratch registration of the same points.
	sh scripts/soak.sh ingest

	# Plan-cache smoke: plan a multi-predicate query twice (the second must hit
	# the cache), mutate a referenced relation, and require the re-plan to miss
	# with the invalidation visible in the expvars.
	sh scripts/soak.sh plan

	# Mmap catalog-cache smoke: warm-load a 2000-relation fleet through the
	# zero-copy read path and require bit-identical estimates with zero builds.
	sh scripts/soak.sh mmap

	accuracy
	fuzz_smoke
}

case "${1:-all}" in
all) all ;;
race) race ;;
accuracy) accuracy ;;
fuzz-smoke) fuzz_smoke ;;
*)
	echo "usage: $0 [all|race|accuracy|fuzz-smoke]" >&2
	exit 2
	;;
esac
