GO ?= go

.PHONY: all build test check vet lint cover race bench-smoke bench perf bench-diff soak accuracy fuzz-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck + govulncheck at pinned versions (see scripts/lint.sh);
# degrades to a warning when the tools cannot be installed offline.
lint:
	sh scripts/lint.sh

# Per-package coverage; fails when internal/engine drops below 85%.
cover:
	sh scripts/cover.sh

# Race-test the packages with concurrent hot paths (the package list and
# why each is on it live in scripts/check.sh).
race:
	GO=$(GO) sh scripts/check.sh race

# One iteration of every benchmark: catches benchmarks that panic or
# regress to building their fixture per op, without the full measurement
# cost.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The repository gate, documented in README.md. scripts/check.sh is its
# only definition: vet, lint, full tests, race, benchmark smoke, coverage
# floors, the soak smokes, accuracy, and fuzz smoke.
check:
	GO=$(GO) sh scripts/check.sh

# Estimator-accuracy regression gate against
# results/ACCURACY_BASELINE.json (see scripts/check.sh for how to refresh
# the baseline).
accuracy:
	GO=$(GO) sh scripts/check.sh accuracy

# Short fuzz smoke of the differential and loader fuzz targets (the seed
# corpus also runs on every plain `go test`).
fuzz-smoke:
	GO=$(GO) sh scripts/check.sh fuzz-smoke

# Boot a real knncostd, burst the batch endpoint, SIGTERM it, and assert a
# clean drain and exit 0 — the end-to-end smoke of the robustness layer.
soak:
	sh scripts/soak.sh

# Full measured benchmark sweep (slow).
bench:
	$(GO) test -bench . -benchmem .

# Machine-readable hot-path numbers plus the routed multi-shard topology
# sweep: writes BENCH_<date>.json to results/.
perf:
	$(GO) run ./cmd/knnbench -perf -shards 1,2,4 -out results

# Perf-trajectory gate: re-measure every hot path and fail when any op in
# the newest committed BENCH_<date>.json regresses by more than 20% ns/op.
# The fresh numbers go to a temp dir so the committed trajectory only ever
# advances via a deliberate `make perf`.
bench-diff:
	$(GO) run ./cmd/knnbench -perf -shards 1,2,4 \
		-out "$$(mktemp -d)" \
		-against "$$(ls results/BENCH_*.json | sort | tail -n1)"
