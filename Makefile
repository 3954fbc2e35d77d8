GO ?= go

.PHONY: check vet build test race fuzz-smoke sched-smoke churn-smoke churn-crash-smoke repair-smoke bench bench-smoke figures figures-check lint-hotpath

# The full CI gate: static checks, build, race-enabled tests, a short
# fixed-seed chaos-fuzz campaign, and scheduler-evaluation smoke runs
# (all deterministic, so safe to gate on).
check: vet build race fuzz-smoke sched-smoke churn-smoke churn-crash-smoke repair-smoke figures-check lint-hotpath

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race gate runs the full matrix, then the concurrent components —
# the sharded parallel engine, the sweep harness, and the root package's
# sharded-vs-serial equivalence tests — once more explicitly.
race:
	$(GO) test -race ./...
	$(GO) test -race ./internal/sim/... ./internal/experiments/...
	$(GO) test -race -run 'TestParallel' .

fuzz-smoke:
	$(GO) run ./cmd/gangsim fuzz -seed 1 -runs 5
	$(GO) run ./cmd/gangsim fuzz -compare -seed 77
	$(GO) run ./cmd/gangsim fuzz -recovery -seed 1 -runs 25

# Scheduler-evaluation smoke: a quick trace replay across every packing
# policy and both credit schemes.
sched-smoke:
	$(GO) run ./cmd/gangsim sched -quick

# Online-scheduling smoke: the gang-vs-batch-vs-fractional showdown under
# live kills, resizes, and conservative backfill.
churn-smoke:
	$(GO) run ./cmd/gangsim churn -quick

# Failure-aware smoke: the same showdown with fail-stop node crashes armed
# — recovery evicts the dead nodes, the daemons requeue the killed jobs,
# and the availability table is appended.
churn-crash-smoke:
	$(GO) run ./cmd/gangsim churn -quick -crash 0.35 -adaptive

# Repair smoke: the closed failure loop — crashes detected by heartbeat,
# repaired nodes rejoining at rotation boundaries, and the availability
# table growing its repaired-capacity and post-repair-goodput columns.
repair-smoke:
	$(GO) run ./cmd/gangsim churn -quick -crash 0.35 -repair 0.75 -adaptive

# Microbenchmarks with allocation reporting. BenchmarkEngineThroughput
# must stay at 0 allocs/op (see DESIGN.md §6).
bench:
	$(GO) test -run XXX -bench . -benchmem .

# Quick end-to-end performance report: every figure under event/alloc
# tracking, written to BENCH_<date>.json.
bench-smoke:
	$(GO) run ./cmd/gangsim bench -quick

figures:
	$(GO) run ./cmd/gangsim all

# Figure gate: the full-size figure suite must reproduce results_full.txt
# byte for byte, apart from its wall-clock trailer line.
figures-check:
	GO=$(GO) sh tools/figures_check.sh

# Guard the zero-alloc hot paths: audited packages must not grow inline
# closure callbacks at Schedule/At/Use call sites (allowlist for cold
# sites in tools/hotpath_allow.txt; see DESIGN.md §6).
lint-hotpath:
	sh tools/lint_hotpath.sh
