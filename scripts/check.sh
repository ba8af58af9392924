#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Run from the repository root (or via `make check`).
set -eux

go build ./...
go vet ./...
go test ./...
# The benchmark is its own module (bench/go.mod), outside ./...: build,
# vet and unit-test it here so an API change cannot silently break it.
go -C bench vet ./...
go -C bench test -count=1 .
# Node-block gates, named so they run uncached (they skip under -short):
# the facade's steady-state pair and construction allocations and the
# wire allocation gates (their files build without -race, which changes
# allocation counts), then under the race detector the dequeued-value
# and idle-block retention tests.
go test -count=1 -run 'TestHandlePairAllocs|TestConstructionAllocs' .
go test -count=1 -run 'TestWirePairAllocs|TestWireArmedDeliveryAllocs' ./internal/qsvc/server/
go test -race -count=1 -run 'TestDequeuedValueCollectable|TestIdleThreadBlockReleased' ./internal/core/
go test -race ./internal/core/ ./internal/pool/ ./internal/hazard/ ./internal/sharded/ ./internal/ring/ ./internal/harness/
# Blocking stress under the race detector: the parking layer's lost-
# wakeup and close/drain interleavings (internal/waiter), plus the
# facade-level choreographed races, the concurrent close-drain
# conservation test, and the sharded close/drain regressions (root
# package).
go test -race ./internal/waiter/
go test -race -run 'TestEnqueueNotifyRacesChainSwing|TestCloseDrainConcurrent|TestHandleGenerationRegression|TestTrackedEnqueueFailsAfterClose|TestPerShardFIFOPreservedThroughDrain|TestMultiConsumerCloseDrainTerminates|TestCloseDrainWithFrozenTicketHolder' .
# Queue-service layer under the race detector: registry lifecycle churn
# (concurrent create/delete/lookup of one name), delete-while-parked,
# the sweep-vs-delivery conservation CAS, and the wire/server/load
# stack end to end over real sockets.
go test -race ./internal/qsvc/ ./internal/qsvc/wire/ ./internal/qsvc/server/ ./internal/qsvc/load/
# Serve smoke: a real wfqserve process driven by wfqload over TCP —
# zero lost or duplicated envelopes or the generator exits nonzero —
# plus the server-backed pipeline example.
sh scripts/serve_smoke.sh
# Fuzz smoke: short randomized differentials against the sequential
# specification — the sharded frontend, and the core batch operations
# (regression corpora run in `go test` above; these probe fresh inputs).
go test -run='^$' -fuzz='^FuzzSharded$' -fuzztime=10s ./internal/sharded/
go test -run='^$' -fuzz='^FuzzBatchCore$' -fuzztime=10s ./internal/core/
go test -run='^$' -fuzz='^FuzzRing$' -fuzztime=10s ./internal/ring/
# The wire decoder and frame reader on arbitrary bytes, decoding into a
# Request reused from an earlier frame: no panic, nothing stale.
go test -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime=10s ./internal/qsvc/wire/
# The client's response decoder: accepted bodies re-encode byte for
# byte, short ones are rejected.
go test -run='^$' -fuzz='^FuzzDecodeResponse$' -fuzztime=10s ./internal/qsvc/wire/
# Chaos smoke: the seeded stall-injection antagonist + wait-freedom
# step-bound watchdog across every frontend and adversary profile,
# under the race detector (exits nonzero on any violation, with the
# captured point trace).
go test -race ./internal/chaos/
go run -race ./cmd/wfqchaos -quick
# Wait-free ring helping under the crash-failure adversary, focused and
# seeded differently from the full -quick sweep above: victims freeze
# permanently mid-help (record published, ticket public, reserve
# pending) and the survivors' step bounds must hold while they finish
# the victims' operations from their tickets.
go run -race ./cmd/wfqchaos -quick -scenarios ring-wf,ring-wf-sharded -profiles permanent-kill -seed 7
# Helptree-focused cell: victims freeze permanently inside the tree's
# propagate/refresh/descend windows (the `tree` point class) on both
# slow paths; survivors must repair stale aggregates and stay inside
# the tightened polylog step budget.
go run -race ./cmd/wfqchaos -quick -scenarios core-tree,ring-tree -profiles permanent-kill -seed 11
# Tree races at the unit level, and the step-vs-threads series smoke:
# one tiny series point per tree scenario (full committed series lives
# in results/BENCH_polylog.json, regenerated via `wfqchaos -series`).
go test -race ./internal/helptree/
go test -run='^$' -bench BenchmarkStepSeries -benchtime=1x ./internal/chaos/
# Scaling observatory: campaign smoke + perf regression gate.
# 1. A tiny live matrix (fast WF and ring WF on pairs) exercises the
#    runner, per-cell GOMAXPROCS stamping, snapshot and SVG chart paths
#    end to end.
# 2. The gate must PASS on the committed baseline (loads every
#    results/BENCH_campaign_*.json, matches all cells, zero regressions
#    — this is also the schema-stays-parseable check).
# 3. The gate must FAIL (nonzero, naming the offending cells) on an
#    injected 40% regression — a perf gate that cannot fail is not a
#    gate. Offline comparisons are deterministic, so neither step is
#    host-speed sensitive; the live re-measuring gate is `make gate`.
camp_tmp=$(mktemp -d)
go run ./cmd/wfqcampaign -quick -out "$camp_tmp/quick"
go run ./cmd/wfqcampaign -gate -baseline results -candidate results
go run ./cmd/wfqcampaign -degrade 0.40 -baseline results -out "$camp_tmp/degraded"
! go run ./cmd/wfqcampaign -gate -baseline results -candidate "$camp_tmp/degraded"
rm -rf "$camp_tmp"
