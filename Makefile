# Convenience targets; `make check` is the tier-1 gate every change
# must pass (see README.md).

.PHONY: check test bench bench-ring bench-qsvc serve-smoke figures campaign gate

check:
	sh scripts/check.sh

# Serve smoke: boot wfqserve on an ephemeral port, drive wfqload -quick
# plus open-loop profiles through the wire protocol (zero lost or
# duplicated envelopes, or the generator exits nonzero), then run the
# server-backed pipeline example against the same server.
serve-smoke:
	sh scripts/serve_smoke.sh

# Queue-service acceptance sweep: Poisson arrival rates × {core, ring},
# bursty overload against an admission cap, and the 10k-user closed
# loop; committed as results/BENCH_qsvc.json.
bench-qsvc:
	sh scripts/bench_qsvc.sh

test:
	go test ./...

bench:
	go test -run xxx -bench 'Enqueue|Dequeue|Mixed' -benchtime 10x .

# Ring backend acceptance sweep: singles and k=1/k=8 batches against
# the fast-WF engine (with and without arena) at the host's GOMAXPROCS,
# committed as results/BENCH_ring.json and results/BENCH_ring_batch.json.
bench-ring:
	tmp=$$(mktemp -d) && P=$$(nproc) && \
	go run ./cmd/wfqcampaign -variants 'fast WF,fast WF (arena),ring WF' \
		-workloads pairs,batchpairs -batch 1,8 -threads 1,2,4,8 -procs $$P \
		-iters 50000 -repeats 5 -out $$tmp && \
	mv $$tmp/BENCH_campaign_pairs_g$$P.json results/BENCH_ring.json && \
	mv $$tmp/BENCH_campaign_batchpairs_g$$P.json results/BENCH_ring_batch.json && \
	rm -rf $$tmp

# Scaling observatory: the full benchmark campaign matrix
# (threads × GOMAXPROCS × variants × workloads), regenerating the
# committed results/BENCH_campaign_*.json snapshots and CAMPAIGN_*.svg
# scaling charts. Run on the quietest host available; cells with
# threads > GOMAXPROCS are stamped oversubscribed and warned about.
campaign:
	go run ./cmd/wfqcampaign -iters 100000 -repeats 5 -out results

# Live perf regression gate: re-measures every committed baseline cell
# against the current tree and fails on any confirmed regression beyond
# GATE_TOLERANCE. The default 0.5 is calibrated to the cross-campaign
# variance of the committed baseline's host (1 CPU, GOMAXPROCS
# oversubscribed — see EXPERIMENTS.md); on a quiet many-core host use
# GATE_TOLERANCE=0.25. The deterministic offline gate (schema +
# injected-regression checks) runs in scripts/check.sh.
GATE_TOLERANCE ?= 0.5
gate:
	go run ./cmd/wfqcampaign -gate -baseline results -tolerance $(GATE_TOLERANCE)

figures:
	go run ./cmd/wfqpaper
