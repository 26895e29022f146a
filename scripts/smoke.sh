#!/usr/bin/env bash
# Runs one layer's smoke checks, exactly as CI's smoke matrix does:
#
#   bash scripts/smoke.sh <stress|workflow|population> [quick|all]
#
# `all` runs the layer's race tests and then its smoke runs; `quick` (the
# default) runs only the smoke runs. The smoke runs write their reports,
# JSON and CSV files into the repository root, where CI uploads them as
# artifacts, and the worker-invariance checks diff the Workers=1 and
# Workers=8 outputs there. Any failing test, grep or diff fails the script.
set -euo pipefail

usage() {
	echo "usage: bash scripts/smoke.sh <stress|workflow|population> [quick|all]" >&2
	exit 2
}

# The load generator is the repo's most concurrent code (worker fleet,
# shared server, graceful shutdown mid-burst); run it under the race
# detector uncached so a cache hit can't mask a data race.
race_stress() {
	go test -race -count=1 ./internal/stress/ ./internal/httpfaas/
}

# Open-loop smoke run (fixed rate + DES twin), then the Poisson smoke run
# (std client).
smoke_stress() {
	go run -race ./cmd/stellar stress -provider aws -arrival fixed \
		-rate 5000 -n 20000 -workers 4 -scale 100000 -seed 7 \
		-csv stress-cdf.csv | tee stress-smoke.txt
	grep -q "open-loop (CO-safe)" stress-smoke.txt
	grep -q "DES twin" stress-smoke.txt
	go run -race ./cmd/stellar stress -provider google -arrival poisson \
		-rate 5000 -n 10000 -client std -scale 100000 -seed 7 -no-twin \
		| tee stress-smoke-std.txt
}

# The DAG executor, its differential against the hand-rolled chain, and the
# cross-function trace propagation, uncached under the race detector so a
# cache hit can't mask a data race in the shard merge; then the workflow
# differential + golden cells.
race_workflow() {
	go test -race -count=1 ./internal/workflow/ -run '.'
	go test -race -count=1 -run 'TestWorkflowChainMatchesHandRolledChain|TestWorkflowWorkerInvariance|TestGoldenWorkflowFingerprints' ./internal/experiments/
}

# Fan-out smoke run (worker-count invariance, both transfers): the
# acceptance cell, fanout-8 with per-edge tails and the span attribution
# report, must print byte-identically at Workers=1 and Workers=8, for inline
# and blobstore edges. Then the topology sweep: the mode x transfer x
# payload sweep without -race.
smoke_workflow() {
	for transfer in inline blobstore; do
		go run -race ./cmd/stellar workflow -id fanout-8 -n 400 -shards 8 \
			-transfer $transfer -sample 0.5 -seed 7 -workers 1 \
			| tee workflow-$transfer-w1.txt
		go run -race ./cmd/stellar workflow -id fanout-8 -n 400 -shards 8 \
			-transfer $transfer -sample 0.5 -seed 7 -workers 8 \
			> workflow-$transfer-w8.txt
		diff workflow-$transfer-w1.txt workflow-$transfer-w8.txt
	done
	go run ./cmd/stellar workflow -id mapreduce -n 2000 -shards 8 -sweep \
		| tee workflow-sweep.txt
}

# Tenant replay layer: the multi-tenant replay exercises the pooled tenant
# records, exact keep-alive timers with lazy expiry, and the sharded merge
# together. Econ control plane: the autoscaler, billing meter, and the
# suspend/resume lifecycle wiring — the invariant tests (billing
# conservation, never-lose-an-instance churn, legacy byte-identity) must
# hold with the scheduler shuffled. Then the cost sweep invariants. All
# uncached under the race detector.
race_population() {
	go test -race -count=1 -run 'TestTenants|TestKeepAlive|TestWarmRequestEventBudget|TestPerTenant|TestMaxInstances|TestFunctionRecorder|TestFunctionMetrics|TestInstancePooling|TestFunctionPooling' ./internal/experiments/ ./internal/des/ ./internal/cloud/
	go test -race -count=1 ./internal/econ/ ./internal/cloud/ -run '.'
	go test -race -count=1 -run 'TestCost|TestParseCostPolicy|TestParetoFront' ./internal/experiments/ ./internal/cli/
}

# Population smoke runs (worker-count invariance): both presets of the one
# population replay, the keep-alive sweep with the worst-tenant table, and
# the full policy x plan frontier with a workflow app riding along. Each
# must print byte-identical reports, JSON and CSV at Workers=1 and
# Workers=8 once the wall-clock line is stripped.
smoke_population() {
	for w in 1 8; do
		go run -race ./cmd/stellar tenants -provider aws -tenants 250 \
			-duration 15m -shards 8 -seed 7 -top 5 -workers $w \
			-json tenants-w$w.json -csv tenants-w$w.csv > tenants-w$w.txt
		go run -race ./cmd/stellar cost -provider aws -tenants 250 \
			-duration 10m -shards 8 -seed 7 -workflow chain-3 -apps 64 \
			-workers $w -json cost-w$w.json -csv cost-w$w.csv > cost-w$w.txt
	done
	cat tenants-w1.txt cost-w1.txt
	for run in tenants cost; do
		diff <(grep -v '^wall' $run-w1.txt) <(grep -v '^wall' $run-w8.txt)
		diff $run-w1.json $run-w8.json
		diff $run-w1.csv $run-w8.csv
	done
}

layer=${1:-}
tier=${2:-quick}
case $layer in
stress | workflow | population) ;;
*) usage ;;
esac
case $tier in
quick | all) ;;
*) usage ;;
esac

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ "$tier" = all ]; then
	"race_$layer"
fi
"smoke_$layer"
echo "smoke $layer ($tier): ok"
