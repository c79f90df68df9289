# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-short test-race fuzz fuzz-smoke bench bench-default bench-json serve-trace-gate pipeline serve-gate timeline trace-gate live-demo live-gate experiments artifacts

all: build vet test

build:
	go build ./...

vet:
	go vet ./...
	test -z "$$(gofmt -l .)"

test:
	go test ./...

test-short:
	go test -short ./...

# Race-detector pass over the host-parallel runtime (worker pool,
# K-row training, concurrent experiment sweeps).
test-race:
	go test -race -short ./...

# Short exploratory fuzz of the routing and partitioning invariants;
# the committed seed corpora replay in every normal `go test` run.
fuzz:
	go test -fuzz FuzzMeshRoute -fuzztime 30s ./internal/topology
	go test -fuzz FuzzPartition -fuzztime 30s ./internal/partition
	go test -fuzz FuzzFaultedRoute -fuzztime 30s ./internal/fault
	go test -fuzz FuzzSwitchAllocation -fuzztime 30s ./internal/noc
	go test -fuzz FuzzPipelineSchedule -fuzztime 30s ./internal/cmp
	go test -fuzz FuzzGEMMBitIdentity -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzInt16GEMM -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzGEMMABTAcc -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzFCForwardInt16 -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzPackFC -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzMatVecTAccRows -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzIm2ColPacked -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzFCWeightGrad -fuzztime 30s ./internal/nn
	go test -fuzz FuzzConvRows -fuzztime 30s ./internal/nn
	go test -fuzz FuzzServeRequest -fuzztime 30s ./internal/serve

# Quick fuzz pass for CI: a few seconds per target on top of the seed
# corpora, enough to catch shallow regressions without slowing the loop.
fuzz-smoke:
	go test -fuzz FuzzMeshRoute -fuzztime 5s ./internal/topology
	go test -fuzz FuzzPartition -fuzztime 5s ./internal/partition
	go test -fuzz FuzzFaultedRoute -fuzztime 5s ./internal/fault
	go test -fuzz FuzzSwitchAllocation -fuzztime 5s ./internal/noc
	go test -fuzz FuzzPipelineSchedule -fuzztime 5s ./internal/cmp
	go test -fuzz FuzzGEMMBitIdentity -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzInt16GEMM -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzGEMMABTAcc -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzFCForwardInt16 -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzPackFC -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzMatVecTAccRows -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzIm2ColPacked -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzFCWeightGrad -fuzztime 5s ./internal/nn
	go test -fuzz FuzzConvRows -fuzztime 5s ./internal/nn
	go test -fuzz FuzzServeRequest -fuzztime 5s ./internal/serve

# One benchmark per paper table/figure plus the per-package benches.
bench:
	go test -bench=. -benchmem ./...

# Full reduced-scale evaluation (slow: trains every benchmark network).
bench-default:
	L2S_BENCH_PROFILE=default go test -bench=. -benchmem .

# The bench gate CI enforces: the performance benchmarks in 5 rounds,
# the acceptance predicates (int16 GEMM >= 2x float32, tap and
# disabled-tracer overhead <= 2% + 1ns, pipelined > replay, batched >
# batch-1 QPS, a lone request <= half a full batch at float32 and
# int16) and the zero-alloc gate over the run's own medians.
# Writes the gitignored bench-ci.json.
bench-json:
	go run ./tools/benchjson

# The serving gate CI enforces: race-clean dispatcher, the harness's
# serve row (byte-identical records for the request script at every
# worker count, pinned to testdata/golden.sum), and a structurally valid
# serving flight record from the CLI.
serve-gate:
	go test -race ./internal/serve/
	go test -run 'TestServeRecordDeterministicAcrossWorkers$$' .
	go run ./cmd/l2s-serve -precisions float32,int16 -epochs 2 -script serve_script.jsonl -obs serve.json
	go run ./cmd/l2s-trace -record serve.json -require-serve

# The request-tracing gate CI enforces: tracing is pure observation and
# stable serve-trace records are byte-identical across worker counts
# (the harness's serve row), validate structurally, and a wall-clock run
# must render the combined serve-plane Perfetto trace.
serve-trace-gate:
	go test -run 'TestServeTraceIsPureObservation$$' .
	go run ./cmd/l2s-serve -precisions float32,int16 -epochs 2 -script serve_script.jsonl -serve-trace st.jsonl
	go run ./cmd/l2s-trace -serve st.jsonl
	go run ./cmd/l2s-serve -precisions float32,int16 -epochs 2 -script serve_script.jsonl -trace-wall \
	  -serve-trace st.wall.jsonl -timeline serve.tl -serve-perfetto serve_combined.json
	go run ./cmd/l2s-trace serve.tl
	go run ./cmd/l2s-trace serve_combined.json
	go run ./cmd/l2s-trace -serve st.wall.jsonl

# Pipelined-inference sweep: throughput vs depth for all four schemes.
pipeline:
	go run ./cmd/l2s-bench -exp pipeline

# Cycle-accurate timeline demo: a Perfetto trace pair (Baseline vs
# SS_Mask) plus compact records and the side-by-side analysis.
timeline:
	go run ./examples/timeline

# The locality gate CI enforces: SS_Mask's mean hop count must be
# strictly below the dense baseline's on the same workload.
trace-gate:
	go run ./cmd/l2s-sim -net mlp -cores 16 -scheme none -epochs 3 -timeline baseline.tl
	go run ./cmd/l2s-sim -net mlp -cores 16 -scheme ssmask -epochs 3 -timeline ssmask.tl
	go run ./cmd/l2s-trace -compare -gate-mean-hops baseline.tl ssmask.tl

# Live telemetry demo: train with a windowed JSONL stream and health
# rules, then replay the stream through the l2s-top monitor.
live-demo:
	go run ./cmd/l2s-train -net mlp -epochs 5 -live live.jsonl \
	  -health 'train.epoch.loss.last < 100'
	go run ./cmd/l2s-top -follow live.jsonl -once

# The live-telemetry gate: deterministic streams are byte-identical
# across worker counts (the harness's session rows) and validate
# structurally.
live-gate:
	go test -run 'TestLiveStreamDeterministicAcrossWorkers$$' .
	go run ./cmd/l2s-train -net mlp -epochs 3 -q -live live.jsonl
	go run ./cmd/l2s-trace -live live.jsonl -min-windows 4

experiments:
	go run ./cmd/l2s-bench -exp all

# The artifacts EXPERIMENTS.md references.
artifacts:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
