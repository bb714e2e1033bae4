#!/bin/sh
# bench_gate.sh — allocation-regression gate for the open hot paths.
#
# Runs the fsnet hot-path benchmarks and the cluster routed-open
# benchmarks (owned, mirrored, forwarded) with -benchmem and diffs
# allocs/op against the committed BENCH_BASELINE.json via cmd/benchgate:
# a >20% allocs/op regression on any gated benchmark fails the script
# (ns/op is reported but never gated — CI wall time is noise). Every
# gated baseline entry was recorded at GOMAXPROCS 1, so the benchmarks
# run at -cpu 1; benchgate fails an entry measured at other procs.
# Refresh the baseline with `make bench-json` when a change moves the
# numbers on purpose.
#
# Usage: sh scripts/bench_gate.sh  (or: make bench-gate)
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

{ $GO test -run '^$' \
    -bench 'BenchmarkOpenLoopback$|BenchmarkOpenPipelined' \
    -benchmem -benchtime 0.5s -count 1 -cpu 1 ./internal/fsnet/ ; \
  $GO test -run '^$' -bench 'BenchmarkOpenRouted' \
    -benchmem -benchtime 0.5s -count 1 -cpu 1 ./internal/cluster/ ; } \
  | $GO run ./cmd/benchgate -baseline BENCH_BASELINE.json
