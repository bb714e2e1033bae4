// Command benchgate is the allocation-regression gate: it reads fresh
// `go test -bench` output on stdin, diffs it against a committed
// baseline (BENCH_BASELINE.json, the benchparse schema), and fails when
// allocs/op regresses beyond the threshold on any benchmark present in
// both sets.
//
//	go test -run '^$' -bench . -benchmem ./internal/fsnet/ | benchgate -baseline BENCH_BASELINE.json
//
// allocs/op is the gated metric: it is deterministic for a fixed code
// path, so a 20% jump is a code change, not scheduler noise. A gated
// benchmark measured at a GOMAXPROCS other than its baseline entry's
// fails outright: a concurrent path's allocs/op (and its ns/op) depend
// on how many Ps its goroutines spread over, so the two numbers would
// not be comparable. ns/op and B/op deltas are reported for context but
// never fail the gate — wall time on shared CI machines is too noisy to
// gate on. Benchmarks only in the baseline (not run today) or only in
// today's run (new) are listed and skipped. Refresh the baseline with
// `make bench-json` when a change moves the numbers on purpose.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"aggcache/internal/benchparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fl := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fl.String("baseline", "BENCH_BASELINE.json", "committed baseline to diff against")
	threshold := fl.Float64("threshold", 0.20, "allowed fractional allocs/op regression before the gate fails")
	slack := fl.Float64("slack", 0.5, "absolute allocs/op slack added to the threshold, so near-zero baselines do not fail on rounding")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold must be >= 0, got %v", *threshold)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var baseline benchparse.Set
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parse baseline %s: %w", *baselinePath, err)
	}

	current, err := benchparse.Parse(bufio.NewReader(in))
	if err != nil {
		return fmt.Errorf("parse bench output: %w", err)
	}
	if len(current.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (is the -bench regexp right?)")
	}

	base := make(map[string]benchparse.Benchmark, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}

	var failures int
	seen := make(map[string]bool)
	for _, cur := range current.Benchmarks {
		seen[cur.Name] = true
		ref, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(out, "NEW   %-40s (not in baseline; add via make bench-json)\n", cur.Name)
			continue
		}
		curAllocs, haveCur := cur.Metrics["allocs/op"]
		refAllocs, haveRef := ref.Metrics["allocs/op"]
		nsDelta := delta(cur.Metrics["ns/op"], ref.Metrics["ns/op"])
		if !haveCur || !haveRef {
			// aggbench gobench lines carry opens/s but no -benchmem
			// columns; report throughput movement instead of gating.
			fmt.Fprintf(out, "INFO  %-40s ns/op %+.1f%% (no allocs/op; not gated)\n", cur.Name, nsDelta)
			continue
		}
		if cur.Procs != ref.Procs {
			failures++
			fmt.Fprintf(out, "FAIL  %-40s measured at procs %d, baseline at procs %d (run with -cpu %d)\n",
				cur.Name, cur.Procs, ref.Procs, ref.Procs)
			continue
		}
		limit := refAllocs*(1+*threshold) + *slack
		if curAllocs > limit {
			failures++
			fmt.Fprintf(out, "FAIL  %-40s allocs/op %.1f -> %.1f (limit %.1f)  ns/op %+.1f%%\n",
				cur.Name, refAllocs, curAllocs, limit, nsDelta)
			continue
		}
		fmt.Fprintf(out, "ok    %-40s allocs/op %.1f -> %.1f  ns/op %+.1f%%\n",
			cur.Name, refAllocs, curAllocs, nsDelta)
	}
	for _, ref := range baseline.Benchmarks {
		if !seen[ref.Name] {
			fmt.Fprintf(out, "SKIP  %-40s (in baseline, not in this run)\n", ref.Name)
		}
	}

	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed allocs/op beyond %.0f%% or ran at the wrong procs", failures, *threshold*100)
	}
	return nil
}

// delta returns the percentage change from ref to cur, 0 when ref is
// missing or zero (context only; never gated).
func delta(cur, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (cur - ref) / ref * 100
}
