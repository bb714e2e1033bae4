package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineJSON = `{
  "benchmarks": [
    {"name": "BenchmarkOpenLoopback", "procs": 1, "iterations": 100,
     "metrics": {"allocs/op": 4, "ns/op": 5000, "B/op": 1200}},
    {"name": "BenchmarkOpenPipelined", "procs": 8, "iterations": 100,
     "metrics": {"allocs/op": 10, "ns/op": 2000, "B/op": 900}},
    {"name": "BenchmarkOnlyInBaseline", "procs": 1, "iterations": 1,
     "metrics": {"allocs/op": 1, "ns/op": 10}}
  ]
}`

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePassesWithinThreshold(t *testing.T) {
	in := strings.NewReader(
		"BenchmarkOpenLoopback \t 120 \t 5500 ns/op \t 1200 B/op \t 4 allocs/op\n" +
			"BenchmarkOpenPipelined-8 \t 120 \t 1900 ns/op \t 900 B/op \t 11 allocs/op\n")
	var out bytes.Buffer
	if err := run([]string{"-baseline", writeBaseline(t)}, in, &out); err != nil {
		t.Fatalf("gate failed within threshold: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "SKIP  BenchmarkOnlyInBaseline") {
		t.Errorf("missing SKIP line for unrun baseline benchmark:\n%s", out.String())
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	// 4 -> 7 allocs/op: over 20% plus the 0.5 slack.
	in := strings.NewReader("BenchmarkOpenLoopback \t 120 \t 5000 ns/op \t 1200 B/op \t 7 allocs/op\n")
	var out bytes.Buffer
	err := run([]string{"-baseline", writeBaseline(t)}, in, &out)
	if err == nil {
		t.Fatalf("gate passed a 75%% alloc regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL  BenchmarkOpenLoopback") {
		t.Errorf("missing FAIL line:\n%s", out.String())
	}
}

func TestGateFailsOnProcsMismatch(t *testing.T) {
	// Allocs hold, but the run is at GOMAXPROCS 2 against a procs-1
	// baseline entry.
	in := strings.NewReader("BenchmarkOpenLoopback-2 \t 120 \t 5000 ns/op \t 1200 B/op \t 4 allocs/op\n")
	var out bytes.Buffer
	if err := run([]string{"-baseline", writeBaseline(t)}, in, &out); err == nil {
		t.Fatalf("gate passed a run at the wrong procs:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL  BenchmarkOpenLoopback") || !strings.Contains(out.String(), "procs 2") {
		t.Errorf("missing procs FAIL line:\n%s", out.String())
	}
}

func TestGateIgnoresTimeRegression(t *testing.T) {
	// ns/op triples but allocs hold: informational only.
	in := strings.NewReader("BenchmarkOpenLoopback \t 120 \t 15000 ns/op \t 1200 B/op \t 4 allocs/op\n")
	var out bytes.Buffer
	if err := run([]string{"-baseline", writeBaseline(t)}, in, &out); err != nil {
		t.Fatalf("gate failed on wall-time noise: %v\n%s", err, out.String())
	}
}

func TestGateHandlesNewAndMetricless(t *testing.T) {
	in := strings.NewReader(
		"BenchmarkBrandNew \t 10 \t 100 ns/op \t 1 allocs/op\n" +
			"BenchmarkOpenLoopback \t 120 \t 5000 ns/op \t 4321 opens/s\n")
	var out bytes.Buffer
	if err := run([]string{"-baseline", writeBaseline(t)}, in, &out); err != nil {
		t.Fatalf("gate failed on new/metricless benchmarks: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "NEW   BenchmarkBrandNew") {
		t.Errorf("missing NEW line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "INFO  BenchmarkOpenLoopback") {
		t.Errorf("missing INFO line for allocs-less run:\n%s", out.String())
	}
}

func TestGateRejectsEmptyInput(t *testing.T) {
	if err := run([]string{"-baseline", writeBaseline(t)}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("empty bench output passed the gate")
	}
}
