package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aggcache/internal/obs/otrace"
)

// statsNode serves one tracer's /traces and /trace/<id> like aggserve's
// stats mux.
func statsNode(t *testing.T, tr *otrace.Tracer) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/traces", tr.SummariesHandler())
	mux.Handle("/trace/", tr.TraceHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestCollectTracesStitchesAcrossNodes: a forwarded open recorded on two
// nodes comes back as one trace naming both nodes, ahead of a wider-in-
// spans but single-node trace; the minimum-node gate passes at 2 and
// fails at 3 after still writing the output.
func TestCollectTracesStitchesAcrossNodes(t *testing.T) {
	a := otrace.New(otrace.Config{Node: "node-a", SampleRate: 1})
	b := otrace.New(otrace.Config{Node: "node-b", SampleRate: 1})
	now := time.Now()

	// Cross-node trace: entry span on a, child span on b.
	root := a.Root()
	a.Record(root, "forward", "/data/x", now, time.Millisecond)
	b.Record(b.Child(root), "hit", "/data/x", now.Add(time.Microsecond), time.Microsecond)

	// Local-only trace on b with more spans.
	local := b.Root()
	b.Record(local, "stage", "/data/y", now, time.Millisecond)
	b.Record(b.Child(local), "mirror", "/data/y", now, time.Millisecond)
	b.Record(b.Child(local), "mirror", "/data/y", now, time.Millisecond)

	addrs := []string{statsNode(t, a), statsNode(t, b)}
	var out bytes.Buffer
	if err := collectTraces(addrs, 2, &out); err != nil {
		t.Fatalf("collectTraces: %v\n%s", err, out.String())
	}
	var traces []stitchedTrace
	if err := json.Unmarshal(out.Bytes(), &traces); err != nil {
		t.Fatalf("output is not a JSON trace list: %v\n%s", err, out.String())
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	first := traces[0]
	if first.TraceID != root.TraceID() {
		t.Errorf("widest trace = %s, want the cross-node %s", first.TraceID, root.TraceID())
	}
	if len(first.Nodes) != 2 || first.Nodes[0] != "node-a" || first.Nodes[1] != "node-b" {
		t.Errorf("nodes = %v, want [node-a node-b]", first.Nodes)
	}
	if len(first.Spans) != 2 || first.Spans[0].Name != "forward" || first.Spans[1].Name != "hit" {
		t.Errorf("spans not joined in start order: %+v", first.Spans)
	}
	if first.Spans[1].Parent != first.Spans[0].SpanID {
		t.Errorf("child span parent = %q, want %q", first.Spans[1].Parent, first.Spans[0].SpanID)
	}
	// The smoke script greps this exact rendering.
	if !strings.Contains(out.String(), `"trace_id": "`+root.TraceID()+`"`) {
		t.Error("output lacks the indented trace_id field")
	}

	out.Reset()
	if err := collectTraces(addrs, 3, &out); err == nil {
		t.Error("min-nodes 3 passed with a 2-node fleet")
	}
	if out.Len() == 0 {
		t.Error("failing run wrote no output to inspect")
	}
}

func TestCollectTracesErrors(t *testing.T) {
	if err := collectTraces(nil, 1, &bytes.Buffer{}); err == nil {
		t.Error("no addresses accepted")
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	if err := collectTraces([]string{bad.URL}, 1, &bytes.Buffer{}); err == nil {
		t.Error("scrape of a failing node succeeded")
	}
	// An empty fleet stitches nothing: fine at min-nodes 0, a failure at 1.
	empty := statsNode(t, otrace.New(otrace.Config{Node: "idle", SampleRate: 1}))
	if err := collectTraces([]string{empty}, 0, &bytes.Buffer{}); err != nil {
		t.Errorf("empty fleet at min-nodes 0: %v", err)
	}
	if err := collectTraces([]string{empty}, 1, &bytes.Buffer{}); err == nil {
		t.Error("empty fleet passed min-nodes 1")
	}
}
