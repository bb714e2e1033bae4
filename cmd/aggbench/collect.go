package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"aggcache/internal/obs/otrace"
)

// collectTimeout bounds each scrape request, so one wedged node cannot
// hang the collector.
const collectTimeout = 5 * time.Second

// stitchedTrace is one fleet-wide trace: every span any scraped node
// recorded under the trace ID, sorted by start time, plus the distinct
// nodes that carried it.
type stitchedTrace struct {
	TraceID string            `json:"trace_id"`
	Nodes   []string          `json:"nodes"`
	Spans   []otrace.SpanJSON `json:"spans"`
}

// collectTraces is the fleet trace scraper behind -trace-collect: it
// unions the trace IDs listed by each node's /traces, pulls every
// node's /trace/<id> document for each (404 means the node did not
// carry that trace), joins the spans on trace ID, and writes the
// stitched traces as indented JSON, widest (most nodes) first. It fails
// when no trace spans at least minNodes nodes, after writing the output
// so a failing run can still be inspected.
func collectTraces(addrs []string, minNodes int, out io.Writer) error {
	if len(addrs) == 0 {
		return fmt.Errorf("-trace-collect: no stats addresses")
	}
	hc := &http.Client{Timeout: collectTimeout}
	var ids []string
	seen := make(map[string]bool)
	for _, addr := range addrs {
		var sums []otrace.TraceSummary
		if err := getJSON(hc, statsURL(addr, "/traces"), &sums); err != nil {
			return err
		}
		for _, s := range sums {
			if !seen[s.TraceID] {
				seen[s.TraceID] = true
				ids = append(ids, s.TraceID)
			}
		}
	}

	traces := make([]stitchedTrace, 0, len(ids))
	for _, id := range ids {
		st := stitchedTrace{TraceID: id}
		nodes := make(map[string]bool)
		for _, addr := range addrs {
			var doc otrace.TraceDoc
			if err := getJSON(hc, statsURL(addr, "/trace/"+id), &doc); err != nil {
				if errors.Is(err, errNotFound) {
					continue
				}
				return err
			}
			for _, sp := range doc.Spans {
				if sp.Node == "" {
					sp.Node = doc.Node
				}
				nodes[sp.Node] = true
				st.Spans = append(st.Spans, sp)
			}
		}
		if len(st.Spans) == 0 {
			continue // aged out of every ring between the two scrapes
		}
		for n := range nodes {
			st.Nodes = append(st.Nodes, n)
		}
		sort.Strings(st.Nodes)
		sort.SliceStable(st.Spans, func(i, j int) bool { return st.Spans[i].StartNS < st.Spans[j].StartNS })
		traces = append(traces, st)
	}
	sort.SliceStable(traces, func(i, j int) bool {
		if len(traces[i].Nodes) != len(traces[j].Nodes) {
			return len(traces[i].Nodes) > len(traces[j].Nodes)
		}
		return len(traces[i].Spans) > len(traces[j].Spans)
	})

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traces); err != nil {
		return err
	}
	widest := 0
	if len(traces) > 0 {
		widest = len(traces[0].Nodes)
	}
	if widest < minNodes {
		return fmt.Errorf("-trace-collect: widest of %d traces spans %d nodes, want >= %d", len(traces), widest, minNodes)
	}
	return nil
}

// errNotFound marks a 404 from a node's /trace/<id>: the node did not
// participate in that trace.
var errNotFound = errors.New("trace not found")

// statsURL turns a stats address ("host:port" or a full http URL) into
// the URL of one of its endpoints.
func statsURL(addr, endpoint string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + endpoint
}

func getJSON(hc *http.Client, u string, v interface{}) error {
	resp, err := hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return errNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", u, err)
	}
	return nil
}
