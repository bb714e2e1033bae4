package cluster

import (
	"testing"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs/otrace"
)

// TestClusterLearnsForwardedOpens: a node learns its clients' whole
// access streams, including opens it forwards to another owner. A client
// of node 1 alternates L (owned by node 1) and R (owned by node 2); the
// repeat opens are client cache hits that reach node 1 only as the
// piggyback of a forwarded fetch of R. A fresh client of node 1 opening L
// must then receive R in L's group, built from node 1's own metadata.
func TestClusterLearnsForwardedOpens(t *testing.T) {
	tc := startCluster(t, 3, nil)
	l := tc.pathOwnedBy(t, 1, nil)
	r := tc.pathOwnedBy(t, 2, nil)

	client := tc.client(t, 1, fsnet.ClientConfig{})
	for round := 0; round < 6; round++ {
		if _, err := client.Open(l); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Open(r); err != nil {
			t.Fatal(err)
		}
		// Drains the backlog of cache hits through node 1 as the piggyback
		// of a routed open (a forward, or a mirror hit once mirrored).
		if _, err := client.OpenGroup(r); err != nil {
			t.Fatal(err)
		}
	}

	probe := tc.client(t, 1, fsnet.ClientConfig{})
	group, err := probe.OpenGroup(l)
	if err != nil {
		t.Fatal(err)
	}
	if group[0].Path != l || string(group[0].Data) != testContent(l) {
		t.Fatalf("group head = %q (%q)", group[0].Path, group[0].Data)
	}
	paths := make([]string, len(group))
	found := false
	for i, f := range group {
		paths[i] = f.Path
		if f.Path == r {
			found = true
			if string(f.Data) != testContent(r) {
				t.Errorf("member %s data = %q", r, f.Data)
			}
		}
	}
	if !found {
		t.Fatalf("node 1 never learned %s→%s from forwarded opens; group of %s = %v", l, r, l, paths)
	}
	st := tc.nodes[1].Stats()
	if st.ForwardedOpens == 0 {
		t.Error("workload never forwarded")
	}
	if st.LocalOpens == 0 {
		t.Error("probe open of the owned path was not served locally")
	}
}

// TestClusterReceivingNodeChoosesGroup: a forwarded open's reply follows
// the receiving node's successors, not the owner's. A client of node 1
// teaches anchor→follow (node 0 owns both), then a direct client of node
// 0 makes anchor→other the owner's most recent successor. A fresh client
// of node 1 must still get follow ahead of other, with the owner's bytes.
func TestClusterReceivingNodeChoosesGroup(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.MirrorCapacity = -1 // every open of anchor is an owner forward
	})
	anchor := tc.pathOwnedBy(t, 0, nil)
	follow := tc.pathOwnedBy(t, 0, map[string]bool{anchor: true})
	other := tc.pathOwnedBy(t, 0, map[string]bool{anchor: true, follow: true})

	trainer := tc.client(t, 1, fsnet.ClientConfig{})
	direct := tc.client(t, 0, fsnet.ClientConfig{})
	for _, step := range []struct {
		c    *fsnet.Client
		next string
	}{{trainer, follow}, {direct, other}} {
		for round := 0; round < 3; round++ {
			for _, p := range []string{anchor, step.next} {
				if _, err := step.c.OpenGroup(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	probe := tc.client(t, 1, fsnet.ClientConfig{})
	group, err := probe.OpenGroup(anchor)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int, len(group))
	paths := make([]string, len(group))
	for i, f := range group {
		pos[f.Path], paths[i] = i, f.Path
		if string(f.Data) != testContent(f.Path) {
			t.Errorf("member %s data = %q", f.Path, f.Data)
		}
	}
	fi, okF := pos[follow]
	oi, okO := pos[other]
	if paths[0] != anchor || !okF || !okO || fi > oi {
		t.Fatalf("group of %s = %v, want the anchor, then %s (node 1's successor) before %s (the owner's)",
			anchor, paths, follow, other)
	}
}

// TestRouteOpenNowVerdicts pins the inline half of routing: owned paths
// are local, unmirrored remote paths need the blocking path and count
// nothing yet, and a mirrored group is answered with the mirror counter
// and a "mirror" span under the request's trace.
func TestRouteOpenNowVerdicts(t *testing.T) {
	tr := otrace.New(otrace.Config{Node: "node0", SampleRate: 1})
	tc := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.MirrorTTL = time.Hour
		if i == 0 {
			cfg.Trace = tr
		}
	})
	n := tc.nodes[0]
	own := tc.pathOwnedBy(t, 0, nil)
	remote := tc.pathOwnedBy(t, 1, nil)

	if files, route := n.RouteOpenNow([]byte(own), nil, otrace.Ctx{}); route != fsnet.RouteLocal || files != nil {
		t.Fatalf("owned path: route %d, files %v; want RouteLocal", route, files)
	}
	if _, route := n.RouteOpenNow([]byte(remote), nil, otrace.Ctx{}); route != fsnet.RouteBlocking {
		t.Fatalf("unmirrored remote path: route %d, want RouteBlocking", route)
	}
	if st := n.Stats(); st.LocalOpens != 1 || st.MirrorHits != 0 || st.ForwardedOpens != 0 {
		t.Fatalf("stats after inline verdicts = %+v", st)
	}

	// The blocking path forwards and fills the mirror.
	if _, handled, err := n.RouteOpen(remote, nil); !handled || err != nil {
		t.Fatalf("RouteOpen handled=%v err=%v", handled, err)
	}
	ctx := tr.Root()
	files, route := n.RouteOpenNow([]byte(remote), []string{own}, ctx)
	if route != fsnet.RouteAnswered || len(files) == 0 || files[0].Path != remote || string(files[0].Data) != testContent(remote) {
		t.Fatalf("mirrored path: route %d, files %v; want RouteAnswered leading with %s", route, files, remote)
	}
	if st := n.Stats(); st.MirrorHits != 1 || st.ForwardedOpens != 1 {
		t.Errorf("stats after mirror hit = %+v, want 1 mirror hit and 1 forward", st)
	}
	spans := tr.TraceSpans(ctx.Hi, ctx.Lo)
	if len(spans) != 1 || spans[0].Name != "mirror" || spans[0].Parent != ctx.Span {
		t.Errorf("mirror hit spans = %+v, want one mirror child span", spans)
	}
}
