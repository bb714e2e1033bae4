package fsnet

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"aggcache/internal/obs/otrace"
)

// inlineRouter adds the InlineRouter extension to scriptedRouter: paths
// under /remote/ are answered in the read loop, paths under /slow/ need
// the blocking path (where scriptedRouter declines them back to the local
// store), /bad/ answers a group that does not lead with the demanded
// path, /boom/ panics in the read loop and /slow/boom on the blocking
// path, and everything else is local.
type inlineRouter struct {
	scriptedRouter
	inline atomic.Uint64
}

func (r *inlineRouter) RouteOpenNow(path []byte, accessed []string, _ otrace.Ctx) ([]GroupFile, Route) {
	r.inline.Add(1)
	r.lastAccess.Store(append([]string(nil), accessed...))
	p := string(path)
	switch {
	case strings.HasPrefix(p, "/boom/"):
		panic("inline router exploded")
	case strings.HasPrefix(p, "/remote/"):
		return []GroupFile{{Path: p, Data: []byte("inline " + p)}}, RouteAnswered
	case strings.HasPrefix(p, "/bad/"):
		return []GroupFile{{Path: "/wrong/head", Data: []byte("x")}}, RouteAnswered
	case strings.HasPrefix(p, "/slow/"):
		return nil, RouteBlocking
	}
	return nil, RouteLocal
}

func (r *inlineRouter) RouteOpen(path string, accessed []string) ([]GroupFile, bool, error) {
	if path == "/slow/boom" {
		panic("blocking router exploded")
	}
	return r.scriptedRouter.RouteOpen(path, accessed)
}

// TestInlineRouterPanicsStayPerRequest: a router panic, in the read loop
// or on a handler goroutine, fails only its own open with CodeInternal.
func TestInlineRouterPanicsStayPerRequest(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: &inlineRouter{}})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, p := range []string{"/boom/x", "/slow/boom"} {
		if _, err := client.Open(p); err == nil || errors.Is(err, ErrConnBroken) {
			t.Errorf("open %s: err = %v, want a typed server error", p, err)
		}
		if _, err := client.Open("/data/f000"); err != nil {
			t.Errorf("open after %s panic: %v", p, err)
		}
	}
	if got := srv.Stats().Panics; got != 2 {
		t.Errorf("Panics = %d, want 2", got)
	}
}

// TestInlineRouterVerdicts: local and answered opens never reach the
// blocking RouteOpen; a blocking verdict does, and a path it declines is
// served from the local store without being learned a second time.
func TestInlineRouterVerdicts(t *testing.T) {
	store := seededStore(t, 4)
	if err := store.Put("/slow/x", []byte("contents of /slow/x")); err != nil {
		t.Fatal(err)
	}
	router := &inlineRouter{}
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3, Router: router})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if data, err := client.Open("/data/f000"); err != nil || string(data) != "contents of /data/f000" {
		t.Fatalf("local open = %q, %v", data, err)
	}
	if data, err := client.Open("/data/f000"); err != nil || string(data) != "contents of /data/f000" {
		t.Fatalf("cached open = %q, %v", data, err)
	}
	if data, err := client.Open("/remote/a"); err != nil || string(data) != "inline /remote/a" {
		t.Fatalf("inline-answered open = %q, %v", data, err)
	}
	if got := router.calls.Load(); got != 0 {
		t.Errorf("blocking RouteOpen called %d times for inline verdicts", got)
	}
	accessed, _ := router.lastAccess.Load().([]string)
	if len(accessed) != 1 || accessed[0] != "/data/f000" {
		t.Errorf("inline router saw accessed=%v, want the piggybacked [/data/f000]", accessed)
	}

	if data, err := client.Open("/slow/x"); err != nil || string(data) != "contents of /slow/x" {
		t.Fatalf("blocking-then-declined open = %q, %v", data, err)
	}
	if got := router.calls.Load(); got != 1 {
		t.Errorf("blocking RouteOpen called %d times, want 1", got)
	}
	if got := accessCount(srv, "/slow/x"); got != 1 {
		t.Errorf("/slow/x learned %d times, want 1", got)
	}

	// A malformed inline answer fails only its own request.
	if _, err := client.Open("/bad/y"); err == nil {
		t.Error("malformed inline group accepted")
	}
	if _, err := client.Open("/data/f001"); err != nil {
		t.Errorf("open after malformed inline answer: %v", err)
	}

	st := srv.Stats()
	if st.RemoteOpens != 1 {
		t.Errorf("RemoteOpens = %d, want 1", st.RemoteOpens)
	}
	if got := router.inline.Load(); got != 5 {
		t.Errorf("RouteOpenNow called %d times, want 5 (one per server open)", got)
	}
	if st.Requests != 5 || st.Cache.Hits+st.Cache.GroupFetches != 3 {
		t.Errorf("stats = %+v, want 5 requests and 3 local cache accesses", st)
	}
}
