package fsnet

import "testing"

// learnedAfter reports whether the server's successor metadata records
// to as a successor of from.
func learnedAfter(s *Server, from, to string) bool {
	fid, ok := s.ids.Lookup(from)
	if !ok {
		return false
	}
	tid, ok := s.ids.Lookup(to)
	if !ok {
		return false
	}
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	for _, id := range s.agg.Tracker().Successors(fid) {
		if id == tid {
			return true
		}
	}
	return false
}

// accessCount is how many times the server learned an access to path.
func accessCount(s *Server, path string) uint64 {
	id, ok := s.ids.Lookup(path)
	if !ok {
		return 0
	}
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.agg.Tracker().AccessCount(id)
}

// TestRoutedOpensLearnInArrivalOrder: every open is learned exactly once,
// in arrival order, whether the router answers it or the server does. A
// local open, a routed open, and the local open again teach f001→x and
// x→f001; learning the local open a second time on its serving path would
// record f001→f001 instead.
func TestRoutedOpensLearnInArrivalOrder(t *testing.T) {
	store := seededStore(t, 4)
	// The routed path exists locally too (replicated stores), so the
	// receiving server can intern and learn it.
	if err := store.Put("/remote/x", []byte("local replica of /remote/x")); err != nil {
		t.Fatal(err)
	}
	router := &scriptedRouter{}
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3, Router: router})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// OpenGroup bypasses the client cache, so all three reach the server.
	for _, p := range []string{"/data/f001", "/remote/x", "/data/f001"} {
		if _, err := client.OpenGroup(p); err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
	}
	if !learnedAfter(srv, "/data/f001", "/remote/x") {
		t.Error("local→routed transition f001→x not learned")
	}
	if !learnedAfter(srv, "/remote/x", "/data/f001") {
		t.Error("routed→local transition x→f001 not learned")
	}
	if learnedAfter(srv, "/data/f001", "/data/f001") {
		t.Error("self-transition f001→f001 learned: an open was learned twice or a routed open skipped")
	}
	if got := accessCount(srv, "/data/f001"); got != 2 {
		t.Errorf("f001 learned %d times, want 2 (once per open)", got)
	}
	if got := accessCount(srv, "/remote/x"); got != 1 {
		t.Errorf("x learned %d times, want 1", got)
	}
	if st := srv.Stats(); st.RemoteOpens != 1 || st.Cache.GroupFetches+st.Cache.Hits != 2 {
		t.Errorf("stats = %+v, want 1 remote open and 2 local cache accesses", st)
	}
}
