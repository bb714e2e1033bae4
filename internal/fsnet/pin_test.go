package fsnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"aggcache/internal/core"
)

// The sequential-behaviour pin: a scripted, strictly sequential client
// session must produce byte-identical group replies and an identical
// ServerStats snapshot across refactors of the serving path. The
// constants below were captured from the pre-concurrency server, which
// spoke the lock-step protocol and sent each group as one msgGroup
// payload; the script now runs over the streamed protocol, and each
// member stream is re-encoded in that msgGroup form before hashing, so
// the same constants still pin the serving semantics. Any change to them
// is a semantic regression, not a perf improvement.

// pinStep is one scripted request: an open with an explicit piggybacked
// history, or a whole-file write.
type pinStep struct {
	write    bool
	path     string
	accessed []string
	data     string
}

func pinStore(t testing.TB) *Store {
	t.Helper()
	store := NewStore()
	for i := 0; i < 16; i++ {
		path := fmt.Sprintf("/pin/f%02d", i)
		content := fmt.Sprintf("pin-data-%02d:%s", i, strings.Repeat("ab", i))
		if err := store.Put(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func pinScript() []pinStep {
	f := func(i int) string { return fmt.Sprintf("/pin/f%02d", i) }
	return []pinStep{
		{path: f(0)},
		{path: f(1), accessed: []string{f(0)}},
		{path: f(2), accessed: []string{f(1)}},
		{path: f(0)},
		{path: f(1), accessed: []string{f(0)}},
		{path: f(2), accessed: []string{f(1)}},
		{path: f(10)},
		{path: f(11), accessed: []string{f(10)}},
		{path: f(0), accessed: []string{f(11)}},
		{path: f(1)},
		{path: f(2), accessed: []string{f(1)}},
		{path: "/pin/missing"},
		{write: true, path: f(3), data: "updated-f03"},
		{path: f(3)},
		{path: f(12), accessed: []string{f(3)}},
		{path: f(13), accessed: []string{f(12)}},
		{path: f(0), accessed: []string{f(13)}},
		{path: f(1)},
	}
}

// runPinScript replays the script over one raw connection, one request
// in flight at a time, and returns the SHA-256 over every reply (type
// byte || payload), oldest first — a member stream counting as one
// msgGroup reply in the retired single-payload encoding.
func runPinScript(t *testing.T, addr string) string {
	t.Helper()
	_, r, w := helloDial(t, addr)
	h := sha256.New()
	for i, step := range pinScript() {
		id := uint64(i + 1)
		typ, payload := msgOpen, encodeOpenRequest(openRequest{Path: step.path, Accessed: step.accessed})
		if step.write {
			typ, payload = msgWrite, encodeWriteRequest(writeRequest{Path: step.path, Data: []byte(step.data)})
		}
		if err := putFrameID(w, typ, id, payload); err != nil {
			t.Fatalf("step %d send: %v", i, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("step %d send: %v", i, err)
		}
		var chunks [][]byte
		for {
			typ, rid, payload, err := readFrameID(r)
			if err != nil {
				t.Fatalf("step %d reply: %v", i, err)
			}
			if rid != id {
				t.Fatalf("step %d: reply for request %d, want %d", i, rid, id)
			}
			if typ == msgMemberChunk {
				chunks = append(chunks, payload)
				continue
			}
			if typ == msgGroupEnd {
				n, err := decodeGroupEnd(payload)
				if err != nil || n != len(chunks) {
					t.Fatalf("step %d: group end %d, %v after %d chunks", i, n, err, len(chunks))
				}
				typ = msgGroup
				if payload, err = groupEncoding(chunks); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			h.Write([]byte{typ})
			h.Write(payload)
			break
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// groupEncoding re-encodes a member stream — the msgMemberChunk payloads
// of one reply, in order — as the payload of the retired single-frame
// msgGroup reply: uvarint member count, then per member a length-prefixed
// path and length-prefixed contents.
func groupEncoding(chunks [][]byte) ([]byte, error) {
	b := appendUvarint(nil, uint64(len(chunks)))
	for _, c := range chunks {
		path, data, err := memberChunkView(c)
		if err != nil {
			return nil, err
		}
		b = appendBytes(b, path)
		b = appendBytes(b, data)
	}
	return b, nil
}

// Captured from the pre-concurrency (serialized) server. Do not update
// these without a deliberate, documented semantic change.
const pinWantHash = "b2f73518b0d58cfae86056e6b82f56e0465a3b581df6a75d97c883bf8fd62bf4"

var pinWantStats = ServerStats{
	Requests:  18,
	Errors:    1,
	FilesSent: 32,
	Cache: core.Stats{
		Hits:         8,
		Misses:       8,
		GroupFetches: 8,
		FilesFetched: 8,
		Evictions:    2,
	},
}

func TestSequentialServerPinnedBehaviour(t *testing.T) {
	store := pinStore(t)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3, CacheCapacity: 6, SuccessorCapacity: 2})
	gotHash := runPinScript(t, addr)
	gotStats := srv.Stats()
	if gotHash != pinWantHash {
		t.Errorf("reply hash = %s, want %s", gotHash, pinWantHash)
	}
	if gotStats != pinWantStats {
		t.Errorf("server stats = %+v, want %+v", gotStats, pinWantStats)
	}
}
