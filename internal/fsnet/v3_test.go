package fsnet

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The v3 suite pins the one wire dialect: the hello gate every other
// version pairing now meets, byte-level equivalence between a streamed
// group and the group the server assembled, and the poisoning contract
// when a member stream is cut mid-flight.

// handshakeFake stands in for a server that speaks a retired protocol
// version: it reads each connection's hello, answers it with answer, and
// — while the client keeps the connection open — records the type of
// every frame the client sends afterwards.
type handshakeFake struct {
	addr string
	wg   sync.WaitGroup // one per accepted connection

	mu    sync.Mutex
	conns int
	seen  []uint8
}

func newHandshakeFake(t *testing.T, answer func(conn net.Conn) error) *handshakeFake {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	f := &handshakeFake{addr: l.Addr().String()}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns++
			f.mu.Unlock()
			f.wg.Add(1)
			go func(conn net.Conn) {
				defer f.wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				typ, payload, err := readFrame(r)
				if err != nil || typ != msgHello {
					return
				}
				putFrameBuf(payload)
				if answer(conn) != nil {
					return
				}
				for {
					typ, _, payload, err := readFrameID(r)
					if err != nil {
						return
					}
					putFrameBuf(payload)
					f.mu.Lock()
					f.seen = append(f.seen, typ)
					f.mu.Unlock()
				}
			}(conn)
		}
	}()
	return f
}

// stats reports how many connections the fake accepted and the frame
// types it saw after the handshake. It waits until the client has hung
// up on every connection, so no frame in flight is missed.
func (f *handshakeFake) stats() (int, []uint8) {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.conns, append([]uint8(nil), f.seen...)
}

// answerHelloOK answers a hello with msgHelloOK for version ver.
func answerHelloOK(ver int) func(net.Conn) error {
	return func(conn net.Conn) error { return writeHello(conn, msgHelloOK, ver) }
}

// answerLegacy answers a hello the way a pre-handshake (version-1) server
// did: "unknown message type", then close.
func answerLegacy(conn net.Conn) error {
	_ = writeFrame(conn, msgError, encodeErrorResponse(errorResponse{
		Code:    CodeBadRequest,
		Message: fmt.Sprintf("unknown message type %d", msgHello),
	}))
	return errors.New("legacy server departs")
}

// TestNegotiationMatrix drives every client/server version pairing. Only
// v3 meets v3; every retired pairing fails at the hello. A server refuses
// a retired client's first frame with one CodeBadRequest error, counted in
// Errors, then closes; a client refuses a server that answers with
// anything but helloOK(3), failing the open promptly with ErrConnBroken
// and sending nothing further on that connection.
func TestNegotiationMatrix(t *testing.T) {
	t.Run("v3-v3", func(t *testing.T) {
		const files = 8
		srv, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 3, CacheCapacity: 32})
		client, err := Dial(addr, ClientConfig{CacheCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/data/f%03d", i)
			data, err := client.Open(path)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			if want := "contents of " + path; string(data) != want {
				t.Errorf("open %s = %q, want %q", path, data, want)
			}
		}
		if st := srv.Stats(); st.Errors != 0 {
			t.Errorf("server errors = %d, want 0: %+v", st.Errors, st)
		}
	})

	t.Run("v3-v3-explicit", func(t *testing.T) {
		// The handshake bytes, pinned: hello(3) in, helloOK(3) out, then
		// ID framing with the group streamed as chunks plus a group end.
		srv, addr := startServer(t, seededStore(t, 2), ServerConfig{GroupSize: 3})
		conn := rawDial(t, addr)
		if err := writeHello(conn, msgHello, protocolV3); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		got := make([]byte, 6)
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("helloOK: %v", err)
		}
		if want := "00000002" + "07" + "03"; hex.EncodeToString(got) != want {
			t.Errorf("helloOK wire bytes = %x, want %s", got, want)
		}
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		if putFrameID(w, msgOpen, 1, encodeOpenRequest(openRequest{Path: "/data/f000"})) != nil || w.Flush() != nil {
			t.Fatal("send open")
		}
		var chunks int
		for {
			typ, id, payload, err := readFrameID(r)
			if err != nil {
				t.Fatalf("reply: %v", err)
			}
			if id != 1 {
				t.Fatalf("reply for request %d, want 1", id)
			}
			if typ == msgGroupEnd {
				if n, err := decodeGroupEnd(payload); err != nil || n != chunks {
					t.Errorf("group end = %d, %v; want %d chunks", n, err, chunks)
				}
				break
			}
			if typ != msgMemberChunk {
				t.Fatalf("reply type %d, want member chunks", typ)
			}
			chunks++
		}
		if st := srv.Stats(); st.Errors != 0 || st.Requests != 1 {
			t.Errorf("server stats = %+v, want one clean request", st)
		}
	})

	// A retired client's first frame: the server answers one typed
	// error, counts it, and closes.
	for _, tc := range []struct {
		name  string
		first func(w io.Writer) error
	}{
		// A lock-step client never said hello: its first frame is a bare open.
		{"v1client-v3server", func(w io.Writer) error {
			return writeFrame(w, msgOpen, encodeOpenRequest(openRequest{Path: "/data/f000"}))
		}},
		{"v1hello-v3server", func(w io.Writer) error { return writeHello(w, msgHello, 1) }},
		{"v2client-v3server", func(w io.Writer) error { return writeHello(w, msgHello, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
			conn := rawDial(t, addr)
			if err := tc.first(conn); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			typ, payload, err := readFrame(r)
			if err != nil {
				t.Fatalf("no reply to a retired first frame: %v", err)
			}
			if typ != msgError {
				t.Fatalf("reply type = %d, want msgError", typ)
			}
			if e, err := decodeErrorResponse(payload); err != nil || e.Code != CodeBadRequest {
				t.Errorf("reply = %+v, %v; want CodeBadRequest", e, err)
			}
			if _, _, err := readFrame(r); err == nil {
				t.Error("server kept the connection after refusing the hello")
			}
			if got := waitServerErrors(t, srv, 1); got != 1 {
				t.Errorf("server errors = %d, want 1", got)
			}
			assertHealthy(t, addr)
		})
	}

	// A server answering with anything but helloOK(3): the client fails
	// the open with the typed transport error, without redialing (no
	// retries configured) and without sending a single request frame.
	for _, tc := range []struct {
		name   string
		answer func(net.Conn) error
	}{
		{"v3client-v2server", answerHelloOK(2)},
		{"v3client-v1server", answerLegacy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fake := newHandshakeFake(t, tc.answer)
			client, err := Dial(fake.addr, ClientConfig{Timeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			start := time.Now()
			if _, err := client.Open("/data/f000"); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("open = %v, want ErrConnBroken", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("refusal took %v; the client must fail promptly, not time out", d)
			}
			if client.Connected() {
				t.Error("client kept the refused connection")
			}
			conns, seen := fake.stats()
			if conns != 1 || len(seen) != 0 {
				t.Errorf("fake saw %d connections and frames %v, want 1 and none", conns, seen)
			}
		})
	}
}

// TestStreamedGroupMatchesAssembled is the golden equivalence check: the
// group a client receives as a member stream must be exactly the group
// the server assembled — its learned members in order, each with the
// store's bytes.
func TestStreamedGroupMatchesAssembled(t *testing.T) {
	const files = 12
	store := seededStore(t, files)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 4, CacheCapacity: 32})
	warm, err := Dial(addr, ClientConfig{CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the server's successor metadata so the reply is a real
	// multi-member group.
	for i := 0; i < files; i++ {
		if _, err := warm.Open(fmt.Sprintf("/data/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = warm.Close()

	const anchor = "/data/f000"
	exported := srv.ExportGroups(func(p string) bool { return p == anchor })
	if len(exported) != 1 {
		t.Fatalf("exported %d groups for %s, want 1", len(exported), anchor)
	}
	var assembled []GroupFile
	for _, p := range append([]string{anchor}, exported[0].Members...) {
		data, ok := store.Get(p)
		if !ok {
			t.Fatalf("store lost %s", p)
		}
		assembled = append(assembled, GroupFile{Path: p, Data: data})
	}

	// A fresh connection's first open learns no transition, so the
	// server builds exactly the group exported above.
	client, err := Dial(addr, ClientConfig{CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	streamed, err := client.OpenGroup(anchor)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(assembled) {
		t.Fatalf("streamed group has %d members, assembled %d", len(streamed), len(assembled))
	}
	if len(streamed) < 2 {
		t.Fatalf("group of %d members exercises no streaming; grow the warmup", len(streamed))
	}
	for i := range streamed {
		if streamed[i].Path != assembled[i].Path {
			t.Errorf("member %d path: streamed %q, assembled %q", i, streamed[i].Path, assembled[i].Path)
		}
		if !bytes.Equal(streamed[i].Data, assembled[i].Data) {
			t.Errorf("member %d data: streamed %q, assembled %q", i, streamed[i].Data, assembled[i].Data)
		}
	}
}

// TestPinV3ChunkWireFormat pins the exact v3 wire bytes: a member chunk
// frame and its closing group end, hex-encoded. A codec change that
// breaks this test breaks deployed v3 peers.
func TestPinV3ChunkWireFormat(t *testing.T) {
	// Frame: len | msgMemberChunk | id=0x0102 | pathlen=2 "/a" | datalen=3, then "xyz".
	hdr := appendMemberChunkHdr(nil, 0x0102, "/a", 3)
	frame := append(append([]byte{}, hdr...), []byte("xyz")...)
	const wantChunk = "00000010" + // length: 16 bytes after the prefix
		"0a" + // msgMemberChunk
		"0000000000000102" + // request ID
		"022f61" + // path "/a"
		"03" + // data length
		"78797a" // "xyz"
	if got := hex.EncodeToString(frame); got != wantChunk {
		t.Errorf("member chunk wire bytes:\n got %s\nwant %s", got, wantChunk)
	}
	end := appendFrameID(nil, msgGroupEnd, 0x0102, appendGroupEnd(nil, 2))
	const wantEnd = "0000000a" + "0b" + "0000000000000102" + "02"
	if got := hex.EncodeToString(end); got != wantEnd {
		t.Errorf("group end wire bytes:\n got %s\nwant %s", got, wantEnd)
	}

	// Round trip: the views decode back to exactly what was encoded.
	payload := frame[4+idHdrLen:]
	path, data, err := memberChunkView(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(path) != "/a" || string(data) != "xyz" {
		t.Errorf("memberChunkView = %q, %q", path, data)
	}
	n, err := decodeGroupEnd(end[4+idHdrLen:])
	if err != nil || n != 2 {
		t.Errorf("decodeGroupEnd = %d, %v; want 2, nil", n, err)
	}
}

// TestPinV3StreamDecodesToV2Group checks, purely at the codec level, that
// a group streamed as member chunks reassembles into the byte-identical
// payload of the retired single-frame (v2 msgGroup) encoding — the form
// the sequential-behaviour pin hashes.
func TestPinV3StreamDecodesToV2Group(t *testing.T) {
	group := []fileData{
		{Path: "/g/anchor", Data: []byte("anchor contents")},
		{Path: "/g/m1", Data: []byte{}},
		{Path: "/g/m2", Data: []byte("third member, longer contents \x00\xff")},
	}
	// The v2 layout, written out by hand: uvarint count, then per member
	// a length-prefixed path and length-prefixed contents.
	var want []byte
	want = append(want, 3)
	want = append(want, 9)
	want = append(want, "/g/anchor"...)
	want = append(want, 15)
	want = append(want, "anchor contents"...)
	want = append(want, 5)
	want = append(want, "/g/m1"...)
	want = append(want, 0)
	want = append(want, 5)
	want = append(want, "/g/m2"...)
	want = append(want, byte(len(group[2].Data)))
	want = append(want, group[2].Data...)

	// v3: one chunk frame per member, then the end frame, exactly as
	// writeBatch lays them out.
	var stream [][]byte
	for _, f := range group {
		hdr := appendMemberChunkHdr(nil, 7, f.Path, len(f.Data))
		stream = append(stream, append(hdr, f.Data...)[4+idHdrLen:])
	}
	n, err := decodeGroupEnd(appendGroupEnd(nil, len(group)))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stream) {
		t.Fatalf("group end count %d, streamed %d members", n, len(stream))
	}
	got, err := groupEncoding(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reassembled group:\n got %x\nwant %x", got, want)
	}
}

// fakeV3Server accepts connections, completes the v3 handshake, and
// hands each decoded open request to serve, which writes the reply
// directly — the harness for wire-level fault scripts the real server
// cannot be coaxed into.
func fakeV3Server(t *testing.T, serve func(conn net.Conn, w *bufio.Writer, id uint64, req openRequest) bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				typ, payload, err := readFrame(r)
				if err != nil || typ != msgHello {
					return
				}
				putFrameBuf(payload)
				if err := writeHello(conn, msgHelloOK, protocolV3); err != nil {
					return
				}
				for {
					typ, id, payload, err := readFrameID(r)
					if err != nil {
						return
					}
					if typ != msgOpen {
						putFrameBuf(payload)
						return
					}
					req, err := decodeOpenRequest(payload)
					putFrameBuf(payload)
					if err != nil {
						return
					}
					if !serve(conn, w, id, req) {
						return
					}
					if err := w.Flush(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// writeChunk writes one member chunk frame for id.
func writeChunk(w *bufio.Writer, id uint64, path string, data []byte) error {
	payload := appendString(nil, path)
	payload = appendBytes(payload, data)
	return putFrameID(w, msgMemberChunk, id, payload)
}

// TestMidStreamCutFailsOnlyThatCall scripts a server that serves the
// first open as a complete member stream, then cuts the connection after
// the first chunk of the second. The second call must fail with the
// typed transport error; the first call's result and a post-cut third
// call (on the redialed connection) must be untouched.
func TestMidStreamCutFailsOnlyThatCall(t *testing.T) {
	var opens atomic.Int32
	addr := fakeV3Server(t, func(conn net.Conn, w *bufio.Writer, id uint64, req openRequest) bool {
		switch opens.Add(1) {
		case 2:
			// Half a stream, then a hard cut: one chunk, no group end.
			_ = writeChunk(w, id, req.Path, []byte("truncated"))
			_ = w.Flush()
			time.Sleep(10 * time.Millisecond) // let the chunk land before the RST
			return false
		default:
			if err := writeChunk(w, id, req.Path, []byte("whole "+req.Path)); err != nil {
				return false
			}
			if err := writeChunk(w, id, req.Path+".member", []byte("rider")); err != nil {
				return false
			}
			return putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 2)) == nil
		}
	})

	client, err := Dial(addr, ClientConfig{CacheCapacity: 8, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Call 1: a clean streamed group.
	data, err := client.Open("/s/one")
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	if want := "whole /s/one"; string(data) != want {
		t.Errorf("open 1 = %q, want %q", data, want)
	}

	// Call 2: the stream is cut after its first chunk. With retries
	// disabled the typed error surfaces to this call and no other.
	if _, err := client.Open("/s/two"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("open 2 err = %v, want ErrConnBroken", err)
	}

	// Call 1's cached result is intact — the poison touched in-flight
	// calls only.
	data, err = client.Open("/s/one")
	if err != nil {
		t.Fatalf("open 1 (cached) after cut: %v", err)
	}
	if want := "whole /s/one"; string(data) != want {
		t.Errorf("open 1 (cached) = %q, want %q", data, want)
	}

	// Call 3: a fresh path redials and streams cleanly.
	data, err = client.Open("/s/three")
	if err != nil {
		t.Fatalf("open 3 (post-cut redial): %v", err)
	}
	if want := "whole /s/three"; string(data) != want {
		t.Errorf("open 3 = %q, want %q", data, want)
	}
	st := client.Stats()
	if st.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want exactly the scripted cut", st.BrokenConns)
	}
}

// TestStreamCountMismatchPoisons scripts a group end that declares more
// members than were streamed; the client must reject the reply with the
// typed transport error rather than surface a short group.
func TestStreamCountMismatchPoisons(t *testing.T) {
	addr := fakeV3Server(t, func(conn net.Conn, w *bufio.Writer, id uint64, req openRequest) bool {
		_ = writeChunk(w, id, req.Path, []byte("lonely"))
		_ = putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 3))
		return true // loop flushes; the client poisons and closes
	})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/s/short"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("short stream err = %v, want ErrConnBroken", err)
	}
}

// TestStreamedWrongFirstChunkPoisons scripts a stream whose first chunk
// is not the demanded path — reply misdelivery the client must refuse.
func TestStreamedWrongFirstChunkPoisons(t *testing.T) {
	addr := fakeV3Server(t, func(conn net.Conn, w *bufio.Writer, id uint64, req openRequest) bool {
		_ = writeChunk(w, id, "/not/"+req.Path, []byte("imposter"))
		_ = putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 1))
		return true // loop flushes; the client poisons and closes
	})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/s/mismatch"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("mismatched stream err = %v, want ErrConnBroken", err)
	}
}
