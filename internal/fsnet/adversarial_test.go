package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// Adversarial server tests: hostile or broken peers must get a typed
// msgError or a clean departure — with ServerStats.Errors advancing —
// and must never disturb service to healthy clients.

// rawDial opens an unmanaged connection for crafting hostile frames.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// helloDial opens an unmanaged connection and completes the hello, for
// crafting ID-framed requests by hand.
func helloDial(t *testing.T, addr string) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	conn := rawDial(t, addr)
	if err := writeHello(conn, msgHello, protocolV3); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := readFrame(r)
	if err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	ver, derr := decodeHello(payload)
	putFrameBuf(payload)
	if typ != msgHelloOK || derr != nil || ver != protocolV3 {
		t.Fatalf("hello reply: type %d version %d (%v), want msgHelloOK %d", typ, ver, derr, protocolV3)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, r, bufio.NewWriter(conn)
}

// sendFrameID writes one ID-framed request and flushes it.
func sendFrameID(t *testing.T, w *bufio.Writer, typ uint8, id uint64, payload []byte) {
	t.Helper()
	if err := putFrameID(w, typ, id, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readErrorReply reads one ID-framed reply and requires it to be the
// msgError for request id.
func readErrorReply(t *testing.T, conn net.Conn, r *bufio.Reader, id uint64) errorResponse {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, rid, payload, err := readFrameID(r)
	if err != nil {
		t.Fatalf("no error reply: %v", err)
	}
	if typ != msgError || rid != id {
		t.Fatalf("reply type %d for request %d, want msgError for %d", typ, rid, id)
	}
	e, err := decodeErrorResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitServerErrors polls until the server error counter reaches want (or
// times out), absorbing handler-goroutine scheduling delay.
func waitServerErrors(t *testing.T, srv *Server, want uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := srv.Stats().Errors; got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertHealthy proves the server still serves a well-behaved client.
func assertHealthy(t *testing.T, addr string) {
	t.Helper()
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("healthy dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Errorf("healthy client failed: %v", err)
	}
}

func TestAdversarialOversizedFrame(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	conn := rawDial(t, addr)
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
	hdr[4] = msgOpen
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if got := waitServerErrors(t, srv, 1); got == 0 {
		t.Error("oversized frame did not advance ServerStats.Errors")
	}
	// The connection is gone: the next read sees EOF/reset.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("server kept the connection after an oversized frame")
	}
	assertHealthy(t, addr)
}

func TestAdversarialZeroLengthFrame(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	conn := rawDial(t, addr)
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := waitServerErrors(t, srv, 1); got == 0 {
		t.Error("zero-length frame did not advance ServerStats.Errors")
	}
	assertHealthy(t, addr)
}

func TestAdversarialTruncatedFrameMidPayload(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	conn := rawDial(t, addr)
	// Header promises 100 payload bytes; send 10 and hang up mid-frame.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 101)
	hdr[4] = msgOpen
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := waitServerErrors(t, srv, 1); got == 0 {
		t.Error("truncated frame did not advance ServerStats.Errors")
	}
	assertHealthy(t, addr)
}

// TestAdversarialUnknownMessageType: an ID-framed request of a type the
// server does not know fails only that request — a typed msgError for
// its ID — and the framed stream keeps serving.
func TestAdversarialUnknownMessageType(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	conn, r, w := helloDial(t, addr)
	sendFrameID(t, w, 0x7f, 1, nil) // no such message type
	if e := readErrorReply(t, conn, r, 1); e.Code != CodeBadRequest {
		t.Errorf("error code = %d, want CodeBadRequest", e.Code)
	}
	if got := waitServerErrors(t, srv, 1); got == 0 {
		t.Error("unknown message type did not advance ServerStats.Errors")
	}
	// The stream is intact: the same connection still answers.
	sendFrameID(t, w, 0x7f, 2, nil)
	readErrorReply(t, conn, r, 2)
	assertHealthy(t, addr)
}

func TestAdversarialMalformedOpenPayload(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	conn, r, w := helloDial(t, addr)
	// A syntactically framed msgOpen whose payload is garbage.
	sendFrameID(t, w, msgOpen, 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	if e := readErrorReply(t, conn, r, 1); e.Code != CodeBadRequest {
		t.Errorf("error code = %d, want CodeBadRequest", e.Code)
	}
	if got := waitServerErrors(t, srv, 1); got == 0 {
		t.Error("malformed open did not advance ServerStats.Errors")
	}
	assertHealthy(t, addr)
}

// TestAdversarialSilentClientDepartsCleanly: a connection that never
// writes must be dropped by the IdleTimeout path without counting as a
// protocol error.
func TestAdversarialSilentClientDepartsCleanly(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{IdleTimeout: 60 * time.Millisecond})
	conn := rawDial(t, addr)
	// Never write; wait for the idle deadline to fire.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); !errors.Is(err, io.EOF) {
		// The server closes without writing, so EOF is the clean signal.
		t.Fatalf("idle departure read = %v, want EOF", err)
	}
	if got := srv.Stats().Errors; got != 0 {
		t.Errorf("idle departure advanced Errors to %d; want clean departure", got)
	}
	assertHealthy(t, addr)
}

// TestServerMaxConnsRejectsGracefully: the accept limit turns excess
// connections away with CodeBusy instead of hanging or crashing them.
func TestServerMaxConnsRejectsGracefully(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 4), ServerConfig{MaxConns: 2})
	// Two live clients occupy both slots.
	c1, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c1.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}

	// The third connection gets a CodeBusy error frame, then close.
	conn := rawDial(t, addr)
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := readFrame(r)
	if err != nil {
		t.Fatalf("no rejection frame: %v", err)
	}
	if typ != msgError {
		t.Fatalf("rejection type = %d, want msgError", typ)
	}
	e, err := decodeErrorResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBusy {
		t.Errorf("rejection code = %d, want CodeBusy", e.Code)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	// Both admitted clients still work.
	if _, err := c1.Open("/data/f002"); err != nil {
		t.Errorf("admitted client failed after rejection: %v", err)
	}

	// Freeing a slot readmits new connections.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := Dial(addr, ClientConfig{})
		if err == nil {
			_, err = c3.Open("/data/f003")
			_ = c3.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after client close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerWriteTimeoutUnwedgesStalledReader: a peer that requests a
// large group and then never reads must not pin its handler forever; the
// write deadline fires and the connection is dropped (Disconnects
// advances).
func TestServerWriteTimeoutUnwedgesStalledReader(t *testing.T) {
	store := NewStore()
	// One big file so the reply overwhelms kernel socket buffers.
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := store.Put("/big", big); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, store, ServerConfig{WriteTimeout: 150 * time.Millisecond})

	_, _, w := helloDial(t, addr)
	sendFrameID(t, w, msgOpen, 1, encodeOpenRequest(openRequest{Path: "/big"}))
	// Never read the multi-megabyte reply. The handler must give up on
	// its own (not because we closed).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Disconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled reader never disconnected; handler wedged")
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertHealthyPath(t, addr, "/big", big)
}

// assertHealthyPath checks a full round trip for an explicit path.
func assertHealthyPath(t *testing.T, addr, path string, want []byte) {
	t.Helper()
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("healthy dial: %v", err)
	}
	defer client.Close()
	data, err := client.Open(path)
	if err != nil {
		t.Fatalf("healthy open: %v", err)
	}
	if len(data) != len(want) {
		t.Errorf("healthy open returned %d bytes, want %d", len(data), len(want))
	}
}

// TestServerPanicRecovery: a panic must never take the process or the
// accept loop down. A handler panic becomes a msgError (CodeInternal)
// for that request alone, counted in Panics; a panic in the connection's
// read loop is counted and ends only that connection.
func TestServerPanicRecovery(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: panicRouter{path: "/data/f001"}})

	// Handler panic: the router blows up on one path.
	conn, r, w := helloDial(t, addr)
	sendFrameID(t, w, msgOpen, 1, encodeOpenRequest(openRequest{Path: "/data/f001"}))
	if e := readErrorReply(t, conn, r, 1); e.Code != CodeInternal {
		t.Errorf("recovery code = %d, want CodeInternal", e.Code)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d after a handler panic, want 1", got)
	}

	// Read-loop panic: drive handleConn over a pipe whose third Read
	// (hello, first open, second open) panics.
	srvConn, clientConn := net.Pipe()
	defer clientConn.Close()
	go func() {
		srv.handleConn(&panicConn{Conn: srvConn, panicAt: 3}, 999)
		_ = srvConn.Close() // as Serve's forget does
	}()
	_ = clientConn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := writeHello(clientConn, msgHello, protocolV3); err != nil {
		t.Fatal(err)
	}
	pr := bufio.NewReader(clientConn)
	if typ, _, err := readFrame(pr); err != nil || typ != msgHelloOK {
		t.Fatalf("hello reply: type %d, %v", typ, err)
	}
	pw := bufio.NewWriter(clientConn)
	sendFrameID(t, pw, msgOpen, 1, encodeOpenRequest(openRequest{Path: "/data/f000"}))
	// The first open is answered in full: member chunks, then group end.
	for {
		typ, _, _, err := readFrameID(pr)
		if err != nil {
			t.Fatalf("first reply: %v", err)
		}
		if typ == msgGroupEnd {
			break
		}
	}
	sendFrameID(t, pw, msgOpen, 2, encodeOpenRequest(openRequest{Path: "/data/f001"}))
	if _, _, _, err := readFrameID(pr); err == nil {
		t.Error("connection kept serving after its read loop panicked")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Panics < 2 && !time.Now().After(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().Panics; got != 2 {
		t.Errorf("Panics = %d, want 2 (handler + read loop)", got)
	}
	// The server proper is unharmed.
	assertHealthy(t, addr)
}

// panicRouter panics whenever path is opened and declines everything
// else, so the server serves it locally.
type panicRouter struct{ path string }

func (p panicRouter) RouteOpen(path string, _ []string) ([]GroupFile, bool, error) {
	if path == p.path {
		panic("injected handler panic")
	}
	return nil, false, nil
}

// panicConn panics on the panicAt-th Read call, simulating a read loop
// that blows up mid-connection. With net.Pipe and whole frames written at
// once, each frame arrives as exactly one Read.
type panicConn struct {
	net.Conn
	reads   int
	panicAt int
}

func (p *panicConn) Read(b []byte) (int, error) {
	n, err := p.Conn.Read(b)
	p.reads++
	if p.reads == p.panicAt {
		// Consume the request first (net.Pipe writes block until read),
		// then blow up while "handling" it.
		panic("injected handler panic")
	}
	return n, err
}
