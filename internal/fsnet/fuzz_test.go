package fsnet

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"aggcache/internal/obs/otrace"
)

// Fuzz targets: the protocol decoders must never panic on arbitrary
// input; they either parse or return an error. (Seeds below double as
// regular unit cases under plain `go test`.)

func FuzzDecodeOpenRequest(f *testing.F) {
	f.Add(encodeOpenRequest(openRequest{Path: "/x", Accessed: []string{"/a", "/b"}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeOpenRequest(data)
		if err == nil {
			// A successful parse must round-trip.
			again, err2 := decodeOpenRequest(encodeOpenRequest(req))
			if err2 != nil {
				t.Fatalf("re-decode failed: %v", err2)
			}
			if again.Path != req.Path || len(again.Accessed) != len(req.Accessed) {
				t.Fatal("round-trip mismatch")
			}
		}
	})
}

// FuzzDecodeGroupResponse fuzzes the group-reply decoders: a reply is a
// stream of msgMemberChunk payloads (memberChunkView) closed by a
// msgGroupEnd payload (decodeGroupEnd). Each input is tried as both; a
// successful parse must re-encode to a payload that decodes identically.
func FuzzDecodeGroupResponse(f *testing.F) {
	f.Add(append(appendMemberChunkHdr(nil, 1, "/x", 1), 'd')[4+idHdrLen:])
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if path, body, err := memberChunkView(data); err == nil {
			again := append(appendMemberChunkHdr(nil, 1, string(path), len(body)), body...)
			p2, b2, err2 := memberChunkView(again[4+idHdrLen:])
			if err2 != nil {
				t.Fatalf("re-decode failed: %v", err2)
			}
			if !bytes.Equal(p2, path) || !bytes.Equal(b2, body) {
				t.Fatal("chunk round-trip mismatch")
			}
		}
		if n, err := decodeGroupEnd(data); err == nil {
			again, err2 := decodeGroupEnd(appendGroupEnd(nil, n))
			if err2 != nil || again != n {
				t.Fatalf("group end round-trip: %d, %v; want %d", again, err2, n)
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(appendUvarint(nil, protocolV3))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := decodeHello(data); err == nil {
			if again, err2 := decodeHello(appendUvarint(nil, uint64(v))); err2 != nil || again != v {
				t.Fatalf("round-trip: %d, %v; want %d", again, err2, v)
			}
		}
	})
}

// FuzzReadFrameID feeds arbitrary bytes to the ID-framed reader: it must
// return a frame or an error — never panic, and never block on a length
// the input does not back.
func FuzzReadFrameID(f *testing.F) {
	f.Add(appendFrameID(nil, msgOpen, 7, []byte("payload")))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 9, msgOpen})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			typ, id, payload, err := readFrameID(r)
			if err != nil {
				return
			}
			if !bytes.Equal(appendFrameID(nil, typ, id, payload), data[:4+idHdrLen+len(payload)]) {
				t.Fatal("frame does not re-encode to its input")
			}
			data = data[4+idHdrLen+len(payload):]
			putFrameBuf(payload)
		}
	})
}

func FuzzDecodeTraceCtx(f *testing.F) {
	f.Add(appendTraceCtx(nil, 3, otrace.Ctx{Hi: 1, Lo: 2, Span: 9, Sampled: true}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, ctx, err := decodeTraceCtx(data)
		if err != nil {
			return
		}
		id2, ctx2, err2 := decodeTraceCtx(appendTraceCtx(nil, id, ctx))
		if err2 != nil || id2 != id || ctx2 != ctx {
			t.Fatalf("round-trip: %d %+v %v; want %d %+v", id2, ctx2, err2, id, ctx)
		}
	})
}

func FuzzDecodeViewMsg(f *testing.F) {
	f.Add(appendViewMsg(nil, 4, "node:1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, sender, err := decodeViewMsg(data)
		if err != nil {
			return
		}
		e2, s2, err2 := decodeViewMsg(appendViewMsg(nil, epoch, sender))
		if err2 != nil || e2 != epoch || s2 != sender {
			t.Fatalf("round-trip: %d %q %v; want %d %q", e2, s2, err2, epoch, sender)
		}
	})
}

func FuzzDecodeViewPush(f *testing.F) {
	f.Add(appendViewPush(nil, 4, "node:1", []string{"node:1", "node:2"}))
	f.Add(appendViewPush(nil, 5, "node:1", nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, sender, members, err := decodeViewPush(data)
		if err != nil {
			return
		}
		e2, s2, m2, err2 := decodeViewPush(appendViewPush(nil, epoch, sender, members))
		if err2 != nil || e2 != epoch || s2 != sender || strings.Join(m2, "\n") != strings.Join(members, "\n") {
			t.Fatalf("round-trip: %d %q %v %v; want %d %q %v", e2, s2, m2, err2, epoch, sender, members)
		}
	})
}

func FuzzDecodeHandoffRequest(f *testing.F) {
	f.Add(encodeHandoffRequest(handoffRequest{Anchor: "/a", Members: []string{"/b", "/c"}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeHandoffRequest(data)
		if err != nil {
			return
		}
		again, err2 := decodeHandoffRequest(encodeHandoffRequest(req))
		if err2 != nil || again.Anchor != req.Anchor || strings.Join(again.Members, "\n") != strings.Join(req.Members, "\n") {
			t.Fatalf("round-trip: %+v %v; want %+v", again, err2, req)
		}
	})
}

func FuzzDecodeWriteRequest(f *testing.F) {
	f.Add(encodeWriteRequest(writeRequest{Path: "/x", Data: []byte("abc")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeWriteRequest(data)
		if err == nil {
			if !bytes.Equal(encodeWriteRequest(req)[:0], []byte{}) {
				// no-op; ensure encode does not panic
				_ = encodeWriteRequest(req)
			}
		}
	})
}

func FuzzDecodeErrorResponse(f *testing.F) {
	f.Add(encodeErrorResponse(errorResponse{Code: CodeNotFound, Message: "x"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeErrorResponse(data)
	})
}
