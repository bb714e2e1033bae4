// Package fsnet realizes the paper's Figure-2 architecture as a real
// networked system: a file server that maintains relationship metadata and
// answers every open request with a *group* of files, and a client-side
// cache manager that installs the group per the aggregating-cache rules
// and piggybacks its access statistics onto subsequent requests (§3).
//
// The wire protocol is a simple length-prefixed binary framing over TCP,
// built only on the standard library.
package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Message types.
const (
	// msgOpen is a client->server open request: the demanded path plus
	// the piggybacked list of paths the client accessed (hit or miss)
	// since its previous request, in order.
	msgOpen = uint8(iota + 1)
	// msgGroup is the server->client reply: the demanded file first,
	// then the opportunistically fetched group members.
	msgGroup
	// msgError is the server->client failure reply.
	msgError
	// msgWrite is a client->server whole-file write (write-through).
	msgWrite
	// msgWriteOK acknowledges a write.
	msgWriteOK
	// msgHello is the client's protocol-version offer, sent as the very
	// first frame of a connection by version-2-capable clients. Legacy
	// servers answer it with msgError ("unknown message type") and close,
	// which the client detects and downgrades to lock-step version 1.
	msgHello
	// msgHelloOK is the server's handshake reply carrying the negotiated
	// version: min(client offer, server maximum). At version >= 2 every
	// subsequent frame on the connection carries a request ID and replies
	// may return out of order.
	msgHelloOK
	// msgHandoff is a peer->peer drain transfer: one group a departing
	// cluster node owned — the anchor path plus its learned members in
	// group order — for the receiver to install into its successor
	// metadata and cache, so it serves the moved paths warm.
	msgHandoff
	// msgHandoffOK acknowledges a handoff install.
	msgHandoffOK
	// msgMemberChunk is one member of a streamed (version-3) group reply:
	// the path plus contents of a single file. The demanded file is always
	// the first chunk of its request ID; chunks of different requests may
	// interleave on the wire, but chunks of one request arrive in group
	// order.
	msgMemberChunk
	// msgGroupEnd terminates a streamed group reply, carrying the member
	// count so the client can verify it saw the whole group.
	msgGroupEnd
	// msgViewHint is an advisory membership-epoch announcement: the
	// sender's advertised cluster address plus its installed view epoch.
	// It piggybacks on version-3 connections — unsolicited under request
	// ID 0, deduplicated per epoch per connection — and also serves as
	// the "not newer than you" reply to msgViewPull and the ack to
	// msgViewPush. Advisory only: a receiver without a view source
	// ignores it, and it is never sent on a pre-v3 connection.
	msgViewHint
	// msgViewPull asks the receiver for its membership view. The payload
	// carries the puller's own address and epoch so the responder can
	// pull back symmetrically if the puller is the newer side. Answered
	// with msgViewPush (responder newer) or msgViewHint (responder not
	// newer).
	msgViewPull
	// msgViewPush carries a full membership view — epoch, sender address,
	// and the peer list — for the receiver to validate and install.
	// Acked with msgViewHint carrying the receiver's resulting epoch.
	msgViewPush
	// msgTraceCtx is the distributed-tracing piggyback: an unsolicited
	// frame under request ID 0 announcing the trace context (128-bit
	// trace ID, parent span ID, flags) of the request frame that follows
	// it in the same batch, matched by the annotated request ID it
	// carries. Sent only for head-sampled requests and only on version-3
	// connections (negotiated away like view frames, see traces.go); a
	// receiver without a tracer skips it.
	msgTraceCtx
)

// Protocol versions. Version 1 is the original lock-step protocol (no
// handshake, one request in flight per connection); version 2 adds the
// hello exchange and request-ID framing for pipelining; version 3 keeps
// version 2's framing but streams each group reply as per-member
// msgMemberChunk frames closed by msgGroupEnd, so the client starts
// consuming member 1 while the server is still writing member g and the
// server never assembles a group into one contiguous reply buffer.
const (
	protocolV1     = 1
	protocolV2     = 2
	protocolV3     = 3
	protocolLatest = protocolV3
)

// Protocol limits; violations terminate the connection.
const (
	maxFrame     = 16 << 20
	maxPath      = 4096
	maxStatPaths = 1024
	maxGroup     = 64
	maxFileSize  = 8 << 20
)

// connBufSize sizes the per-connection bufio reader and writer on both
// ends. A convoy reply for a whole group runs tens of KB; with the
// 4 KiB bufio default that is a dozen read/write syscalls per fetch,
// and syscall time dominates the loopback CPU profile. 64 KiB moves a
// convoy in one or two.
const connBufSize = 64 << 10

// Error codes carried by msgError.
const (
	// CodeNotFound reports that the demanded path does not exist.
	CodeNotFound = uint32(iota + 1)
	// CodeBadRequest reports a malformed or limit-violating request.
	CodeBadRequest
	// CodeBusy reports that the server is at its connection limit; the
	// connection is closed after this reply. Clients with retry
	// configured back off and redial.
	CodeBusy
	// CodeInternal reports a handler failure (recovered panic); the
	// connection is closed after this reply.
	CodeInternal
)

// ErrNotFound is returned by Client.Open for missing files.
var ErrNotFound = errors.New("fsnet: file not found")

// fileData is one file in a group reply: the same type the router hands
// over, so routed groups become replies without a copy.
type fileData = GroupFile

// GroupFile is one file of a group, as exposed to code embedding the
// client or server — the cluster peer tier (internal/cluster) routes
// whole groups of these between nodes. The demanded file always leads a
// group; the rest are its opportunistically fetched members.
type GroupFile struct {
	Path string
	Data []byte
}

// groupResponse is the payload of msgGroup.
type groupResponse struct {
	Files []fileData
}

// HandoffGroup is one group being drained from a departing cluster node
// to the peer that owns it next: the anchor path plus its learned
// members in group order, metadata only — the stores are replicated, so
// the bytes are already at the receiver.
type HandoffGroup struct {
	Anchor  string
	Members []string
}

// errorResponse is the payload of msgError.
type errorResponse struct {
	Code    uint32
	Message string
}

// writeFrame emits one frame: u32 length (type+payload), u8 type, payload.
func writeFrame(w *bufio.Writer, typ uint8, payload []byte) error {
	if err := putFrame(w, typ, payload); err != nil {
		return err
	}
	return w.Flush()
}

// putFrame buffers one v1 frame without flushing, so batches of frames
// can share a single flush (and, typically, a single syscall).
func putFrame(w *bufio.Writer, typ uint8, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("fsnet: frame of %d bytes exceeds limit", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, returning its type and payload. The header
// is read separately from the payload so the returned payload slice spans
// its pooled buffer from offset zero: recycling it preserves the buffer's
// full capacity. (Slicing the type byte off a combined read would shave a
// byte of capacity per cycle until every buffer cap-missed.)
// peekN returns n buffered bytes without consuming them, with
// io.ReadFull's error semantics (ErrUnexpectedEOF on a partial header).
// Peeking instead of reading into a local array keeps the header bytes
// inside bufio's buffer: a stack array handed to io.ReadFull escapes
// through the io.Reader interface and costs a heap allocation per frame.
func peekN(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err != nil {
		if len(b) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

func readFrame(r *bufio.Reader) (uint8, []byte, error) {
	hdr, err := peekN(r, 4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		// Validated before the type byte is demanded: a hostile
		// zero-length header must error now, not block waiting for bytes
		// the peer never promised.
		return 0, nil, fmt.Errorf("fsnet: frame length %d out of range", n)
	}
	_, _ = r.Discard(4)
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	payload := getFrameBuf(int(n) - 1)
	if _, err := io.ReadFull(r, payload); err != nil {
		putFrameBuf(payload)
		return 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	return typ, payload, nil
}

// Version-2 framing: u32 length (type + id + payload), u8 type, u64
// request ID, payload. The request ID ties a reply to its request so a
// pipelined connection may return replies out of order.
const v2HdrLen = 1 + 8 // type + request ID, inside the length prefix

// putFrameID buffers one v2 frame without flushing.
func putFrameID(w *bufio.Writer, typ uint8, id uint64, payload []byte) error {
	if len(payload)+v2HdrLen > maxFrame {
		return fmt.Errorf("fsnet: frame of %d bytes exceeds limit", len(payload)+v2HdrLen)
	}
	var hdr [4 + v2HdrLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+v2HdrLen))
	hdr[4] = typ
	binary.BigEndian.PutUint64(hdr[5:], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameID reads one v2 frame, returning its type, request ID, and
// payload. The payload aliases a pooled buffer; hand it back via
// putFrameBuf once fully decoded. As in readFrame, the frame header is
// read separately so the recycled payload keeps its full capacity.
func readFrameID(r *bufio.Reader) (uint8, uint64, []byte, error) {
	lenb, err := peekN(r, 4)
	if err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenb)
	if n < v2HdrLen || n > maxFrame {
		// As in readFrame: reject the length before demanding the inner
		// header, so a runt frame errors instead of blocking.
		return 0, 0, nil, fmt.Errorf("fsnet: frame length %d out of range", n)
	}
	_, _ = r.Discard(4)
	hdr, err := peekN(r, v2HdrLen)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	typ, id := hdr[0], binary.BigEndian.Uint64(hdr[1:])
	_, _ = r.Discard(v2HdrLen)
	payload := getFrameBuf(int(n) - v2HdrLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		putFrameBuf(payload)
		return 0, 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	return typ, id, payload, nil
}

// frameBufPool recycles frame bodies across requests. Decoders copy every
// string and blob they keep, so a frame buffer is free for reuse as soon
// as its payload has been decoded; the hot open path then performs no
// per-frame allocation beyond the decoded file contents themselves.
//
// The pool stores *[]byte, not []byte: putting a bare slice into a
// sync.Pool boxes its header on every Put (one hidden allocation per
// recycled frame — measured as a top allocator before this change). The
// pointer boxes themselves cycle through boxPool, so steady-state
// get/put pairs allocate nothing at all.
var frameBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// boxPool recycles the empty *[]byte headers frameBufPool threads its
// buffers through.
var boxPool = sync.Pool{New: func() interface{} { return new([]byte) }}

func getFrameBuf(n int) []byte {
	bp := frameBufPool.Get().(*[]byte)
	b := *bp
	*bp = nil
	boxPool.Put(bp)
	if cap(b) < n {
		putFrameBuf(b) // keep the small one for small frames
		return make([]byte, n)
	}
	return b[:n]
}

// putFrameBuf returns a frame payload (or body) to the pool. Accepts the
// payload sub-slice handed out by readFrame/readFrameID; the lost header
// bytes of capacity are irrelevant to reuse.
func putFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxFrame {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	frameBufPool.Put(bp)
}

// getEncodeBuf returns a zero-length pooled buffer for append-style
// encoding; hand the grown result back via putFrameBuf once written.
func getEncodeBuf() []byte {
	return getFrameBuf(0)
}

// helloRequest is the payload of msgHello and msgHelloOK: just a protocol
// version.
func encodeHello(version int) []byte {
	return appendUvarint(nil, uint64(version))
}

// writeHello frames a hello/helloOK through a pooled scratch buffer, so
// handshakes allocate nothing.
func writeHello(w *bufio.Writer, typ uint8, version int) error {
	b := appendUvarint(getEncodeBuf(), uint64(version))
	err := writeFrame(w, typ, b)
	putFrameBuf(b)
	return err
}

func decodeHello(payload []byte) (int, error) {
	d := decoder{buf: payload}
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 || v > 1<<16 {
		return 0, fmt.Errorf("fsnet: protocol version %d out of range", v)
	}
	if err := d.done(); err != nil {
		return 0, err
	}
	return int(v), nil
}

// Payload encoding helpers: strings and byte blobs are uvarint length +
// bytes; counts are uvarints.

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, data []byte) []byte {
	b = appendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// decoder consumes a payload buffer.
type decoder struct {
	buf []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errors.New("fsnet: truncated varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) str(limit int) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(limit) {
		return "", fmt.Errorf("fsnet: string of %d bytes exceeds limit %d", n, limit)
	}
	if uint64(len(d.buf)) < n {
		return "", errors.New("fsnet: truncated string")
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// view returns the next length-prefixed byte string as a view aliasing
// the payload buffer — no copy; valid only while the buffer is.
func (d *decoder) view(limit int) ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("fsnet: string of %d bytes exceeds limit %d", n, limit)
	}
	if uint64(len(d.buf)) < n {
		return nil, errors.New("fsnet: truncated string")
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) bytes(limit int) ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("fsnet: blob of %d bytes exceeds limit %d", n, limit)
	}
	if uint64(len(d.buf)) < n {
		return nil, errors.New("fsnet: truncated blob")
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out, nil
}

func (d *decoder) done() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("fsnet: %d trailing payload bytes", len(d.buf))
	}
	return nil
}

// appendOpenRequest appends an open-request (msgOpen) payload to dst: the
// demanded path, then the piggybacked access history since the last
// request, oldest first (excluding the demanded path, which the server
// appends to the learned stream on arrival). The pipelined writer
// encodes into a reused scratch buffer through this.
func appendOpenRequest(dst []byte, path string, accessed []string) []byte {
	dst = appendString(dst, path)
	dst = appendUvarint(dst, uint64(len(accessed)))
	for _, p := range accessed {
		dst = appendString(dst, p)
	}
	return dst
}

// decodeOpenView parses an open-request payload without copying: the
// demanded path and every piggybacked path come back as views aliasing
// payload (the piggybacked ones appended to views), valid only while the
// payload buffer is. The server decodes every open exactly once, here.
func decodeOpenView(payload []byte, views [][]byte) ([]byte, [][]byte, error) {
	d := decoder{buf: payload}
	path, err := d.view(maxPath)
	if err != nil {
		return nil, views, err
	}
	if len(path) == 0 {
		return nil, views, errors.New("fsnet: empty path")
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, views, err
	}
	if n > maxStatPaths {
		return nil, views, fmt.Errorf("fsnet: %d piggybacked paths exceed limit %d", n, maxStatPaths)
	}
	for i := uint64(0); i < n; i++ {
		v, err := d.view(maxPath)
		if err != nil {
			return nil, views, err
		}
		views = append(views, v)
	}
	if err := d.done(); err != nil {
		return nil, views, err
	}
	return path, views, nil
}

// handoffRequest is the payload of msgHandoff: one drained group's
// anchor path plus learned members, successor order preserved.
type handoffRequest struct {
	Anchor  string
	Members []string
}

func encodeHandoffRequest(req handoffRequest) []byte {
	b := appendString(nil, req.Anchor)
	b = appendUvarint(b, uint64(len(req.Members)))
	for _, p := range req.Members {
		b = appendString(b, p)
	}
	return b
}

func decodeHandoffRequest(payload []byte) (handoffRequest, error) {
	d := decoder{buf: payload}
	var req handoffRequest
	var err error
	if req.Anchor, err = d.str(maxPath); err != nil {
		return req, err
	}
	if req.Anchor == "" {
		return req, errors.New("fsnet: empty anchor path")
	}
	n, err := d.uvarint()
	if err != nil {
		return req, err
	}
	if n == 0 || n > maxGroup {
		return req, fmt.Errorf("fsnet: handoff of %d members out of range", n)
	}
	req.Members = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		p, err := d.str(maxPath)
		if err != nil {
			return req, err
		}
		if p == "" {
			return req, errors.New("fsnet: empty handoff member path")
		}
		req.Members = append(req.Members, p)
	}
	if err := d.done(); err != nil {
		return req, err
	}
	return req, nil
}

// writeRequest is the payload of msgWrite.
type writeRequest struct {
	Path string
	Data []byte
}

func encodeWriteRequest(req writeRequest) []byte {
	b := appendString(nil, req.Path)
	return appendBytes(b, req.Data)
}

func decodeWriteRequest(payload []byte) (writeRequest, error) {
	d := decoder{buf: payload}
	var req writeRequest
	var err error
	if req.Path, err = d.str(maxPath); err != nil {
		return req, err
	}
	if req.Path == "" {
		return req, errors.New("fsnet: empty path")
	}
	if req.Data, err = d.bytes(maxFileSize); err != nil {
		return req, err
	}
	if err := d.done(); err != nil {
		return req, err
	}
	return req, nil
}

func encodeGroupResponse(resp groupResponse) []byte {
	return appendGroupResponse(nil, resp.Files)
}

// appendGroupResponse appends a contiguous (version ≤ 2) group-reply
// payload to dst; the reply writer encodes into pooled buffers through
// this.
func appendGroupResponse(dst []byte, files []fileData) []byte {
	dst = appendUvarint(dst, uint64(len(files)))
	for _, f := range files {
		dst = appendString(dst, f.Path)
		dst = appendBytes(dst, f.Data)
	}
	return dst
}

func decodeGroupResponse(payload []byte) (groupResponse, error) {
	d := decoder{buf: payload}
	var resp groupResponse
	n, err := d.uvarint()
	if err != nil {
		return resp, err
	}
	if n == 0 || n > maxGroup {
		return resp, fmt.Errorf("fsnet: group of %d files out of range", n)
	}
	resp.Files = make([]fileData, 0, n)
	for i := uint64(0); i < n; i++ {
		var f fileData
		if f.Path, err = d.str(maxPath); err != nil {
			return resp, err
		}
		if f.Data, err = d.bytes(maxFileSize); err != nil {
			return resp, err
		}
		resp.Files = append(resp.Files, f)
	}
	if err := d.done(); err != nil {
		return resp, err
	}
	return resp, nil
}

func encodeErrorResponse(resp errorResponse) []byte {
	return appendErrorResponse(nil, resp)
}

func appendErrorResponse(dst []byte, resp errorResponse) []byte {
	dst = appendUvarint(dst, uint64(resp.Code))
	return appendString(dst, resp.Message)
}

func decodeErrorResponse(payload []byte) (errorResponse, error) {
	d := decoder{buf: payload}
	var resp errorResponse
	code, err := d.uvarint()
	if err != nil {
		return resp, err
	}
	resp.Code = uint32(code)
	if resp.Message, err = d.str(maxPath); err != nil {
		return resp, err
	}
	if err := d.done(); err != nil {
		return resp, err
	}
	return resp, nil
}

// Version-3 streamed group replies. A group reply is n msgMemberChunk
// frames — each carrying one file's path and contents — closed by one
// msgGroupEnd frame carrying the member count. All frames reuse the
// version-2 framing (length, type, request ID), so chunks of different
// pipelined requests may interleave; within one request ID, chunks arrive
// in group order with the demanded file first.
//
// The server never materializes a chunk frame as one contiguous buffer:
// appendMemberChunkHdr builds everything up to the file contents in a
// pooled scratch slice, and the contents ride as their own element of a
// net.Buffers scatter-gather write, straight from the store's slice.

// appendMemberChunkHdr appends a member chunk's frame header and metadata
// to dst: u32 length, type, request ID, uvarint path length, path bytes,
// uvarint data length. The file contents (dataLen bytes) must follow on
// the wire immediately after.
func appendMemberChunkHdr(dst []byte, id uint64, path string, dataLen int) []byte {
	meta := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, msgMemberChunk)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = appendString(dst, path)
	dst = appendUvarint(dst, uint64(dataLen))
	payloadLen := len(dst) - meta - 4 + dataLen
	binary.BigEndian.PutUint32(dst[meta:meta+4], uint32(payloadLen))
	return dst
}

// appendFrameID appends one complete v2-framed message (header plus
// payload) to dst; the scatter-gather reply path uses it for the small
// frames (group end, write/handoff acks, errors) that share a batch with
// streamed chunks.
func appendFrameID(dst []byte, typ uint8, id uint64, payload []byte) []byte {
	dst = append(dst, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[len(dst)-4:], uint32(len(payload)+v2HdrLen))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...)
}

// memberChunkView decodes a msgMemberChunk payload into views aliasing
// the payload buffer — no copies; the caller owns the buffer until it is
// done with both views.
func memberChunkView(payload []byte) (path, data []byte, err error) {
	d := decoder{buf: payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if n == 0 || n > maxPath {
		return nil, nil, fmt.Errorf("fsnet: chunk path of %d bytes out of range", n)
	}
	if uint64(len(d.buf)) < n {
		return nil, nil, errors.New("fsnet: truncated chunk path")
	}
	path, d.buf = d.buf[:n], d.buf[n:]
	n, err = d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if n > maxFileSize {
		return nil, nil, fmt.Errorf("fsnet: chunk of %d bytes exceeds limit %d", n, maxFileSize)
	}
	if uint64(len(d.buf)) != n {
		return nil, nil, fmt.Errorf("fsnet: chunk data length %d, frame carries %d", n, len(d.buf))
	}
	return path, d.buf, nil
}

// appendGroupEnd appends a msgGroupEnd payload (the member count) to dst.
func appendGroupEnd(dst []byte, count int) []byte {
	return appendUvarint(dst, uint64(count))
}

func decodeGroupEnd(payload []byte) (int, error) {
	d := decoder{buf: payload}
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n == 0 || n > maxGroup {
		return 0, fmt.Errorf("fsnet: group of %d files out of range", n)
	}
	if err := d.done(); err != nil {
		return 0, err
	}
	return int(n), nil
}
