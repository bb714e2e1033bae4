package fsnet

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"aggcache/internal/obs/otrace"
)

// muxConn is the client transport: one TCP connection shared by any
// number of goroutines, with pipelined requests and out-of-order replies
// matched by request ID.
//
// A writer goroutine drains a queue of calls and flushes them in batches
// (many frames, one syscall); a reader goroutine decodes reply frames and
// delivers each to its call's completion channel. A group reply arrives
// as a stream of msgMemberChunk frames closed by msgGroupEnd; the reader
// accumulates the chunks and delivers the completed group. Any transport
// or protocol error poisons the whole connection: every in-flight call
// fails fast with ErrConnBroken, claimed piggyback history is restored to
// the client in call order, and the connection is closed and never
// reused.
type muxConn struct {
	c    *Client
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// View-hint piggyback state, touched only by the writer goroutine:
	// the epoch last announced on this connection, so a stable view costs
	// one frame per connection rather than one per batch.
	hintSent  bool
	hintEpoch uint64

	// frames is the writer's per-batch scratch: each call's frame fields,
	// copied out under mu. Once mu is released a poison can complete the
	// calls and their callers recycle them, so the writer never touches a
	// call after unlocking.
	frames []muxFrame

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]*muxCall // in flight: queued or written, awaiting reply
	queue  []*muxCall          // awaiting the writer goroutine
	freeQ  []*muxCall          // recycled queue storage for the next batch
	broken bool
	err    error // first error, set when broken

	wake chan struct{} // capacity 1; nudges the writer
}

// muxCall is one pipelined request.
type muxCall struct {
	id  uint64
	typ uint8
	// path is the demanded path of a msgOpen; the writer goroutine claims
	// the piggyback history and encodes the payload at write time, so one
	// flush's worth of opens shares a single claim instead of claiming
	// per call.
	path    string
	payload []byte
	// claimed is the piggyback history this call took from the client's
	// pending list when the writer encoded it; it is restored if the
	// connection dies before the server demonstrably processed the call.
	// Calls poisoned before they were written have no claim — their
	// history simply stayed on the pending list.
	claimed []string
	// start is the enqueue time of a msgOpen, for time-to-first-byte.
	start time.Time
	// tctx is the call's trace context. A sampled context makes the
	// writer emit one msgTraceCtx piggyback frame ahead of the request
	// frame; the zero value sends nothing.
	tctx otrace.Ctx
	// chunks accumulates the member-chunk payloads of a streamed group
	// reply until its msgGroupEnd arrives. Owned by the reader while the
	// call is in flight.
	chunks [][]byte
	// done receives exactly one result (buffered so the reader never
	// blocks on a caller).
	done chan muxResult
}

// muxFrame is one request frame as the writer puts it on the wire.
type muxFrame struct {
	id      uint64
	typ     uint8
	payload []byte
	tctx    otrace.Ctx
}

// muxCallPool recycles call objects (and their completion channels):
// exactly one result is delivered and consumed per call, so a call is
// free for reuse as soon as its caller has read the result.
var muxCallPool = sync.Pool{
	New: func() interface{} { return &muxCall{done: make(chan muxResult, 1)} },
}

func putMuxCall(call *muxCall) {
	call.id, call.typ, call.path = 0, 0, ""
	call.payload, call.claimed, call.chunks = nil, nil, nil
	call.start = time.Time{}
	call.tctx = otrace.Ctx{}
	muxCallPool.Put(call)
}

type muxResult struct {
	typ     uint8
	payload []byte
	// chunks is a streamed group reply: the member-chunk payloads in
	// group order (typ is msgGroup, payload nil). Each element is a
	// pooled frame buffer the receiver recycles after decoding.
	chunks [][]byte
	err    error
}

func newMuxConn(c *Client, cc *clientConn) *muxConn {
	return &muxConn{
		c:     c,
		conn:  cc.conn,
		r:     cc.r,
		w:     cc.w,
		calls: c.takeCallScrap(),
		wake:  make(chan struct{}, 1),
	}
}

// start launches the writer and reader goroutines. Called after the mux is
// installed in the client's connection slot.
func (m *muxConn) start() {
	go m.writer()
	go m.reader()
}

// enqueue registers one call and hands it to the writer. msgOpen payloads
// are not encoded here: the writer claims the piggyback history and
// encodes at write time, preserving the invariant that claims happen in
// request-ID order (the writer drains the queue in ID order).
func (m *muxConn) enqueue(reqType uint8, path string, payload []byte, tctx otrace.Ctx) (*muxCall, error) {
	call := muxCallPool.Get().(*muxCall)
	call.typ = reqType
	call.path = path
	call.payload = payload
	if tctx.Sampled {
		call.tctx = tctx
	}
	if reqType == msgOpen {
		call.start = time.Now()
	}
	m.mu.Lock()
	if m.broken {
		err := m.err
		m.mu.Unlock()
		putMuxCall(call)
		return nil, err
	}
	m.nextID++
	call.id = m.nextID
	m.calls[call.id] = call
	m.queue = append(m.queue, call)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return call, nil
}

// writer drains the queue in batches: every queued frame is buffered and
// the batch shares one Flush, so k pipelined requests cost one syscall
// instead of k. Open payloads are encoded here, into one pooled scratch
// buffer per batch, after claiming the pending piggyback history — still
// under m.mu, so the claim-order/ID-order invariant holds and the claimed
// slices are safely published to the reader and poison paths.
func (m *muxConn) writer() {
	for range m.wake {
		for {
			m.mu.Lock()
			if m.broken {
				m.mu.Unlock()
				return
			}
			if len(m.queue) == 0 {
				m.mu.Unlock()
				break
			}
			batch := m.queue
			if m.freeQ != nil {
				m.queue = m.freeQ[:0]
				m.freeQ = nil
			} else {
				m.queue = nil
			}
			enc := getEncodeBuf()
			frames := m.frames[:0]
			for _, call := range batch {
				if call.typ == msgOpen {
					var accessed []string
					accessed, call.claimed = m.c.claimPending(call.path)
					start := len(enc)
					enc = appendOpenRequest(enc, call.path, accessed)
					call.payload = enc[start:]
				}
				frames = append(frames, muxFrame{id: call.id, typ: call.typ, payload: call.payload, tctx: call.tctx})
			}
			m.mu.Unlock()
			var err error
			// Piggyback the membership epoch ahead of the batch when a
			// view source is wired: one msgViewHint under request ID 0
			// (never a real request ID — those start at 1), re-sent only
			// when the epoch changes. Appending to enc after the unlock is
			// safe: if append reallocates, the batch payload slices keep
			// aliasing the old (immutable) backing.
			if m.c.cfg.Views != nil {
				if epoch := m.c.cfg.Views.Epoch(); !m.hintSent || epoch != m.hintEpoch {
					start := len(enc)
					enc = appendViewMsg(enc, epoch, m.c.cfg.Views.Self())
					err = putFrameID(m.w, msgViewHint, 0, enc[start:])
					m.hintSent, m.hintEpoch = true, epoch
				}
			}
			for _, f := range frames {
				if err != nil {
					break
				}
				if f.tctx.Sampled {
					// Announce the sampled call's trace context under
					// request ID 0 immediately before its request frame;
					// the server attaches it to the matching request ID.
					start := len(enc)
					enc = appendTraceCtx(enc, f.id, f.tctx)
					if err = putFrameID(m.w, msgTraceCtx, 0, enc[start:]); err != nil {
						break
					}
				}
				if err = putFrameID(m.w, f.typ, f.id, f.payload); err != nil {
					break
				}
			}
			if err == nil {
				err = m.w.Flush()
			}
			clear(frames) // drop payload references before the arena is pooled
			m.frames = frames
			putFrameBuf(enc)
			m.recycleBatch(batch)
			if err != nil {
				m.poison(fmt.Errorf("%w: %v", ErrConnBroken, err))
				return
			}
		}
	}
}

// recycleBatch offers a drained batch's storage back as the next queue.
func (m *muxConn) recycleBatch(batch []*muxCall) {
	for i := range batch {
		batch[i] = nil
	}
	m.mu.Lock()
	if m.freeQ == nil || cap(batch) > cap(m.freeQ) {
		m.freeQ = batch[:0]
	}
	m.mu.Unlock()
}

// reader decodes replies and delivers each to its caller. Streamed group
// replies accumulate on their call until the closing
// msgGroupEnd. Any read or framing error — including Close of the
// underlying connection — poisons the mux, which fails all in-flight
// calls.
func (m *muxConn) reader() {
	for {
		typ, id, payload, err := readFrameID(m.r)
		if err != nil {
			m.poison(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
		if id == 0 && typ == msgViewHint {
			// Unsolicited epoch announcement from the server's reply
			// batches; request IDs start at 1, so ID 0 never matches a
			// call. Advisory: noted when a view source is wired, dropped
			// otherwise.
			epoch, sender, derr := decodeViewMsg(payload)
			putFrameBuf(payload)
			if derr != nil {
				m.poison(fmt.Errorf("%w: %v", ErrConnBroken, derr))
				return
			}
			if m.c.cfg.Views != nil {
				m.c.cfg.Views.NoteViewEpoch(sender, epoch)
			}
			continue
		}
		switch typ {
		case msgMemberChunk:
			m.mu.Lock()
			call, ok := m.calls[id]
			// The call stays in flight, so a poison may complete it — and
			// its caller recycle it — once mu is released: copy what the
			// TTFB sample needs while still holding the lock.
			var first bool
			var start time.Time
			var tctx otrace.Ctx
			if ok {
				if len(call.chunks) >= maxGroup {
					m.mu.Unlock()
					putFrameBuf(payload)
					m.poison(fmt.Errorf("%w: streamed group exceeds %d members", ErrConnBroken, maxGroup))
					return
				}
				first = len(call.chunks) == 0
				start, tctx = call.start, call.tctx
				if call.chunks == nil {
					// One right-sized allocation per streamed reply
					// instead of append's doubling crawl.
					call.chunks = make([][]byte, 0, 8)
				}
				call.chunks = append(call.chunks, payload)
			}
			m.mu.Unlock()
			if !ok {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: chunk for unknown request %d", ErrConnBroken, id))
				return
			}
			if first && !start.IsZero() {
				m.observeTTFB(start, tctx)
			}
		case msgGroupEnd:
			m.mu.Lock()
			call, ok := m.calls[id]
			if ok {
				delete(m.calls, id)
			}
			m.mu.Unlock()
			if !ok {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: group end for unknown request %d", ErrConnBroken, id))
				return
			}
			n, derr := decodeGroupEnd(payload)
			putFrameBuf(payload)
			if derr == nil && n != len(call.chunks) {
				derr = fmt.Errorf("group end declares %d members, got %d", n, len(call.chunks))
			}
			if derr != nil {
				for _, b := range call.chunks {
					putFrameBuf(b)
				}
				call.chunks = nil
				werr := fmt.Errorf("%w: %v", ErrConnBroken, derr)
				// The stream is untrustworthy beyond this point; the call
				// was already removed from the in-flight map, so fail it
				// directly after poisoning the rest.
				m.poison(werr)
				call.done <- muxResult{err: werr}
				return
			}
			chunks := call.chunks
			call.chunks = nil
			call.done <- muxResult{typ: msgGroup, chunks: chunks}
		default:
			m.mu.Lock()
			call, ok := m.calls[id]
			if ok {
				delete(m.calls, id)
			}
			m.mu.Unlock()
			if !ok {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: reply for unknown request %d", ErrConnBroken, id))
				return
			}
			if !call.start.IsZero() {
				m.observeTTFB(call.start, call.tctx)
			}
			call.done <- muxResult{typ: typ, payload: payload}
		}
	}
}

// observeTTFB records a call's time-to-first-byte since its enqueue
// time start, attaching the trace ID as a histogram exemplar only for
// sampled calls: rendering the hex trace ID allocates, so unsampled
// requests stay on the plain path.
func (m *muxConn) observeTTFB(start time.Time, tctx otrace.Ctx) {
	d := uint64(time.Since(start))
	if tctx.Sampled {
		m.c.m.ttfb.ObserveTrace(d, tctx.TraceID())
		return
	}
	m.c.m.ttfb.Observe(d)
}

// poison marks the mux broken, closes the connection, restores every
// unanswered call's claimed history to the client (oldest call first),
// empties the client's connection slot, and fails every unanswered call
// with err. Idempotent; only the first error wins. The in-flight map and
// orphan scratch are handed back to the client for the replacement
// connection, so a flaky link does not reallocate them on every cut.
func (m *muxConn) poison(err error) {
	m.mu.Lock()
	if m.broken {
		m.mu.Unlock()
		return
	}
	m.broken = true
	m.err = err
	calls := m.calls
	orphans := m.c.takeOrphanScrap()
	for _, call := range calls {
		orphans = append(orphans, call)
	}
	m.calls = nil
	m.queue, m.freeQ = nil, nil
	m.mu.Unlock()

	_ = m.conn.Close()
	// Nudge the writer so it observes broken and exits.
	select {
	case m.wake <- struct{}{}:
	default:
	}

	// Request IDs were assigned — and their histories claimed — in ID
	// order, so restoring in ID order reassembles the piggyback backlog
	// oldest-first.
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].id < orphans[j].id })
	var hist []string
	for _, call := range orphans {
		hist = append(hist, call.claimed...)
	}
	m.c.restorePending(hist)
	m.c.dropMux(m)
	for _, call := range orphans {
		for _, b := range call.chunks {
			putFrameBuf(b)
		}
		call.chunks = nil
		call.done <- muxResult{err: err}
	}
	for i := range orphans {
		orphans[i] = nil
	}
	m.c.storeScrap(calls, orphans[:0])
}
