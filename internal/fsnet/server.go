package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
	"aggcache/internal/singleflight"
	"aggcache/internal/trace"
)

// maxServerPipeline bounds the request-handler goroutines in flight per
// pipelined connection, so one peer flooding requests cannot exhaust the
// scheduler before backpressure reaches its socket.
const maxServerPipeline = 64

// ServerConfig parameterizes a file server.
type ServerConfig struct {
	// GroupSize is the best-effort retrieval group size g (default 5).
	GroupSize int
	// CacheCapacity is the server's memory cache in whole files
	// (default 256). The cache is an aggregating cache: when a demanded
	// file misses, the whole group is staged from the store.
	CacheCapacity int
	// SuccessorCapacity bounds the per-file successor lists (default 3).
	SuccessorCapacity int
	// IdleTimeout closes connections that send no request for this
	// long. Zero disables the timeout.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write so a stalled reader cannot
	// wedge its handler (the write deadline is re-armed per reply
	// batch). Zero disables the bound.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections. Excess connections
	// are rejected gracefully: the server sends msgError with CodeBusy
	// and closes. Zero means unlimited.
	MaxConns int
	// Router, when set, is consulted before any open is served from the
	// local cache and store. It lets an embedding tier (internal/cluster)
	// place a path's group on another server: when the router reports the
	// request handled, its files become the reply verbatim and the local
	// cache and store are left untouched. When it reports the request
	// unhandled the server serves it locally as usual — which is also the
	// cluster tier's degraded path when the owning peer is down. Either
	// way the open was learned into the local successor metadata before
	// the router ran.
	Router OpenRouter
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
	// Obs, when set, registers the server's counters, per-phase open
	// latency histograms, and an open-connection gauge with the given
	// registry, and routes slow-request events to its event log. Nil
	// keeps the serving path free of clock reads and histogram updates;
	// ServerStats works either way, fed from the same counters.
	Obs *obs.Registry
	// SlowRequest, when positive and Obs is set, records a structured
	// slow_request event for every open that takes at least this long.
	SlowRequest time.Duration
	// Trace, when set, records request spans into the tracer's ring:
	// inbound msgTraceCtx piggybacks make this hop a child span of the
	// sender's, opens arriving without a context are head-sampled at the
	// tracer's own rate, and any open crossing SlowRequest is
	// tail-captured even when unsampled. Nil (the default) drops inbound
	// trace frames and keeps the serving path span-free.
	Trace *otrace.Tracer
	// Views, when set, wires membership-view dissemination into the
	// serving path (internal/gossip): reply batches piggyback the local
	// epoch as a msgViewHint, inbound hints feed
	// Views.NoteViewEpoch, and msgViewPull/msgViewPush are served.
	// Nil answers view frames with CodeBadRequest and keeps the reply
	// stream byte-identical to a pre-gossip server.
	Views ViewSource
}

// OpenRouter routes open requests whose group is placed on another
// server. Implementations must be safe for concurrent use; RouteOpen is
// called outside every server lock and may block on network I/O.
type OpenRouter interface {
	// RouteOpen resolves path into its group — demanded file first — or
	// reports handled=false to have the server stage the group from its
	// own store. accessed is the client's piggybacked access history,
	// relayed so the remote owner's metadata stays as complete as the
	// local server's would (§3). A handled error is returned to the
	// client: ErrNotFound maps to CodeNotFound, anything else to
	// CodeInternal. The server only reads files, so a router may hand
	// out shared slices.
	RouteOpen(path string, accessed []string) (files []GroupFile, handled bool, err error)
}

// InlineRouter is an optional extension of OpenRouter: a router that can
// settle most opens without blocking, so the server resolves them in the
// connection's read loop instead of on a handler goroutine. The server
// type-asserts once at construction; routers without the method have
// every open routed through RouteOpen on a handler goroutine.
type InlineRouter interface {
	OpenRouter
	// RouteOpenNow must not block on network I/O. path is the demanded
	// path as it sits in the request frame and accessed is the interned
	// piggybacked history; both are valid only for the duration of the
	// call. RouteAnswered hands back the reply group (demanded file
	// first); RouteBlocking has the server call RouteOpen (or
	// RouteOpenTraced) on a handler goroutine, which settles the open
	// from scratch.
	RouteOpenNow(path []byte, accessed []string, tctx otrace.Ctx) ([]GroupFile, Route)
}

// Route is an InlineRouter verdict.
type Route uint8

const (
	// RouteLocal: serve the open from the local cache and store.
	RouteLocal Route = iota
	// RouteAnswered: the returned group answers the open.
	RouteAnswered
	// RouteBlocking: settling the open needs I/O.
	RouteBlocking
)

// TracedRouter is an optional extension of OpenRouter: a router that
// also accepts the request's trace context, so a forwarded open's
// downstream RPC becomes a child span of this server's. The server
// type-asserts once at construction; plain OpenRouter implementations
// keep working unchanged (the context is simply not propagated).
type TracedRouter interface {
	OpenRouter
	// RouteOpenTraced is RouteOpen with the caller's trace context. The
	// zero Ctx means the request is untraced.
	RouteOpenTraced(path string, accessed []string, tctx otrace.Ctx) (files []GroupFile, handled bool, err error)
}

// ServerStats is a snapshot of server activity.
type ServerStats struct {
	// Requests counts open requests served (including errors).
	Requests uint64
	// Errors counts error replies (including refused handshakes) plus
	// protocol violations (malformed or truncated frames) that
	// terminated a connection.
	Errors uint64
	// FilesSent counts files transferred in group replies.
	FilesSent uint64
	// Rejected counts connections turned away at the MaxConns limit.
	Rejected uint64
	// Panics counts handler panics recovered and converted to msgError.
	Panics uint64
	// Disconnects counts connections terminated abnormally by I/O
	// failures (including reply writes cut off by WriteTimeout).
	Disconnects uint64
	// CoalescedStages counts open requests that shared another request's
	// in-flight store staging of the same demanded path instead of
	// reading the store themselves.
	CoalescedStages uint64
	// RemoteOpens counts open requests answered by the configured Router
	// (the cluster peer tier) rather than by the local cache and store.
	RemoteOpens uint64
	// Handoffs counts drain handoff groups installed from departing
	// peers (each learns the group's successor chain and stages its
	// anchor into the cache).
	Handoffs uint64
	// Cache is the server memory cache accounting (hits are requests
	// served without staging from the store).
	Cache core.Stats
}

// Server is the remote file server of Figure 2: it owns the relationship
// metadata, answers opens with groups, and keeps its own aggregating
// memory cache in front of the store.
//
// The serving path is sharded so concurrent requests mostly avoid each
// other (see DESIGN.md §10): counters are atomics, the path interner has
// a read-lock fast path for known paths, store reads happen outside any
// server lock with singleflight coalescing per demanded path, and only
// the successor-table update plus cache admission sit under the short
// aggMu critical section.
type Server struct {
	cfg    ServerConfig
	store  *Store
	logger *log.Logger

	// troute and iroute are cfg.Router's TracedRouter and InlineRouter
	// forms, asserted once at construction; nil when the router lacks
	// the extension.
	troute TracedRouter
	iroute InlineRouter

	// Hot counters; atomic (obs.Counter wraps one atomic each) so
	// concurrent handlers never contend. With cfg.Obs these are the very
	// series /metrics exposes, so Stats and the exposition cannot drift.
	m serverMetrics

	// ids translates paths to dense FileIDs and back; internally
	// read-write locked with a fast path for already-known paths.
	ids *trace.SyncInterner

	// aggMu guards the aggregating cache: successor learning, residency
	// bookkeeping, and group building. Never held across store or
	// network I/O.
	aggMu sync.Mutex
	agg   *core.AggregatingCache

	// flights coalesces concurrent store stagings of the same group.
	flights singleflight.Group[[]fileData]

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	listener net.Listener
	closed   bool
	nextSrc  uint64
	wg       sync.WaitGroup
}

// NewServer builds a server over the given store.
func NewServer(store *Store, cfg ServerConfig) (*Server, error) {
	if store == nil {
		return nil, errors.New("fsnet: store must not be nil")
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 5
	}
	if cfg.GroupSize < 1 || cfg.GroupSize > maxGroup {
		return nil, fmt.Errorf("fsnet: group size %d out of range [1,%d]", cfg.GroupSize, maxGroup)
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 256
	}
	agg, err := core.New(core.Config{
		Capacity:          cfg.CacheCapacity,
		GroupSize:         cfg.GroupSize,
		SuccessorCapacity: cfg.SuccessorCapacity,
		Obs:               cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		store:  store,
		logger: cfg.Logger,
		agg:    agg,
		ids:    trace.NewSyncInterner(),
		conns:  make(map[net.Conn]struct{}),
		m:      newServerMetrics(cfg.Obs, cfg.SlowRequest),
	}
	if tr, ok := cfg.Router.(TracedRouter); ok {
		s.troute = tr
	}
	if ir, ok := cfg.Router.(InlineRouter); ok {
		s.iroute = ir
	}
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("fsnet_server_open_conns", "connections currently served", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return float64(len(s.conns))
		})
	}
	return s, nil
}

// Serve accepts connections on l until Close is called. It blocks; run it
// in a goroutine for concurrent use. Serve returns nil after a graceful
// Close.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return errors.New("fsnet: server already closed")
	}
	s.listener = l
	s.connMu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("fsnet: accept: %w", err)
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			_ = conn.Close()
			return nil
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.connMu.Unlock()
			s.m.rejected.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rejectConn(conn)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.nextSrc++
		src := s.nextSrc
		s.connMu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.forget(conn, src)
			s.handleConn(conn, src)
		}()
	}
}

// rejectConn turns an over-limit connection away gracefully: a best-effort
// msgError carrying CodeBusy, then close. The write is deadline-bounded so
// a non-reading peer cannot pin the goroutine. The reply uses the
// handshake-phase framing (no request ID): the client reads it as the
// answer to its hello.
func (s *Server) rejectConn(conn net.Conn) {
	defer conn.Close()
	d := s.cfg.WriteTimeout
	if d <= 0 {
		d = 2 * time.Second
	}
	_ = conn.SetWriteDeadline(time.Now().Add(d))
	_ = writeFrame(conn, msgError, encodeErrorResponse(errorResponse{
		Code:    CodeBusy,
		Message: "server at connection limit",
	}))
}

// Close stops accepting, closes live connections, and waits for handlers
// to drain.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// Stats returns a snapshot of server activity.
//
// Consistency is deliberately relaxed: each field is an atomic load, but
// the snapshot is not taken under one lock, so fields may be mutually
// inconsistent while requests are in flight. The load order makes the
// skew one-sided — the cache accounting and per-path counters are read
// first and Requests last, and every handler increments its request
// counter before anything else — so a snapshot always satisfies
//
//	Requests >= Cache.Hits + Cache.GroupFetches + RemoteOpens
//
// mid-flight, with equality at quiescence for an error-free, opens-only
// workload (writes and not-found errors count a request without a cache
// access). TestConcurrentStatsSnapshot enforces exactly this contract.
func (s *Server) Stats() ServerStats {
	s.aggMu.Lock()
	cacheStats := s.agg.Stats()
	s.aggMu.Unlock()
	st := ServerStats{
		Errors:          s.m.errors.Load(),
		FilesSent:       s.m.sent.Load(),
		Rejected:        s.m.rejected.Load(),
		Panics:          s.m.panics.Load(),
		Disconnects:     s.m.disconnects.Load(),
		CoalescedStages: s.m.coalesced.Load(),
		RemoteOpens:     s.m.remote.Load(),
		Handoffs:        s.m.handoffs.Load(),
		Cache:           cacheStats,
	}
	// Last, so its value bounds every per-outcome counter read above.
	st.Requests = s.m.requests.Load()
	return st
}

func (s *Server) forget(conn net.Conn, src uint64) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.aggMu.Lock()
	s.agg.Tracker().ForgetSource(src)
	s.aggMu.Unlock()
	_ = conn.Close()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// handleConn serves one client until EOF, protocol error, or idle
// timeout. src is the connection's learning context: transitions are only
// recorded within one client's stream, so interleaved clients cannot
// manufacture relationships that never happened on any machine (§2.2).
//
// The first frame must be a msgHello offering exactly protocolV3: the
// server answers msgHelloOK and hands the connection to the pipelined
// serving loop. Anything else — another version, another frame type, an
// undecodable hello — gets one msgError (CodeBadRequest), counted in
// Errors, and the connection closes.
func (s *Server) handleConn(conn net.Conn, src uint64) {
	r := bufio.NewReaderSize(conn, connBufSize)
	typ, payload, ok := s.readHello(conn, r)
	if !ok {
		return
	}
	var err error
	if typ != msgHello {
		err = fmt.Errorf("first frame must be a hello, got message type %d", typ)
	} else if ver, derr := decodeHello(payload); derr != nil {
		err = derr
	} else if ver != protocolV3 {
		err = fmt.Errorf("protocol version %d unsupported; this server speaks %d", ver, protocolV3)
	}
	putFrameBuf(payload)
	s.armWrite(conn)
	if err != nil {
		s.m.errors.Add(1)
		_ = writeFrame(conn, msgError, encodeErrorResponse(errorResponse{Code: CodeBadRequest, Message: err.Error()}))
		return
	}
	if err := writeHello(conn, msgHelloOK, protocolV3); err != nil {
		s.disconnect(conn, err)
		return
	}
	s.serve(conn, r, src)
}

// readHello arms the idle deadline and reads a connection's first frame,
// classifying read failures: clean departures (EOF, closed, idle timeout)
// are silent, anything else counts as a protocol error.
func (s *Server) readHello(conn net.Conn, r *bufio.Reader) (uint8, []byte, bool) {
	if s.cfg.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return 0, nil, false
		}
	}
	typ, payload, err := readFrame(r)
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
			s.m.errors.Add(1)
			s.logf("fsnet: %s: read: %v", conn.RemoteAddr(), err)
		}
		return 0, nil, false
	}
	return typ, payload, true
}

// serve is the pipelined loop. Every open is decoded and learned here,
// once and in arrival order, whatever serves it; opens that settle
// without blocking — unrouted, owned, or answered by an InlineRouter —
// are then served inline (a goroutine spawn plus two scheduler hops per
// request is measurable at loopback rates), while opens that need the
// router's blocking path, writes, and handoffs get a bounded handler
// goroutine each (DESIGN.md §10). A dedicated reply writer batches
// completed replies — out of order — onto the wire with one write per
// batch. A malformed request payload fails only its own request; the
// framed stream stays intact, so the connection keeps serving.
func (s *Server) serve(conn net.Conn, r *bufio.Reader, src uint64) {
	rw := newReplyWriter(s, conn)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxServerPipeline)
	spawn := func(handle func()) {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			handle()
		}()
	}
	func() {
		// A panic in the read loop itself (as opposed to in a handler,
		// which recovers per request) must not skip the drain below: the
		// reply writer owns the write side.
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Add(1)
				s.logf("fsnet: %s: recovered read-loop panic: %v", conn.RemoteAddr(), p)
			}
		}()
		// Pending inbound trace context: the peer's writer emits each
		// msgTraceCtx immediately before the request frame it annotates,
		// so a single pending pair (cleared at the next request) suffices.
		var pendID uint64
		var pendCtx otrace.Ctx
		for {
			if s.cfg.IdleTimeout > 0 {
				if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
					return
				}
			}
			typ, id, payload, err := readFrameID(r)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
					s.m.errors.Add(1)
					s.logf("fsnet: %s: read: %v", conn.RemoteAddr(), err)
				}
				return
			}
			if typ == msgViewHint {
				// Unsolicited epoch announcement piggybacked ahead of a
				// client's request batch. Advisory by design: malformed or
				// unconfigured hints are dropped, never answered, so a
				// plain client works unchanged against a gossip-enabled
				// server and vice versa.
				if vs := s.cfg.Views; vs != nil {
					if epoch, sender, derr := decodeViewMsg(payload); derr == nil {
						vs.NoteViewEpoch(sender, epoch)
					}
				}
				putFrameBuf(payload)
				continue
			}
			if typ == msgTraceCtx {
				// Trace-context piggyback for the next request frame.
				// Advisory like view hints: undecodable contexts (or any
				// arriving at an untraced server) are dropped, never
				// answered.
				if s.cfg.Trace != nil {
					if tid, wctx, derr := decodeTraceCtx(payload); derr == nil {
						pendID, pendCtx = tid, wctx
					}
				}
				putFrameBuf(payload)
				continue
			}
			if typ == msgOpen {
				var tctx otrace.Ctx
				if pendCtx.Sampled && pendID == id {
					// Continue the sender's trace as a child span.
					tctx = s.cfg.Trace.Child(pendCtx)
				} else {
					// No inbound context: this server is the trace's entry
					// point; its own head sampler decides. Nil-safe and
					// branch-only when tracing is unwired.
					tctx = s.cfg.Trace.Root()
				}
				pendCtx = otrace.Ctx{}
				if call := s.serveOpen(rw, src, id, payload, tctx); call != nil {
					spawn(func() {
						defer s.recoverRequest(rw, id)
						files, errResp := s.finishOpen(call)
						rw.sendOpen(id, files, errResp)
					})
				}
				continue
			}
			spawn(func() { s.serveRequest(rw, typ, id, payload) })
		}
	}()
	wg.Wait()
	rw.drainAndStop()
}

// recoverRequest, deferred by every pipelined request, converts a
// handler panic into a CodeInternal reply for that request only; the
// connection keeps serving.
func (s *Server) recoverRequest(rw *replyWriter, id uint64) {
	if p := recover(); p != nil {
		s.m.panics.Add(1)
		s.logf("fsnet: recovered handler panic: %v", p)
		rw.sendError(id, errorResponse{Code: CodeInternal, Message: "internal server error"})
	}
}

// serveOpen runs one pipelined open in the read loop: decode, learn,
// and — unless the router needs its blocking path — resolve and reply.
// It returns the learned open when a handler goroutine must finish it.
func (s *Server) serveOpen(rw *replyWriter, src, id uint64, payload []byte, tctx otrace.Ctx) *openCall {
	defer s.recoverRequest(rw, id)
	files, errResp, call, err := s.openFrame(payload, src, tctx)
	switch {
	case err != nil:
		rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
	case call == nil:
		rw.sendOpen(id, files, errResp)
	}
	return call
}

// serveRequest handles one pipelined non-open request on a handler
// goroutine.
func (s *Server) serveRequest(rw *replyWriter, typ uint8, id uint64, payload []byte) {
	defer s.recoverRequest(rw, id)
	switch typ {
	case msgWrite:
		req, err := decodeWriteRequest(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		if errResp := s.write(req); errResp.Code != 0 {
			rw.sendError(id, errResp)
			return
		}
		rw.send(id, msgWriteOK, nil, false)
	case msgHandoff:
		req, err := decodeHandoffRequest(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		s.handoff(req)
		rw.send(id, msgHandoffOK, nil, false)
	case msgViewPull:
		// Anti-entropy exchange: answer with our full view when we are at
		// least as new as the puller, otherwise just our epoch. Equal
		// epochs still ship the members: two operators racing the same
		// epoch mint produce divergent same-epoch views, and the puller
		// resolves the tie by view-content hash (internal/cluster) — which
		// it can only do if it sees our members. Either way the puller's
		// own epoch is noted, so if *it* is the newer side the view source
		// pulls back symmetrically. View frames are control-plane traffic
		// and count no request, like the handshake.
		epoch, sender, err := decodeViewMsg(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		vs := s.cfg.Views
		if vs == nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: "no membership view"})
			return
		}
		vs.NoteViewEpoch(sender, epoch)
		ourEpoch, members := vs.ViewSnapshot()
		if ourEpoch >= epoch {
			rw.send(id, msgViewPush, appendViewPush(getEncodeBuf(), ourEpoch, vs.Self(), members), true)
			return
		}
		rw.send(id, msgViewHint, appendViewMsg(getEncodeBuf(), ourEpoch, vs.Self()), true)
	case msgViewPush:
		epoch, _, members, err := decodeViewPush(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		vs := s.cfg.Views
		if vs == nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: "no membership view"})
			return
		}
		if _, aerr := vs.ApplyView(epoch, members); aerr != nil {
			// A stale push is applied=false with nil error and still acked
			// below — the pusher learns our (newer) epoch from the ack.
			// Only an invalid view is a request error.
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: aerr.Error()})
			return
		}
		rw.send(id, msgViewHint, appendViewMsg(getEncodeBuf(), vs.Epoch(), vs.Self()), true)
	default:
		putFrameBuf(payload)
		rw.sendError(id, errorResponse{
			Code:    CodeBadRequest,
			Message: fmt.Sprintf("unknown message type %d", typ),
		})
	}
}

// armWrite starts the per-reply write deadline, so a peer that stops
// reading cannot wedge this handler once kernel buffers fill.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// disconnect records an abnormal connection termination caused by a
// failed reply write (stalled reader, reset, ...).
func (s *Server) disconnect(conn net.Conn, err error) {
	s.m.disconnects.Add(1)
	s.logf("fsnet: %s: write: %v", conn.RemoteAddr(), err)
}

// write stores a whole-file update. Writes are write-through to the
// store, so later group replies pick the new contents up automatically
// (the server cache tracks identities, not bytes). Consistency across
// clients is last-writer-wins; like the paper's model, the system is
// read-mostly and provides no cross-client invalidation.
func (s *Server) write(req writeRequest) errorResponse {
	s.m.requests.Add(1)
	if err := s.store.Put(req.Path, req.Data); err != nil {
		return errorResponse{Code: CodeBadRequest, Message: err.Error()}
	}
	return errorResponse{}
}

// handoff installs one drained group from a departing peer: the anchor
// and its members are learned as a successor chain under a dedicated
// source context (so the transfer can never interleave with a live
// client stream's transitions), and the anchor is staged into the cache
// — the receiver serves the moved paths warm from its first open.
//
// The chain is first-order: anchor→m1→m2→…, which the group builder
// re-expands transitively, so a later BuildGroup(anchor) reproduces the
// departed owner's group shape up to the configured group size.
//
// Accounting keeps the documented Stats contract: the handoff counts
// one request, and the Serve below counts exactly one cache hit or
// group fetch, so Requests >= Hits + GroupFetches + RemoteOpens holds
// with equality at quiescence exactly as for opens.
func (s *Server) handoff(req handoffRequest) {
	s.m.requests.Add(1)
	anchorID := s.ids.Intern(req.Anchor)
	memberIDs := make([]trace.FileID, 0, len(req.Members))
	for _, p := range req.Members {
		memberIDs = append(memberIDs, s.ids.Intern(p))
	}
	s.connMu.Lock()
	s.nextSrc++
	src := s.nextSrc
	s.connMu.Unlock()

	s.aggMu.Lock()
	s.agg.LearnFrom(src, anchorID)
	for _, mid := range memberIDs {
		s.agg.LearnFrom(src, mid)
	}
	s.agg.Serve(anchorID)
	// The transfer source is one-shot; drop its stream cursor so the id
	// space stays bounded by live connections.
	s.agg.Tracker().ForgetSource(src)
	s.aggMu.Unlock()
	s.m.handoffs.Add(1)
}

// ExportGroups snapshots the groups this server would serve right now
// for every interned path accepted by owned — each as its anchor plus
// learned members — skipping single-file groups (nothing learned to
// move). The cluster tier's Drain feeds each to the path's next owner
// via Client.Handoff. Pass nil to export every group.
func (s *Server) ExportGroups(owned func(path string) bool) []HandoffGroup {
	n := s.ids.Len()
	var out []HandoffGroup
	for i := 0; i < n; i++ {
		id := trace.FileID(i)
		path := s.ids.Path(id)
		if path == "" || (owned != nil && !owned(path)) {
			continue
		}
		s.aggMu.Lock()
		g := s.agg.BuildGroup(id)
		s.aggMu.Unlock()
		if len(g) <= 1 {
			continue
		}
		members := make([]string, 0, len(g)-1)
		for _, gid := range g[1:] {
			if p := s.ids.Path(gid); p != "" {
				members = append(members, p)
			}
		}
		if len(members) == 0 {
			continue
		}
		out = append(out, HandoffGroup{Anchor: path, Members: members})
	}
	return out
}

// openScratch carries the per-request working set of the open hot path:
// piggybacked path views, their interned IDs and paths, the built group,
// and its paths. Pooled so a steady-state open allocates none of it.
type openScratch struct {
	views    [][]byte // piggybacked path views into the frame buffer
	ids      []trace.FileID
	accessed []string // interned piggybacked paths, for the router
	group    []trace.FileID
	paths    []string
}

var openScratchPool = sync.Pool{New: func() interface{} { return new(openScratch) }}

// openCall is one open after decoding and learning: what resolving it
// needs, in the read loop or on a handler goroutine.
type openCall struct {
	// path is the demanded path: the interned string when the local
	// store holds it (known), otherwise a copy of the frame bytes.
	path  string
	id    trace.FileID // valid when known
	known bool
	// accessed is the interned piggybacked history, oldest first; set
	// only for opens handed to the router's blocking path.
	accessed []string
	tctx     otrace.Ctx
	timed    bool
	start    time.Time
}

// openFrame runs one open request frame and consumes payload. It decodes
// the frame once, as byte views, learns the open (learnOpen), and
// resolves it: from the local cache and store or from an InlineRouter's
// answer. An open that needs the router's blocking path is returned as
// call, for a handler goroutine to finish with finishOpen. A non-nil err
// reports a malformed payload: the caller answers CodeBadRequest, and no
// request is counted.
func (s *Server) openFrame(payload []byte, src uint64, tctx otrace.Ctx) (files []fileData, errResp errorResponse, call *openCall, err error) {
	sc := openScratchPool.Get().(*openScratch)
	defer openScratchPool.Put(sc)
	defer putFrameBuf(payload)
	pathView, views, err := decodeOpenView(payload, sc.views[:0])
	sc.views = views
	if err != nil {
		return nil, errorResponse{}, nil, err
	}
	s.m.requests.Add(1)
	c := openCall{tctx: tctx}
	// The clock is only read when a registry (or slow-request threshold,
	// or a sampled trace) demands it, so uninstrumented servers keep a
	// syscall-free path.
	if c.timed = s.m.timed() || tctx.Sampled; c.timed {
		c.start = time.Now()
	}
	s.learnOpen(&c, pathView, src, sc)

	route := RouteLocal
	var routed []GroupFile
	switch {
	case s.cfg.Router == nil:
	case s.iroute != nil:
		routed, route = s.iroute.RouteOpenNow(pathView, sc.accessed, tctx)
	default:
		route = RouteBlocking
	}
	switch route {
	case RouteLocal:
		files, errResp = s.serveLocal(&c, sc)
	case RouteAnswered:
		files, errResp = s.routedReply(&c, routed, nil)
	default:
		bc := c
		bc.accessed = append([]string(nil), sc.accessed...)
		return nil, errorResponse{}, &bc, nil
	}
	return files, errResp, nil, nil
}

// learnOpen interns an open's piggybacked history and — when the local
// store holds it — its demanded path, and records them in the
// connection's successor stream: history oldest first, then the demanded
// file, the client's true access order. Every decoded open learns here,
// exactly once and before any router runs, so a clustered node's
// metadata sees its clients' whole streams, not just the opens it owns
// (DESIGN.md §11). Nothing downstream learns the open again: a second
// LearnFrom would record a self-transition X→X.
func (s *Server) learnOpen(c *openCall, pathView []byte, src uint64, sc *openScratch) {
	sc.ids = sc.ids[:0]
	for _, v := range sc.views {
		if len(v) > 0 {
			sc.ids = append(sc.ids, s.ids.InternBytes(v))
		}
	}
	// Existence check before interning the demanded path, so
	// nonexistent paths never grow the ID space.
	if s.store.containsBytes(pathView) {
		c.id, c.known = s.ids.InternBytes(pathView), true
		c.path = s.ids.Path(c.id) // the interned string: no per-request copy
	} else {
		c.path = string(pathView)
	}
	sc.accessed = sc.accessed[:0]
	if s.cfg.Router != nil {
		for _, aid := range sc.ids {
			sc.accessed = append(sc.accessed, s.ids.Path(aid))
		}
	}
	s.aggMu.Lock()
	for _, aid := range sc.ids {
		s.agg.LearnFrom(src, aid)
	}
	if c.known {
		s.agg.LearnFrom(src, c.id)
	}
	s.aggMu.Unlock()
}

// finishOpen settles an open through the router's blocking path; a
// declined open (owned, or its owner is down) is served locally.
func (s *Server) finishOpen(c *openCall) ([]fileData, errorResponse) {
	var (
		files   []GroupFile
		handled bool
		err     error
	)
	if s.troute != nil {
		files, handled, err = s.troute.RouteOpenTraced(c.path, c.accessed, c.tctx)
	} else {
		files, handled, err = s.cfg.Router.RouteOpen(c.path, c.accessed)
	}
	if handled {
		return s.routedReply(c, files, err)
	}
	sc := openScratchPool.Get().(*openScratch)
	defer openScratchPool.Put(sc)
	return s.serveLocal(c, sc)
}

// serveLocal stages a learned open's group through the aggregating cache
// and reads the members' contents. The store is only touched outside
// aggMu: existence was checked when the open was learned, and the
// group's contents are staged after the critical section, coalesced with
// any concurrent staging of the same demanded path.
func (s *Server) serveLocal(c *openCall, sc *openScratch) ([]fileData, errorResponse) {
	if !c.known {
		return nil, errorResponse{Code: CodeNotFound, Message: c.path}
	}
	s.aggMu.Lock()
	// Hit-or-miss selects the latency phase below.
	hit := s.agg.Serve(c.id)
	sc.group = s.agg.AppendBuildGroup(sc.group[:0], c.id)
	s.aggMu.Unlock()

	sc.paths = sc.paths[:0]
	for _, gid := range sc.group {
		sc.paths = append(sc.paths, s.ids.Path(gid))
	}
	files, ok := s.stageGroup(c.path, sc.paths)
	if !ok {
		// The file vanished between the existence check and the staged
		// read; rare, and the learning recorded a genuine access.
		return nil, errorResponse{Code: CodeNotFound, Message: c.path}
	}
	s.m.sent.Add(uint64(len(files)))
	if c.timed {
		phase := "stage"
		if hit {
			phase = "hit"
		}
		s.observeServed(c.tctx, phase, c.path, c.start)
	}
	return files, errorResponse{}
}

// routedReply turns a router's handled answer into the open's reply: a
// typed error (ErrNotFound maps to CodeNotFound, anything else to
// CodeInternal), or the group, which must lead with the demanded path.
func (s *Server) routedReply(c *openCall, files []GroupFile, err error) ([]fileData, errorResponse) {
	var out []fileData
	var errResp errorResponse
	switch {
	case errors.Is(err, ErrNotFound):
		errResp = errorResponse{Code: CodeNotFound, Message: c.path}
	case err != nil:
		errResp = errorResponse{Code: CodeInternal, Message: err.Error()}
	case len(files) == 0 || files[0].Path != c.path:
		errResp = errorResponse{Code: CodeInternal, Message: "router returned malformed group"}
	default:
		// The group may be shared (a mirror entry): the reply writer
		// only reads it.
		out = files
		if len(out) > maxGroup {
			out = out[:maxGroup]
		}
		s.m.remote.Add(1)
		s.m.sent.Add(uint64(len(out)))
	}
	if c.timed {
		s.observeServed(c.tctx, "forward", c.path, c.start)
	}
	return out, errResp
}

// observeServed finishes one timed open: the phase span for a sampled
// trace (or a tail capture when an unsampled open crossed the slow
// threshold), then the latency histogram with the trace ID attached as
// the phase bucket's exemplar. Rendering the hex trace ID allocates, so
// untraced opens pass the empty string and stay on the plain path.
func (s *Server) observeServed(tctx otrace.Ctx, phase, path string, start time.Time) {
	d := time.Since(start)
	if tctx.Sampled {
		s.cfg.Trace.Record(tctx, phase, path, start, d)
		s.m.observeOpen(phase, path, d, tctx.TraceID())
		return
	}
	if s.cfg.Trace != nil && s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
		ttx := s.cfg.Trace.Tail(phase, path, start, d)
		s.m.observeOpen(phase, path, d, ttx.TraceID())
		return
	}
	s.m.observeOpen(phase, path, d, "")
}

// stageGroup reads the demanded file plus the group members from the
// store, coalescing with any concurrent staging of the same demanded
// path: followers wait for the leader's read and share its (read-only)
// result instead of hitting the store themselves.
//
// The contents are zero-copy references into the store (GetRef): Put
// replaces a path's slice wholesale, so a staged ref can never be
// mutated underneath the reply writer, and the result slice itself is
// shared across coalesced followers — it must never be pooled or
// written to.
func (s *Server) stageGroup(path string, paths []string) ([]fileData, bool) {
	files, ok, coalesced := s.flights.Do(path, func() ([]fileData, bool) {
		data, ok := s.store.GetRef(path)
		if !ok {
			return nil, false
		}
		files := make([]fileData, 0, len(paths))
		files = append(files, fileData{Path: path, Data: data})
		for _, p := range paths[1:] {
			if d, ok := s.store.GetRef(p); ok {
				files = append(files, fileData{Path: p, Data: d})
			}
		}
		return files, true
	})
	if coalesced {
		s.m.coalesced.Add(1)
	}
	return files, ok
}

// replyWriter serializes and batches the replies of one pipelined
// connection: handler goroutines enqueue completed replies, and a single
// writer goroutine drains whatever has accumulated with one write — so k
// ready replies cost one syscall, and a slow store read never blocks the
// replies queued behind it.
//
// The writer is scatter-gather: group replies are member streams whose
// frame headers and path metadata live in one pooled arena while the file
// contents ride as store references, and the whole batch goes to the
// socket in a single net.Buffers writev — the reply bytes are never
// assembled into a contiguous buffer.
type replyWriter struct {
	s    *Server
	conn net.Conn

	mu      sync.Mutex
	queue   []reply
	free    []reply // recycled batch storage
	dead    bool
	stop    bool
	wake    chan struct{}
	stopped chan struct{}

	bufs net.Buffers // scatter-gather scratch, reused per batch

	// View-hint piggyback state, touched only by the loop goroutine: the
	// epoch last announced on this connection, so a stable view costs one
	// frame per connection rather than one per batch.
	sentAny   bool
	sentEpoch uint64
}

type reply struct {
	id      uint64
	typ     uint8
	payload []byte
	// pooled marks a payload encoded into a frame-pool buffer; the
	// writer hands it back once the bytes are on the wire (or the write
	// side is dead).
	pooled bool
	// files, when non-nil, is a streamed group reply (typ and payload
	// are unused): one msgMemberChunk per file plus a closing
	// msgGroupEnd. The slice is the singleflight-shared staging result —
	// read-only here.
	files []fileData
}

func newReplyWriter(s *Server, conn net.Conn) *replyWriter {
	rw := &replyWriter{
		s:       s,
		conn:    conn,
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	go rw.loop()
	return rw
}

// sendError enqueues an error reply, counting it in Errors.
func (rw *replyWriter) sendError(id uint64, errResp errorResponse) {
	rw.s.m.errors.Add(1)
	rw.send(id, msgError, appendErrorResponse(getEncodeBuf(), errResp), true)
}

// send enqueues one reply frame for the writer goroutine.
func (rw *replyWriter) send(id uint64, typ uint8, payload []byte, pooled bool) {
	rw.enqueue(reply{id: id, typ: typ, payload: payload, pooled: pooled})
}

// sendOpen enqueues an open's reply: its error, or its group, streamed
// member by member.
func (rw *replyWriter) sendOpen(id uint64, files []fileData, errResp errorResponse) {
	if errResp.Code != 0 {
		rw.sendError(id, errResp)
		return
	}
	rw.enqueue(reply{id: id, files: files})
}

func (rw *replyWriter) enqueue(rep reply) {
	rw.mu.Lock()
	if rw.dead {
		rw.mu.Unlock()
		if rep.pooled {
			putFrameBuf(rep.payload)
		}
		return
	}
	rw.queue = append(rw.queue, rep)
	rw.mu.Unlock()
	select {
	case rw.wake <- struct{}{}:
	default:
	}
}

// drainAndStop flushes any remaining replies and waits for the writer
// goroutine to exit. Called after every handler has completed.
func (rw *replyWriter) drainAndStop() {
	rw.mu.Lock()
	rw.stop = true
	rw.mu.Unlock()
	select {
	case rw.wake <- struct{}{}:
	default:
	}
	<-rw.stopped
}

func (rw *replyWriter) loop() {
	defer close(rw.stopped)
	for range rw.wake {
		for {
			rw.mu.Lock()
			batch := rw.queue
			// Hand the previous batch's storage back so steady-state
			// batching reallocates nothing.
			rw.queue = rw.free[:0]
			rw.free = nil
			dead, stopped := rw.dead, rw.stop
			rw.mu.Unlock()
			if dead {
				rw.release(batch)
				return
			}
			if len(batch) == 0 {
				rw.recycle(batch)
				if stopped {
					return
				}
				break
			}
			rw.s.armWrite(rw.conn)
			err := rw.writeBatch(batch)
			rw.recycle(batch)
			if err != nil {
				rw.fail(err)
				return
			}
		}
	}
}

// writeBatch writes one batch scatter-gather: frame headers and chunk
// metadata accumulate in one pooled arena, file contents are referenced
// in place, and the whole batch leaves in a single net.Buffers write.
// Arena growth may reallocate its backing array, but segments already
// recorded in bufs keep pointing at the old array's (immutable) bytes,
// so earlier frames are never corrupted.
func (rw *replyWriter) writeBatch(batch []reply) error {
	arena := getEncodeBuf()
	bufs := rw.bufs[:0]
	// Piggyback the membership epoch ahead of the batch when a view
	// source is wired: one msgViewHint under request ID 0 (request IDs
	// start at 1), re-sent only when the epoch changes. Without Views
	// this is a single nil check — the hit path stays alloc-free.
	if vs := rw.s.cfg.Views; vs != nil {
		if epoch := vs.Epoch(); !rw.sentAny || epoch != rw.sentEpoch {
			scratch := appendViewMsg(getEncodeBuf(), epoch, vs.Self())
			start := len(arena)
			arena = appendFrameID(arena, msgViewHint, 0, scratch)
			bufs = append(bufs, arena[start:])
			putFrameBuf(scratch)
			rw.sentAny, rw.sentEpoch = true, epoch
		}
	}
	for i := range batch {
		rep := &batch[i]
		if rep.files != nil {
			for _, f := range rep.files {
				start := len(arena)
				arena = appendMemberChunkHdr(arena, rep.id, f.Path, len(f.Data))
				bufs = append(bufs, arena[start:], f.Data)
			}
			var cnt [10]byte // uvarint member count
			n := binary.PutUvarint(cnt[:], uint64(len(rep.files)))
			start := len(arena)
			arena = appendFrameID(arena, msgGroupEnd, rep.id, cnt[:n])
			bufs = append(bufs, arena[start:])
			continue
		}
		start := len(arena)
		arena = appendFrameID(arena, rep.typ, rep.id, rep.payload)
		bufs = append(bufs, arena[start:])
		if rep.pooled {
			putFrameBuf(rep.payload)
			rep.pooled = false
		}
	}
	// WriteTo consumes its receiver (and may rewrite elements on partial
	// writes), so give it the scratch directly and re-truncate next
	// batch; the element values are disposable.
	rw.bufs = bufs
	_, err := rw.bufs.WriteTo(rw.conn)
	rw.bufs = bufs[:0]
	putFrameBuf(arena)
	return err
}

// recycle returns any still-pooled payloads and offers the batch storage
// back for the next drain.
func (rw *replyWriter) recycle(batch []reply) {
	for i := range batch {
		if batch[i].pooled {
			putFrameBuf(batch[i].payload)
		}
		batch[i] = reply{}
	}
	rw.mu.Lock()
	if rw.free == nil || cap(batch) > cap(rw.free) {
		rw.free = batch[:0]
	}
	rw.mu.Unlock()
}

// release drops a batch that will never be written, returning its pooled
// payloads.
func (rw *replyWriter) release(batch []reply) {
	for i := range batch {
		if batch[i].pooled {
			putFrameBuf(batch[i].payload)
		}
	}
}

// fail marks the write side dead after an I/O failure and closes the
// connection so the read loop unblocks; counted once as a disconnect.
func (rw *replyWriter) fail(err error) {
	rw.mu.Lock()
	rw.dead = true
	rw.queue = nil
	rw.mu.Unlock()
	rw.s.disconnect(rw.conn, err)
	_ = rw.conn.Close()
}
