package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grammar"
	"repro/internal/store"
)

// connBufSize sizes each connection's read and write buffers: large
// enough that a pipelined batch of small requests coalesces into one
// syscall each way.
const connBufSize = 64 << 10

// Default deadlines (see Config). They are generous — they exist to
// shed wedged peers, not to police slow ones — so healthy traffic never
// notices them.
const (
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 30 * time.Second
	DefaultIdleTimeout  = 2 * time.Minute
)

// maxResponsePayload bounds a single response payload. It equals
// MaxFramePayload in production; tests shrink it to reach the oversize
// path without building a 64 MiB grammar.
var maxResponsePayload = MaxFramePayload

// Config tunes the server's deadlines. The zero value selects the
// defaults above; a negative duration disables that limit entirely.
type Config struct {
	// ReadTimeout bounds reading one request frame once its first byte
	// has arrived. A peer that tears a frame and stalls mid-payload is
	// cut off — the connection closes, it never fails open.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing (and flushing) one response. A peer
	// that stops reading cannot wedge a connection goroutine forever.
	WriteTimeout time.Duration
	// IdleTimeout bounds the wait for the NEXT request's first byte.
	// Idle connections past it are closed; clients reconnect.
	IdleTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ReadTimeout == 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	return c
}

// Server serves a ShardedStore over a listener: one goroutine per
// accepted connection, requests dispatched in order per connection
// (writes to one document arrive in the order the client sent them),
// connections served independently of each other. Protocol defects —
// torn frames, bad CRCs, malformed requests — close the offending
// connection without a reply; application errors (unknown document,
// invalid op position, sequence gap) travel back as error responses
// and the connection keeps serving.
//
// The server is fault-tolerant by construction: per-connection read,
// write, and idle deadlines shed wedged peers (never failing open), and
// Drain performs a graceful handoff — stop accepting, tell idle
// clients to go away, let in-flight batches finish and flush,
// force-sync the WAL tails so every acked write is durable, then close.
type Server struct {
	ln  net.Listener
	ss  *store.Sharded
	cfg Config

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
}

// srvConn is one accepted connection plus the state Drain coordinates
// with the connection goroutine: busy marks a request in flight (read
// begun, response not yet flushed), goAway marks the drain decision.
// The mutex guards both and serializes writes to bw, which Drain uses
// from outside the connection goroutine.
type srvConn struct {
	c  net.Conn
	bw *bufio.Writer

	mu     sync.Mutex
	busy   bool
	goAway bool
	frame  []byte // write-side frame scratch, guarded by mu
}

// sendGoAway writes the GoAway frame and flushes, best effort: the
// peer may already be gone, and either way the connection is about to
// close. Callers hold sc.mu.
func (sc *srvConn) sendGoAwayLocked(writeTimeout time.Duration) {
	if writeTimeout > 0 {
		sc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	var err error
	sc.frame, err = writeFrame(sc.bw, sc.frame, []byte{respGoAway})
	if err == nil {
		sc.bw.Flush()
	}
}

// Serve starts serving ss on ln and returns immediately; the returned
// Server owns the listener. An optional Config tunes the deadlines
// (zero values select defaults). Backpressure comes from the store:
// each connection dispatches one request at a time, and the per-shard
// write lock bounds how many batches mutate at once. Close stops
// accepting, closes every live connection, and waits for the
// per-connection goroutines to drain (it does not close ss — the store
// outlives its front-end).
func Serve(ln net.Listener, ss *store.Sharded, cfg ...Config) *Server {
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	c = c.withDefaults()
	s := &Server{ln: ln, ss: ss, cfg: c, conns: make(map[*srvConn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (the dial target, useful with
// a ":0" listener).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Drain gracefully stops the server: the listener closes (no new
// connections), every idle connection receives a GoAway frame and
// closes, and connections with a request in flight finish it, flush
// the response, then receive their GoAway and close. When the last
// connection has drained — or ctx expires, at which point the stragglers
// are force-closed — the store's WAL tails are force-synced, so every
// batch acked before Drain returned survives an immediate kill even
// under a relaxed fsync policy.
//
// Drain returns ctx.Err() if the grace period expired (some responses
// may not have flushed), else the WAL sync error, else nil. The
// ShardedStore stays open either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()

	// Snapshot the connection set, then decide per connection: idle ones
	// get GoAway and close here; busy ones get the flag and their own
	// goroutine finishes the in-flight request first.
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.mu.Lock()
		if !sc.goAway {
			sc.goAway = true
			if !sc.busy {
				sc.sendGoAwayLocked(s.cfg.WriteTimeout)
				sc.c.Close()
			}
		}
		sc.mu.Unlock()
	}

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	var ctxErr error
	select {
	case <-drained:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		// Grace expired: cut the stragglers. Their goroutines exit on
		// the next read or write against the dead connection.
		s.mu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		<-drained
	}

	// Every ack that made it onto the wire covers a batch the store has
	// applied and (on a durable fleet) appended; the sync pushes those
	// appends to stable storage regardless of the fsync policy.
	syncErr := s.ss.SyncWAL()
	if ctxErr != nil {
		return ctxErr
	}
	return syncErr
}

// Close stops the server immediately: a drain with zero grace. The
// listener closes, every live connection closes (in-flight requests
// are cut, but anything already acked is WAL-synced), and all
// per-connection goroutines finish before Close returns. The
// underlying ShardedStore is untouched.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if errors.Is(err, context.Canceled) {
		// Zero grace always "expires"; that is not a failure of Close.
		return nil
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// The listener is dead (usually: Drain/Close). There is
			// nothing to retry — connections already accepted keep
			// draining.
			return
		}
		sc := &srvConn{c: c, bw: bufio.NewWriterSize(c, connBufSize)}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(sc)
	}
}

func (s *Server) forget(sc *srvConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// handle serves one connection until EOF, a protocol defect, a
// deadline, or drain. Responses are flushed when the read side has no
// buffered input left: a synchronous client gets its reply
// immediately, a pipelining client's replies coalesce into one flush
// per burst — the network analogue of the store's batch-boundary
// bookkeeping.
func (s *Server) handle(sc *srvConn) {
	defer s.wg.Done()
	defer s.forget(sc)
	defer sc.c.Close()
	br := bufio.NewReaderSize(sc.c, connBufSize)
	var in, out []byte
	var snap bytes.Buffer
	for {
		// Wait for the next request's first byte under the idle
		// deadline; the connection is not busy until one arrives.
		if br.Buffered() == 0 {
			if s.cfg.IdleTimeout > 0 {
				sc.c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			}
			if _, err := br.Peek(1); err != nil {
				return // EOF, idle timeout, or drain closed the conn
			}
		}
		sc.mu.Lock()
		if sc.goAway {
			// Drain raced the next request: flush any pipelined acks
			// still buffered, say goodbye, and stop. The request just
			// peeked (or still queued) is never begun — the client never
			// saw an ack for it, so its retry layer resends elsewhere.
			if s.cfg.WriteTimeout > 0 {
				sc.c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			sc.bw.Flush()
			sc.sendGoAwayLocked(s.cfg.WriteTimeout)
			sc.mu.Unlock()
			return
		}
		sc.busy = true
		sc.mu.Unlock()

		// The frame has begun: the rest of it must arrive under the
		// read deadline — a peer stalled mid-frame is shed, not waited
		// on forever.
		if s.cfg.ReadTimeout > 0 {
			sc.c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		payload, grown, err := readFrame(br, in)
		in = grown
		if err != nil {
			return // torn or hostile frame: close, never fail open
		}
		req, err := decodeRequest(payload)
		if err != nil {
			return // malformed request: protocol defect, not an app error
		}
		out = s.dispatch(req, out[:0], &snap)

		sc.mu.Lock()
		if s.cfg.WriteTimeout > 0 {
			sc.c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		sc.frame, err = writeFrame(sc.bw, sc.frame, out)
		if err != nil {
			sc.mu.Unlock()
			return
		}
		if br.Buffered() == 0 {
			if err := sc.bw.Flush(); err != nil {
				sc.mu.Unlock()
				return
			}
			if sc.goAway {
				// Drain arrived while this request was in flight. Its
				// response (the ack) is flushed — and the store work it
				// acks is done — so now say goodbye and close.
				sc.sendGoAwayLocked(s.cfg.WriteTimeout)
				sc.mu.Unlock()
				return
			}
			sc.busy = false
		}
		sc.mu.Unlock()
	}
}

// dispatch runs one request against the store and appends the response
// payload to dst. Application errors become respErr payloads; only
// transport problems terminate the connection, and those are the
// caller's business.
func (s *Server) dispatch(req request, dst []byte, snap *bytes.Buffer) []byte {
	switch req.kind {
	case reqOpen:
		g, err := grammar.Decode(bytes.NewReader(req.gram))
		if err != nil {
			return appendErrResponse(dst, err)
		}
		if _, err := s.ss.Open(req.doc, g); err != nil {
			return appendErrResponse(dst, err)
		}
		return append(dst, respOK)
	case reqApply:
		if err := s.ss.ApplyAllSeq(req.doc, req.ops, req.seq); err != nil {
			return appendErrResponse(dst, err)
		}
		return append(dst, respOK)
	case reqPointQuery:
		label, err := s.ss.PointQuery(req.doc, req.pre)
		if err != nil {
			return appendErrResponse(dst, err)
		}
		dst = append(dst, respLabel)
		return appendWireString(dst, label)
	case reqCountLabel:
		n, err := s.ss.CountLabel(req.doc, req.label)
		if err != nil {
			return appendErrResponse(dst, err)
		}
		dst = append(dst, respCount)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(n))
	case reqSnapshot:
		g, err := s.ss.Snapshot(req.doc)
		if err != nil {
			return appendErrResponse(dst, err)
		}
		snap.Reset()
		if err := grammar.Encode(snap, g); err != nil {
			return appendErrResponse(dst, err)
		}
		if snap.Len()+1 > maxResponsePayload {
			// A grammar too large for one frame is an application-level
			// refusal on a live connection, not a transport failure: the
			// client gets a definitive error and keeps its connection.
			return appendErrResponse(dst, errSnapshotTooLarge)
		}
		dst = append(dst, respGrammar)
		return append(dst, snap.Bytes()...)
	case reqLastSeq:
		seq, err := s.ss.LastSeq(req.doc)
		if err != nil {
			return appendErrResponse(dst, err)
		}
		dst = append(dst, respSeq)
		return binary.AppendUvarint(dst, seq)
	case reqQuiesce:
		s.ss.Quiesce()
		return append(dst, respOK)
	}
	// decodeRequest admits no other kind; an unreachable default still
	// must not fail open.
	return appendErrResponse(dst, errUnknownRequest)
}

var (
	errUnknownRequest   = errString("server: unknown request")
	errSnapshotTooLarge = errString("server: snapshot exceeds the frame payload bound")
)

type errString string

func (e errString) Error() string { return string(e) }
