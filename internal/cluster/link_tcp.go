package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/wire"
)

// WireSniffer captures the raw bytes written to inter-node connections —
// the exact view a network eavesdropper gets. Tests scan the capture for
// plaintext patterns: finding none (while a plaintext-algorithm control
// run does expose them) demonstrates the security property on real
// sockets, not just at the audit layer. On a persistent session the
// capture is cumulative over every collective run on the mesh.
type WireSniffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	total   int64
	capped  bool
	MaxKeep int64 // capture cap in bytes (default 8 MiB)
}

func (s *WireSniffer) record(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += int64(len(p))
	max := s.MaxKeep
	if max == 0 {
		max = 8 << 20
	}
	if int64(s.buf.Len()) < max {
		room := max - int64(s.buf.Len())
		if int64(len(p)) > room {
			p = p[:room]
			s.capped = true
		}
		s.buf.Write(p)
	} else {
		s.capped = true
	}
}

// Bytes returns the captured inter-node wire bytes (possibly truncated
// at MaxKeep).
func (s *WireSniffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// Total returns how many inter-node bytes crossed the wire in total.
func (s *WireSniffer) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Truncated reports whether the capture hit MaxKeep and dropped bytes.
func (s *WireSniffer) Truncated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capped
}

// Contains reports whether needle appears in the captured wire bytes.
func (s *WireSniffer) Contains(needle []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Contains(s.buf.Bytes(), needle)
}

// sniffConn wraps the write side of an inter-node connection. Only the
// bytes the underlying connection actually accepted are recorded, so a
// failed or short write cannot inflate the eavesdropper's tally.
type sniffConn struct {
	net.Conn
	sniffer *WireSniffer
}

func (c *sniffConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.sniffer.record(p[:n])
	}
	return n, err
}

const (
	// sendRetries bounds reconnect attempts for one frame after a
	// transient send failure.
	sendRetries = 4
	// sendBackoffBase is the first reconnect backoff; it doubles per
	// attempt (2, 4, 8, 16 ms).
	sendBackoffBase = 2 * time.Millisecond
)

// pairConn is the sender-side state of one directed connection. The
// owning rank's send scheduler goroutine is the only writer, but
// teardown closes the current conn concurrently, so conn access goes
// through the mutex. Pair connections — and their monotone sequence
// counters — live as long as the mesh, so frame numbering continues
// across the collectives of a session and the receiver's sequence gates
// stay valid run-to-run, even with frames of concurrent operations
// interleaved on the connection.
type pairConn struct {
	mu   sync.Mutex
	conn net.Conn
	shut bool          // teardown closed the pair for good: no reconnect installs
	seq  atomic.Uint64 // frames issued so far: the next sequence number
	// inj is the fault injector of the operation whose frame is being
	// written right now. The send scheduler arms it before each frame;
	// the connection's fault.Conn wrapper re-resolves it per frame, so
	// one persistent connection serves the interleaved frames of many
	// concurrent operations, each under its own fault plan.
	inj atomic.Pointer[fault.Injector]
	// fw is the connection's reusable frame encoder. Only the owning
	// rank's send scheduler writes frames, so it needs no lock;
	// steady-state sends reuse its buffer instead of allocating one per
	// frame.
	fw *wire.FrameWriter
}

func (c *pairConn) injProv() *fault.Injector { return c.inj.Load() }

func (c *pairConn) get() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// replace installs a freshly dialed conn, closing the previous one. A
// reconnect that raced teardown closes its fresh conn instead, so no
// connection — and no reader blocked on its far end — outlives the link.
func (c *pairConn) replace(conn net.Conn) {
	c.mu.Lock()
	old := c.conn
	if c.shut {
		old = conn
	} else {
		c.conn = conn
	}
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// close shuts the pair down for good (teardown).
func (c *pairConn) close() {
	c.mu.Lock()
	c.shut = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// seqGate deduplicates frames of one directed pair across reconnects: a
// frame resent after a transient failure may arrive twice (once through
// the old connection, once through the new), and must be delivered once.
// Gates persist for the mesh lifetime — sequence numbers never reset, so
// dedup works across the (possibly concurrent) collectives of a session
// too: the gate orders the connection's byte stream, the op-id routes
// each admitted frame to its operation.
type seqGate struct {
	mu   sync.Mutex
	next uint64
}

// admit reports whether a frame with the given sequence number should be
// delivered, and advances the gate past it.
func (g *seqGate) admit(seq uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq < g.next {
		return false
	}
	g.next = seq + 1
	return true
}

func (g *seqGate) horizon() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}

// tcpLink carries a mesh over real loopback TCP sockets through the
// wire codec: one listener and accept loop per rank, a dedicated dialed
// connection per ordered rank pair (hello handshake done once),
// per-pair sequence gates, reconnect-and-resend recovery, and the
// session-lifetime wire sniffer on inter-node connections.
type tcpLink struct {
	m         *mesh
	conns     [][]*pairConn // [src][dst], nil on the diagonal
	addrs     []string      // listener address per rank, for reconnects
	listeners []net.Listener
	gates     [][]*seqGate // [dst][src]
	// turns[dst][src] is closed when the pair's newest reader exits;
	// the next connection's reader waits for it (see serveConn).
	turns    [][]chan struct{}
	sniffer  *WireSniffer
	downOnce sync.Once

	// tracked holds the live readers' progress trackers, so the link can
	// diagnose a reader starved mid-frame by length-field corruption.
	trackMu sync.Mutex
	tracked map[*readTracker]struct{}
}

// readerStalled reports a live reader stuck mid-frame with no byte
// progress for readerStallAfter or longer — the signature of a
// corrupted length or count field, which leaves the decoder silently
// swallowing every later frame on the stream.
func (l *tcpLink) readerStalled() error {
	l.trackMu.Lock()
	defer l.trackMu.Unlock()
	for t := range l.tracked {
		if d, mid := t.starved(); mid && d >= readerStallAfter {
			return fmt.Errorf("frame stream %d->%d starved mid-frame for %v (corrupted length field?)",
				t.src, t.dst, d.Round(time.Millisecond))
		}
	}
	return nil
}

// attachTCPLink installs a TCP link on m: it listens, starts the accept
// loops and dials the full O(p^2) connection mesh.
func attachTCPLink(m *mesh) error {
	P := m.spec.P
	l := &tcpLink{
		m:         m,
		conns:     make([][]*pairConn, P),
		addrs:     make([]string, P),
		listeners: make([]net.Listener, P),
		gates:     make([][]*seqGate, P),
		turns:     make([][]chan struct{}, P),
		sniffer:   &WireSniffer{},
		tracked:   make(map[*readTracker]struct{}),
	}
	m.link = l
	abandon := func(re *RankError) error {
		l.teardown()
		m.wg.Wait()
		return re
	}
	for r := 0; r < P; r++ {
		l.conns[r] = make([]*pairConn, P)
		l.gates[r] = make([]*seqGate, P)
		l.turns[r] = make([]chan struct{}, P)
		for s := 0; s < P; s++ {
			l.gates[r][s] = &seqGate{}
			if r != s {
				l.conns[r][s] = &pairConn{fw: wire.NewFrameWriter()}
			}
		}
	}
	// One listener per rank, each with a persistent accept loop: beyond
	// the initial p-1 connections it keeps accepting so that a sender
	// recovering from a transient fault can reconnect and re-handshake.
	for r := 0; r < P; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return abandon(&RankError{Rank: r, Peer: -1, Op: "listen", Err: err})
		}
		l.listeners[r] = ln
		l.addrs[r] = ln.Addr().String()
	}
	for d := 0; d < P; d++ {
		d := d
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				conn, err := l.listeners[d].Accept()
				if err != nil {
					return // listener closed: teardown
				}
				// Learn the dialing rank here, in accept order, so a
				// pair's readers take turns in the order its sender
				// dialed. A hello is one frame: a dialer silent for as
				// long as a stalled frame is no peer.
				conn.SetReadDeadline(time.Now().Add(readerStallAfter))
				src, err := wire.ReadHello(conn)
				conn.SetReadDeadline(time.Time{})
				if err != nil || src < 0 || src >= P || src == d {
					conn.Close()
					continue
				}
				prev, done := l.turns[d][src], make(chan struct{})
				l.turns[d][src] = done
				// The accept goroutine holds a wg slot, so this Add never
				// races a Wait at zero.
				m.wg.Add(1)
				go l.serveConn(src, d, conn, prev, done)
			}
		}()
	}
	// Dial side: every ordered pair gets a dedicated connection.
	for s := 0; s < P; s++ {
		for d := 0; d < P; d++ {
			if s == d {
				continue
			}
			conn, err := l.connect(s, d, l.conns[s][d])
			if err != nil {
				return abandon(&RankError{Rank: s, Peer: d, Op: "dial", Err: err})
			}
			l.conns[s][d].conn = conn
		}
	}
	return nil
}

// connect dials dst's listener and identifies src with a hello frame;
// the conn is wrapped with the wire sniffer (inter-node pairs) and the
// provider-based fault wrapper, which re-resolves the pair's currently
// armed injector at each frame, so the same connection serves the
// interleaved frames of concurrent operations under their own fault
// plans. Used for both initial setup and reconnects.
func (l *tcpLink) connect(src, dst int, pc *pairConn) (net.Conn, error) {
	conn, err := net.Dial("tcp", l.addrs[dst])
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(conn, src); err != nil {
		conn.Close()
		return nil, err
	}
	c := net.Conn(conn)
	if !l.m.spec.SameNode(src, dst) {
		c = &sniffConn{Conn: c, sniffer: l.sniffer}
	}
	return fault.WrapSendProvider(pc.injProv, src, dst, c), nil
}

// teardown closes the listeners and connections, ending the link.
// Idempotent; reader goroutines observe the closed conns and drain.
func (l *tcpLink) teardown() {
	l.downOnce.Do(func() {
		for _, ln := range l.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, row := range l.conns {
			for _, pc := range row {
				if pc != nil {
					pc.close()
				}
			}
		}
	})
}

// diagnose checks for the wire corruption a failed operation can leave
// behind and no later operation could recover from: a sequence-gate
// desync, or a reader starved mid-frame by a corrupted length field.
func (l *tcpLink) diagnose() error {
	if err := l.gateDesync(); err != nil {
		return err
	}
	return l.readerStalled()
}

// gateDesync detects a corrupted sequence number that inflated a
// receiver's gate past anything the sender has issued. Every later
// frame of that pair — in any operation — would be dropped as a
// duplicate, so the mesh must be declared down. Gate-then-sender read
// order makes the check race-free against concurrent sends (sender
// counters only grow, so a healthy pair can never show gate > issued).
func (l *tcpLink) gateDesync() error {
	for dst := range l.gates {
		for src := range l.gates[dst] {
			if src == dst {
				continue
			}
			ahead := l.gates[dst][src].horizon()
			if issued := l.conns[src][dst].seq.Load(); ahead > issued {
				return fmt.Errorf("seq gate %d->%d desynced by wire corruption: gate at %d, sender issued %d",
					src, dst, ahead, issued)
			}
		}
	}
	return nil
}

// send writes one op-id-stamped whole-message frame on the src->dst
// connection: it assigns the pair's next sequence number, arms the
// operation's fault injector on the connection and writes the frame,
// recovering from transient failures (injected drops, partial writes,
// connection resets) by reconnecting — fresh dial plus hello
// re-handshake — under exponential backoff. Resending the whole frame
// on a fresh connection is safe: the receiver's sequence gate drops
// duplicates, a partial frame on the abandoned connection never parses,
// and AES-GCM binds every ciphertext to its block header and op-id, so
// replays, splices and cross-operation deliveries fail closed rather
// than deliver wrong bytes. A send that exhausts the retries fails the
// op when its own fault plan caused it, and the whole mesh on organic
// transport death; send reports whether the frame went out.
func (l *tcpLink) send(e *opEngine, src, dst int, msg block.Message) bool {
	pc := l.conns[src][dst]
	pc.inj.Store(e.inj)
	seq := pc.seq.Add(1) - 1
	var err error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			l.m.lm.resends.Inc()
			backoff := time.NewTimer(sendBackoffBase << (attempt - 1))
			select {
			case <-backoff.C:
			case <-e.aborted:
				backoff.Stop()
				return false // gave up because the op unwound mid-retry
			}
			conn, derr := l.connect(src, dst, pc)
			if derr != nil {
				err = derr
				continue
			}
			pc.replace(conn)
			l.m.lm.reconnects.Inc()
		}
		conn := pc.get()
		if fc, ok := conn.(*fault.Conn); ok {
			if err = fc.StartFrame(); err != nil {
				continue
			}
		}
		if err = pc.fw.WriteMsg(conn, src, e.id, seq, msg); err != nil {
			conn.Close()
			continue
		}
		return true
	}
	if e.isAborted() {
		return false
	}
	err = fmt.Errorf("send gave up after %d attempts: %w", sendRetries+1, err)
	var fe *fault.Error
	if errors.As(err, &fe) {
		// The op's own fault plan exhausted the retries: fail the
		// op, leave the mesh (and its other operations) alone.
		e.failAsync(&RankError{Rank: src, Peer: dst, Op: "send", Err: err})
		return false
	}
	l.m.fail(fmt.Errorf("rank %d send to %d: %w", src, dst, err))
	return false
}

// readTracker is one accepted connection's read side. The frame decoder
// reads through br, a buffered reader over the connection, so a small
// frame costs one or two socket reads instead of one per field; a large
// chunk payload still lands straight in its buffer, since bufio reads a
// request larger than its buffer directly into the caller's slice once
// the buffered bytes are drained.
//
// The tracker also watches the decoder's progress, so the mesh can tell
// a connection that is idle between frames (healthy: it may wait
// forever) from one starved in the middle of a frame (corrupt: a flipped
// length or count field made the decoder demand bytes the sender never
// wrote, and every later frame on the stream is swallowed as phantom
// payload). The tracker sits under the buffer, so it sees socket reads;
// frameStart covers the bytes the buffer already holds when the decoder
// begins a frame.
type readTracker struct {
	conn     net.Conn
	br       *bufio.Reader
	src, dst int
	mu       sync.Mutex
	midFrame bool
	last     time.Time
}

// newReadTracker wraps an accepted connection whose hello has already
// been read: no byte of the frame stream sits in anyone's buffer yet.
func newReadTracker(conn net.Conn, src, dst int) *readTracker {
	t := &readTracker{conn: conn, src: src, dst: dst}
	t.br = bufio.NewReader(t)
	return t
}

// Read is the buffer's fill from the socket; the decoder reads t.br.
func (t *readTracker) Read(p []byte) (int, error) {
	n, err := t.conn.Read(p)
	if n > 0 {
		t.progress()
	}
	return n, err
}

func (t *readTracker) progress() {
	t.mu.Lock()
	t.midFrame = true
	t.last = time.Now()
	t.mu.Unlock()
}

// frameStart marks the decoder beginning a frame. When an earlier socket
// read already brought the start of this frame into the buffer, the
// reader is mid-frame as of now: a corrupted length field in this frame
// would otherwise starve the decoder without the tracker ever noticing.
func (t *readTracker) frameStart() {
	if t.br.Buffered() > 0 {
		t.progress()
	}
}

// frameDone marks a clean frame boundary: the reader is idle again.
func (t *readTracker) frameDone() {
	t.mu.Lock()
	t.midFrame = false
	t.mu.Unlock()
}

// starved reports how long the reader has been stuck mid-frame without
// receiving a byte.
func (t *readTracker) starved() (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.midFrame {
		return 0, false
	}
	return time.Since(t.last), true
}

// readerStallAfter is how long a reader must sit mid-frame with zero
// byte progress before the mesh calls it corrupted rather than slow. On
// loopback a frame's bytes arrive microseconds apart; a full second of
// mid-frame silence only happens when a corrupted length field left the
// decoder waiting for bytes that were never sent.
const readerStallAfter = time.Second

// connDied reports whether a read error is ordinary connection
// lifecycle — the stream ended or was closed/reset under the reader —
// as opposed to a parse failure on a live stream. Lifecycle errors are
// expected: the sender abandons a connection after a partial write and
// reconnects, so its reader sees a clean frame prefix followed by EOF,
// never garbage. A parse error on bytes that did arrive means the
// stream itself was corrupted in flight.
func connDied(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// serveConn handles one accepted connection from src: once the pair's
// previous connection has been read to its end (prev closed), it
// demuxes sequence-deduplicated frames to the in-flight operation each
// frame's op-id names, until the connection
// dies (teardown, or a transient fault — the sender reconnects and a
// fresh accepted conn takes over). Frames whose op-id is not registered
// — stragglers resent from a completed or aborted collective, or frames
// with a corrupted op-id — are dropped after passing the sequence gate:
// they can be lost, never misrouted. Receive-side fault delays are
// applied per delivered frame out of the owning operation's injector,
// so one op's read stalls never bill another op's plan.
//
// A frame that fails to parse (or arrives bearing the wrong source
// rank) is wire-level corruption of an established stream: past it the
// reader cannot re-find a frame boundary, and a sender writing into the
// abandoned socket can lose one frame without ever seeing an error — a
// silently deaf pair no later operation could diagnose. That is exactly
// the unrecoverable case, so it fails the mesh rather than just this
// reader.
//
// Reading a pair's connections strictly in turn is what makes the
// sequence gate sound: frames still unread on an abandoned connection
// would otherwise be dropped as duplicates once the reconnected
// stream's later frames had been admitted.
func (l *tcpLink) serveConn(src, dst int, conn net.Conn, prev, done chan struct{}) {
	m := l.m
	defer m.wg.Done()
	defer close(done)
	defer conn.Close()
	if prev != nil {
		<-prev
	}
	tc := newReadTracker(conn, src, dst)
	l.trackMu.Lock()
	l.tracked[tc] = struct{}{}
	l.trackMu.Unlock()
	defer func() {
		l.trackMu.Lock()
		delete(l.tracked, tc)
		l.trackMu.Unlock()
	}()
	gate := l.gates[dst][src]
	for {
		tc.frameStart()
		fr, err := wire.ReadFrameStart(tc.br)
		if err != nil {
			if !connDied(err) {
				m.fail(fmt.Errorf("frame stream %d->%d corrupted: %v", src, dst, err))
			}
			return
		}
		if fr.Src != src {
			m.fail(fmt.Errorf("frame on the %d->%d stream claims src %d", src, dst, fr.Src))
			return
		}
		tc.frameDone()
		if !gate.admit(fr.Seq) {
			m.lm.dedupDrops.Inc()
			continue // duplicate of a frame resent over a newer conn
		}
		e, ok := m.reg.get(fr.Op)
		if !ok {
			m.lm.stragglers.Inc()
			continue // straggler from a retired operation: dropped
		}
		e.inj.Sleep(e.inj.ReadDelay(src, dst))
		e.deliver(src, dst, fr.Msg)
	}
}
