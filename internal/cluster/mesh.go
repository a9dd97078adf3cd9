package cluster

import (
	"errors"
	"fmt"
	"sync"

	"encag/internal/block"
	"encag/internal/sched"
	"encag/internal/seal"
	"encag/internal/wire"
)

// ErrMeshDown marks transport-level failures that leave a session's
// persistent mesh unrecoverable: send retry exhaustion on organic
// (non-injected) errors, listener death, or a sequence-gate desync
// caused by wire-level corruption. Operation-level failures — context
// cancellation, fault-plan verdicts, authentication rejections,
// algorithm panics, receive timeouts — do NOT wrap ErrMeshDown and do
// not break the session; only errors matching errors.Is(err, ErrMeshDown)
// poison it.
var ErrMeshDown = errors.New("cluster: transport mesh is down")

// opInbox is one rank's receive queue for one in-flight operation. The
// demux side (TCP connection readers, chan-link senders) pushes and
// must never block — the queue is unbounded, so a slow consumer in one
// operation cannot head-of-line-block frames belonging to another
// operation on the same connection. The single consumer (the rank's
// goroutine for this op) drains it and parks on the signal channel.
type opInbox struct {
	mu  sync.Mutex
	q   []envelope
	sig chan struct{} // cap 1: coalesced "new item" wakeup
}

func (b *opInbox) push(env envelope) {
	b.mu.Lock()
	b.q = append(b.q, env)
	b.mu.Unlock()
	select {
	case b.sig <- struct{}{}:
	default:
	}
}

// pop removes the oldest queued envelope, reporting false when empty.
func (b *opInbox) pop() (envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.q) == 0 {
		return envelope{}, false
	}
	env := b.q[0]
	b.q = b.q[1:]
	return env, true
}

// opRegistry maps live operation ids to their per-op engines: the demux
// routes each arriving message to the engine registered under its
// op-id and drops messages whose operation is no longer (or not yet)
// live — stragglers from completed or aborted collectives.
type opRegistry struct {
	mu    sync.RWMutex
	ops   map[uint32]*opEngine
	final *RankError // set by abortLive: later operations fail at once
}

func (r *opRegistry) register(id uint32, e *opEngine) {
	r.mu.Lock()
	r.ops[id] = e
	final := r.final
	r.mu.Unlock()
	if final != nil {
		e.failAsync(final)
	}
}

func (r *opRegistry) deregister(id uint32) {
	r.mu.Lock()
	delete(r.ops, id)
	r.mu.Unlock()
}

func (r *opRegistry) get(id uint32) (*opEngine, bool) {
	r.mu.RLock()
	e, ok := r.ops[id]
	r.mu.RUnlock()
	return e, ok
}

// link is the byte-moving half of a mesh. The chan link hands messages
// and segment bytes over in process; the TCP link puts them through the
// wire codec on loopback sockets. Everything above the bytes — the op
// registry, fair send scheduling, delivery order and receive-side
// assembly — is the mesh's and the op engine's, written once for both.
type link interface {
	// send carries one whole message of operation e from src to dst,
	// reporting whether it left src (false: lost to a fault, failed,
	// or dropped as a straggler).
	send(e *opEngine, src, dst int, msg block.Message) bool
	// sendSeg carries one sub-frame of a pipelined message, reporting
	// the same way.
	sendSeg(e *opEngine, src, dst int, sf wire.SegFrame) bool
	// diagnose reports transport damage a failed operation left behind
	// that no later operation could recover from; nil when healthy.
	diagnose() error
	// teardown closes the transport, unblocking the goroutines the link
	// runs. Idempotent.
	teardown()
}

// sendJob is one message awaiting its turn on a rank's send scheduler.
// A pipelined send carries a per-message send plan instead of a
// materialized message: the scheduler seals and ships one segment
// sub-frame at a time — interleaving the message's per-chunk streams
// with its inline chunks — overlapping crypto with transport.
type sendJob struct {
	op  *opEngine
	dst int
	msg block.Message

	plan *sendPlan // non-nil: stream the message's chunks
	sid  uint32    // per-operation stream id
}

// mesh is the persistent transport state of a chan or TCP session: the
// registry of in-flight operations, one fair send queue and one
// send-scheduler goroutine per rank, and the link that moves the bytes.
// Every message carries its operation's id; the receive side looks the
// id up at delivery time and drops messages of retired operations, so
// stragglers can be lost but never misrouted. Collectives come and go
// as per-operation engines, many of them concurrently; the mesh
// outlives them all until the session closes or the transport itself
// becomes unrecoverable (ErrMeshDown).
type mesh struct {
	spec Spec
	lm   *liveMetrics
	link link
	reg  *opRegistry
	// sendQ[src] is rank src's fair send queue: one stream per in-flight
	// operation, drained by a single scheduler goroutine per rank so
	// messages of concurrent operations interleave fairly on the shared
	// links while each directed pair keeps exactly one writer.
	sendQ []*sched.FairQueue[sendJob]
	// wg counts the send schedulers and the goroutines the link runs
	// (the TCP accept loops and connection readers).
	wg sync.WaitGroup

	errMu sync.Mutex
	err   error // ErrMeshDown-wrapped cause once the mesh is broken
}

// newMesh builds a mesh over the link attach sets up — attach installs
// the link before starting any goroutine of its own, and cleans up
// after itself on failure — then starts the per-rank send schedulers:
// the setup cost a session pays once.
func newMesh(spec Spec, lm *liveMetrics, attach func(*mesh) error) (*mesh, error) {
	m := &mesh{
		spec:  spec,
		lm:    lm,
		reg:   &opRegistry{ops: make(map[uint32]*opEngine)},
		sendQ: make([]*sched.FairQueue[sendJob], spec.P),
	}
	if err := attach(m); err != nil {
		return nil, err
	}
	for r := range m.sendQ {
		m.sendQ[r] = sched.NewFairQueue[sendJob]()
		m.wg.Add(1)
		go m.sendLoop(r)
	}
	return m, nil
}

// sendLoop is rank src's send scheduler: the single writer for all of
// src's outgoing traffic. It drains the rank's fair queue — round-robin
// across the streams of concurrent operations, FIFO within each — and
// ships each message through the link.
func (m *mesh) sendLoop(src int) {
	defer m.wg.Done()
	for {
		job, ok := m.sendQ[src].Pop()
		if !ok {
			return
		}
		e := job.op
		if e.isAborted() {
			continue // the op is unwinding: its queued messages are moot
		}
		if job.plan != nil {
			m.sendStream(src, job)
			continue
		}
		m.ship(e, src, job.dst, job.msg.WireLen(), func() bool { return m.link.send(e, src, job.dst, job.msg) })
	}
}

// ship hands one message or sub-frame of n bytes from src to the link
// through send. It is charged as sent first — a unit can be lost in
// transit, but never be received uncounted — and its send interval is
// traced when it went out.
func (m *mesh) ship(e *opEngine, src, dst int, n int64, send func() bool) {
	var start float64
	if e.wt.active() {
		start = e.wt.now()
	}
	m.lm.countSent(src, dst, n)
	if send() && e.wt.active() {
		e.wt.emit(src, TraceSend, start, n, dst)
	}
}

// sendStream ships one pipelined message as a run of sub-frames: each
// qualifying sealed chunk becomes a per-chunk segment stream — each
// segment sealed right before it goes to the link, so segment i travels
// while segment i+1 is still under AES-GCM and the receiver is already
// authenticating segment i-1 — and every other chunk ships whole as a
// single inline sub-frame of the same envelope sequence. The message's
// first sub-frame carries the total chunk count; each chunk's first
// sub-frame carries that chunk's metadata. A sub-frame the link loses
// leaves its slot unfilled: the message never completes, and the
// receiver's bounded recv deadline turns the loss into a structured
// error, exactly like a lost whole message.
func (m *mesh) sendStream(src int, job sendJob) {
	e := job.op
	m.lm.pipeMsgs.Inc()
	total := uint32(len(job.plan.chunks))
	emit := func(sf wire.SegFrame) {
		sf.MsgChunks, total = total, 0 // only the first sub-frame carries it
		m.ship(e, src, job.dst, int64(len(sf.Payload)), func() bool { return m.link.sendSeg(e, src, job.dst, sf) })
	}
	for ci, cs := range job.plan.chunks {
		if e.isAborted() {
			return
		}
		if cs.stream == nil {
			// Inline chunk: too small (or plaintext) to stream, shipped
			// whole inside the message's envelope sequence.
			c := cs.chunk
			m.lm.pipeInlineChunks.Inc()
			emit(wire.SegFrame{
				Stream: job.sid, Chunk: uint32(ci), Index: 0, Count: 1,
				Inline: true, Enc: c.Enc,
				Meta:    &wire.SegMeta{Tag: c.Tag, Blocks: c.Blocks},
				Payload: c.Payload,
			})
			continue
		}
		st := cs.stream
		k := st.K()
		m.lm.pipeStreams.Inc()
		for i := 0; i < k; i++ {
			if e.isAborted() {
				return
			}
			seg, err := st.Segment(i)
			if err != nil {
				e.failAsync(&RankError{Rank: src, Peer: job.dst, Op: "seal", Err: err})
				return
			}
			sf := wire.SegFrame{Stream: job.sid, Chunk: uint32(ci), Index: uint32(i), Count: uint32(k), Payload: seg}
			if i == 0 {
				// The chunk's first sub-frame carries everything the
				// receiver needs to set its per-chunk stream up: chunk
				// identity and the segmented framing header
				// (re-authenticated segment by segment).
				sf.Meta = &wire.SegMeta{Tag: cs.chunk.Tag, Blocks: cs.chunk.Blocks, Header: st.Header()}
			}
			m.lm.pipeSegmentsSent.Inc()
			emit(sf)
		}
	}
}

// segBody is the payload of one arriving sub-frame, still in transit
// while the receive side decides where it goes: the TCP link reads it
// off the connection, the chan link copies or hands over the sender's
// bytes.
type segBody interface {
	// fill lands the payload in p (exactly PayloadLen bytes) — a
	// receive stream's segment slot, so TCP reads straight into place.
	fill(e *opEngine, p []byte) error
	// take lands an inline chunk's payload in a buffer the chunk keeps.
	take(e *opEngine) ([]byte, error)
	// discard drops the payload of a sub-frame nobody will consume.
	discard() error
}

// recvSeg is the receive side of pipelining, shared by both links: it
// routes one sub-frame of operation op to its in-flight pipelined
// message (created from the first sub-frame's message metadata), then
// to the per-chunk receive stream the sub-frame's chunk index selects
// (created from that chunk's first-frame metadata), lands the payload
// in the stream's in-blob slot and hands the filled segment to the
// op-wide open window. Inline sub-frames carry a whole small chunk and
// are slotted into the message assembly directly. Protocol violations
// inside a well-formed sub-frame (unknown stream, out-of-range chunk,
// duplicate or mis-sized segment, malformed inline blob) fail the
// owning operation and discard the payload, leaving the link and the
// mesh's other operations alone; only a payload read failure (returned)
// is connection-fatal.
func (m *mesh) recvSeg(src, dst int, op uint32, sf wire.SegFrame, body segBody) error {
	e, ok := m.reg.get(op)
	if !ok {
		m.lm.stragglers.Inc()
		return body.discard()
	}
	fail := func(err error) { e.failAsync(&RankError{Rank: dst, Peer: src, Op: "recv", Err: err}) }
	violate := func(err error) error {
		fail(err)
		return body.discard()
	}
	key := streamKey{src: src, dst: dst, id: sf.Stream}
	mr := e.streams.get(key)
	if mr == nil {
		if sf.MsgChunks == 0 {
			// The message's state is gone — it failed earlier, or its
			// first sub-frame was lost to a fault. Its sub-frames are
			// stragglers: dropped, and the starved receive times out.
			m.lm.stragglers.Inc()
			return body.discard()
		}
		mr = e.newMsgRecv(src, dst, key, int(sf.MsgChunks))
	}
	if sf.Inline {
		if sf.Meta == nil {
			return violate(fmt.Errorf("inline chunk %d of stream %d has no metadata", sf.Chunk, sf.Stream))
		}
		payload, err := body.take(e)
		if err != nil {
			return err
		}
		m.lm.countRecv(src, dst, int64(sf.PayloadLen))
		c := block.Chunk{Enc: sf.Enc, Blocks: sf.Meta.Blocks, Tag: sf.Meta.Tag, Payload: payload}
		if c.Enc {
			if err = seal.CheckSegmented(payload); err != nil {
				err = fmt.Errorf("inline chunk %d of stream %d malformed: %w", sf.Chunk, sf.Stream, err)
			}
		} else if int64(len(payload)) != c.PlainLen() {
			err = fmt.Errorf("inline chunk %d of stream %d: payload %d bytes, header says %d",
				sf.Chunk, sf.Stream, len(payload), c.PlainLen())
		}
		if err == nil && !mr.setChunk(sf.Chunk, c) {
			err = fmt.Errorf("inline chunk %d of stream %d duplicated or out of range", sf.Chunk, sf.Stream)
		}
		if err != nil {
			fail(err)
		}
		return nil
	}
	sr := mr.chunkStream(sf.Chunk)
	if sr == nil {
		if sf.Meta == nil {
			// The chunk's stream state is gone or its metadata sub-frame
			// was lost: stragglers, same as an unknown message.
			m.lm.stragglers.Inc()
			return body.discard()
		}
		var err error
		if sr, err = e.newChunkStream(mr, sf); err != nil {
			return violate(err)
		}
	}
	if int(sf.Count) != sr.os.K() || sf.PayloadLen != sr.os.SegmentLen(int(sf.Index)) {
		return violate(fmt.Errorf("segment %d/%d of stream %d chunk %d malformed", sf.Index, sf.Count, sf.Stream, sf.Chunk))
	}
	if sr.markSeen(int(sf.Index)) {
		return violate(fmt.Errorf("segment %d of stream %d chunk %d duplicated", sf.Index, sf.Stream, sf.Chunk))
	}
	if err := body.fill(e, sr.os.SegmentSlot(int(sf.Index))); err != nil {
		return err
	}
	m.lm.countRecv(src, dst, int64(sf.PayloadLen))
	m.lm.pipeSegmentsRecv.Inc()
	sr.accept(int(sf.Index))
	return nil
}

// fail marks the mesh unrecoverable: it records the ErrMeshDown-wrapped
// cause, tears the link down, and aborts every in-flight operation with
// a mesh-level RankError. Operation-level failures never come here;
// only organic transport death (retry exhaustion on non-injected
// errors, listener loss) and wire-level stream corruption do.
func (m *mesh) fail(cause error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = fmt.Errorf("%w: %v", ErrMeshDown, cause)
	}
	err := m.err
	m.errMu.Unlock()
	m.link.teardown()
	m.abortLive("mesh", err)
}

// brokenErr returns the ErrMeshDown-wrapped cause once the mesh has
// failed, nil while it is healthy.
func (m *mesh) brokenErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// abortLive aborts every registered operation with a run-level
// RankError of the given op and cause (mesh failure, session close),
// and every later one too, so an operation admitted just before the
// close or failure cannot run on the dead mesh.
func (m *mesh) abortLive(op string, cause error) {
	re := &RankError{Rank: -1, Peer: -1, Op: op, Err: cause}
	m.reg.mu.Lock()
	m.reg.final = re
	live := make([]*opEngine, 0, len(m.reg.ops))
	for _, e := range m.reg.ops {
		live = append(live, e)
	}
	m.reg.mu.Unlock()
	for _, e := range live {
		e.failAsync(re)
	}
}

// close tears the link down, shuts the send schedulers down and waits
// for every goroutine the mesh and its link run.
func (m *mesh) close() {
	m.link.teardown()
	for _, q := range m.sendQ {
		if q != nil {
			q.Close()
		}
	}
	m.wg.Wait()
}

// appendOpID binds an operation id into AEAD associated data: all
// operations of a session share one key, so without this a frame whose
// op-id byte was corrupted on the wire could be demuxed to another live
// operation and still authenticate there. With the id under the AEAD,
// cross-operation delivery fails closed at Decrypt.
func appendOpID(h []byte, id uint32) []byte {
	out := make([]byte, 0, len(h)+4)
	out = append(out, h...)
	return append(out, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}
