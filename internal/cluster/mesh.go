package cluster

import (
	"errors"
	"fmt"
	"sync"

	"encag/internal/block"
	"encag/internal/sched"
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
// over in process; the TCP link puts them through the wire codec on
// loopback sockets. Everything above the bytes — the op registry, fair
// send scheduling and delivery order — is the mesh's and the op
// engine's, written once for both.
type link interface {
	// send carries one whole message of operation e from src to dst,
	// reporting whether it left src (false: lost to a fault, failed,
	// or dropped as a straggler).
	send(e *opEngine, src, dst int, msg block.Message) bool
	// diagnose reports transport damage a failed operation left behind
	// that no later operation could recover from; nil when healthy.
	diagnose() error
	// teardown closes the transport, unblocking the goroutines the link
	// runs. Idempotent.
	teardown()
}

// sendJob is one message awaiting its turn on a rank's send scheduler.
type sendJob struct {
	op  *opEngine
	dst int
	msg block.Message
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
		m.ship(e, src, job.dst, job.msg)
	}
}

// ship hands one message from src to the link. It is charged as sent
// first — a message can be lost in transit, but never be received
// uncounted — and its send interval is traced when it went out.
func (m *mesh) ship(e *opEngine, src, dst int, msg block.Message) {
	var start float64
	if e.wt.active() {
		start = e.wt.now()
	}
	n := msg.WireLen()
	m.lm.countSent(src, dst, n)
	if m.link.send(e, src, dst, msg) && e.wt.active() {
		e.wt.emit(src, TraceSend, start, n, dst)
	}
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
