package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/seal"
)

// Algorithm is an all-gather implementation: given a rank handle and the
// rank's own contribution, it returns the gathered result (all p blocks,
// fully decrypted).
type Algorithm func(p *Proc, mine block.Message) block.Message

// SecurityAudit records what the transport observed, so tests can prove
// the paper's security property: plaintext never crosses a node boundary.
type SecurityAudit struct {
	mu                 sync.Mutex
	InterMsgs          int
	IntraMsgs          int
	PlaintextInterMsgs int
	Violations         []string
}

func (a *SecurityAudit) record(spec Spec, src, dst int, msg block.Message) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if spec.SameNode(src, dst) {
		a.IntraMsgs++
		return
	}
	a.InterMsgs++
	for _, c := range msg.Chunks {
		if !c.Enc && c.PlainLen() > 0 {
			a.PlaintextInterMsgs++
			if len(a.Violations) < 32 {
				a.Violations = append(a.Violations,
					fmt.Sprintf("plaintext chunk (%d bytes) sent %d -> %d across nodes", c.PlainLen(), src, dst))
			}
			break
		}
	}
}

// Clean reports whether no plaintext crossed node boundaries.
func (a *SecurityAudit) Clean() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.PlaintextInterMsgs == 0
}

// envelope is one delivered message in a rank's inbox. seq is the
// message's delivery-order number within its (operation, src->dst)
// pair, reserved at delivery (TCP: frame admission; chan: the send
// scheduler's hand-over, also for a message the fault plan drops), so
// recvFrom consumes each pair's messages in reserved order and a lost
// message starves its own receive instead of yielding the next one.
type envelope struct {
	src int
	seq uint64
	msg block.Message
}

// Adversary intercepts inter-node messages, modelling the paper's
// threat: a network attacker who can observe and modify traffic between
// nodes. It returns the (possibly tampered) message to deliver.
// Intra-node messages never pass through it — they never leave the
// trusted node.
type Adversary func(src, dst int, msg block.Message) block.Message

// opEngine is the per-collective execution state layered over a
// persistent mesh, whichever link carries its bytes: fresh unbounded
// inboxes, pending buffers, shared memory, barriers, audit, fault
// injector and failure state for one collective, keyed by the operation
// id every message carries. Many opEngines run concurrently over one
// mesh; aborting one leaves the mesh and its sibling operations
// untouched.
type opEngine struct {
	spec      Spec
	slr       *seal.Sealer
	mesh      *mesh
	id        uint32
	adversary Adversary
	inj       *fault.Injector
	recvTO    time.Duration
	inboxes   []*opInbox                   // one unbounded inbox per rank
	pend      [][]map[uint64]block.Message // [rank][src] out-of-order arrivals by delivery seq
	next      [][]uint64                   // [rank][src] next delivery seq expected
	shmMu     sync.RWMutex
	shm       []map[string]block.Message // per-node shared memory
	bars      []*realBarrier
	audit     *SecurityAudit
	wt        wallTrace // wall-clock tracing; inert unless a tracer is set
	fails     failState
	aborted   chan struct{} // closed when any rank fails: unblocks peers
	abortOnce sync.Once
	arrSeq    []atomic.Uint64 // [src*P+dst] next delivery seq to reserve
}

// newOp builds the engine for one collective — over a (possibly
// session-shared) sealer — and registers it as a live operation, making
// its op-id routable by the mesh.
func (m *mesh) newOp(id uint32, slr *seal.Sealer, adv Adversary, inj *fault.Injector, recvTO time.Duration, tracer Tracer) *opEngine {
	spec := m.spec
	e := &opEngine{
		spec:      spec,
		slr:       slr,
		mesh:      m,
		id:        id,
		adversary: adv,
		inj:       inj,
		recvTO:    recvTO,
		inboxes:   make([]*opInbox, spec.P),
		pend:      make([][]map[uint64]block.Message, spec.P),
		next:      make([][]uint64, spec.P),
		shm:       make([]map[string]block.Message, spec.N),
		bars:      make([]*realBarrier, spec.N),
		audit:     &SecurityAudit{},
		wt:        wallTrace{tracer: tracer, op: id},
		aborted:   make(chan struct{}),
		arrSeq:    make([]atomic.Uint64, spec.P*spec.P),
	}
	for r := 0; r < spec.P; r++ {
		e.inboxes[r] = &opInbox{sig: make(chan struct{}, 1)}
		e.pend[r] = make([]map[uint64]block.Message, spec.P)
		e.next[r] = make([]uint64, spec.P)
	}
	for n := 0; n < spec.N; n++ {
		e.shm[n] = make(map[string]block.Message)
		e.bars[n] = newRealBarrier(spec.Ell())
	}
	m.reg.register(id, e)
	return e
}

// nextEnvSeq reserves the next delivery-order number of the src->dst
// pair within this operation.
func (e *opEngine) nextEnvSeq(src, dst int) uint64 {
	return e.arrSeq[src*e.spec.P+dst].Add(1) - 1
}

// deliver lands one whole message from src in dst's inbox at the
// pair's next delivery number.
func (e *opEngine) deliver(src, dst int, msg block.Message) {
	e.mesh.lm.countRecv(src, dst, msg.WireLen())
	e.inboxes[dst].push(envelope{src: src, seq: e.nextEnvSeq(src, dst), msg: msg})
}

// errRunAborted marks the secondary panics of ranks unblocked by abort;
// Session.Collective reports the primary failure instead of these.
const errRunAborted = "cluster: run aborted by failure on another rank"

// abort unwinds this operation only: ranks blocked in receives,
// barriers and send backoffs observe it and drain. The mesh — and any
// sibling operation in flight on it — is untouched; messages of this op
// still queued or in transit are dropped by the send scheduler and the
// demux.
func (e *opEngine) abort() {
	e.abortOnce.Do(func() {
		close(e.aborted)
		for _, b := range e.bars {
			b.abort()
		}
	})
}

func (e *opEngine) isAborted() bool {
	select {
	case <-e.aborted:
		return true
	default:
		return false
	}
}

// fail records the run's first root-cause error, unblocks every other
// rank of this operation, and unwinds this one. Called on rank
// goroutines only (it panics); other goroutines use failAsync.
func (e *opEngine) fail(re *RankError) {
	e.fails.record(re)
	e.abort()
	panic(re)
}

// failAsync is fail for non-rank goroutines (send scheduler, demux,
// session close): record the root cause and abort, without a panic.
func (e *opEngine) failAsync(re *RankError) {
	e.fails.record(re)
	e.abort()
}

type realBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	dead    bool
}

func (b *realBarrier) abort() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func newRealBarrier(n int) *realBarrier {
	b := &realBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *realBarrier) await() {
	b.mu.Lock()
	if b.dead {
		b.mu.Unlock()
		panic(errRunAborted)
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for b.gen == gen && !b.dead {
			b.cond.Wait()
		}
	}
	dead := b.dead
	b.mu.Unlock()
	if dead {
		panic(errRunAborted)
	}
}

type sendReq struct{}
type recvReq struct{ src int }

func (sendReq) isRequest() {}
func (recvReq) isRequest() {}

// isend enqueues the message on the rank's send scheduler and returns
// immediately — sends of concurrent operations interleave fairly on the
// shared links, and a blocked link never stalls the rank goroutine. The
// scheduler applies this operation's fault verdicts in the rank's
// program order per pair, keeping plans deterministic.
func (e *opEngine) isend(p *Proc, dst int, msg block.Message) Request {
	e.audit.record(e.spec, p.rank, dst, msg)
	if e.adversary != nil && !e.spec.SameNode(p.rank, dst) {
		msg = e.adversary(p.rank, dst, msg)
	}
	if e.isAborted() {
		panic(errRunAborted)
	}
	e.mesh.sendQ[p.rank].Push(e.id, sendJob{op: e, dst: dst, msg: msg})
	return sendReq{}
}

func (e *opEngine) irecv(p *Proc, src int) Request {
	return recvReq{src: src}
}

func (e *opEngine) wait(p *Proc, reqs []Request) []block.Message {
	out := make([]block.Message, len(reqs))
	for i, r := range reqs {
		rr, ok := r.(recvReq)
		if !ok {
			continue // sends are already enqueued
		}
		var start float64
		if e.wt.active() {
			start = e.wt.now()
		}
		out[i] = e.recvFrom(p.rank, rr.src)
		if e.wt.active() {
			e.wt.emit(p.rank, TraceRecv, start, out[i].WireLen(), rr.src)
		}
	}
	return out
}

// recvFrom returns the next message from src to rank, buffering messages
// from other sources (or later deliveries from src) that arrive in
// between. Deliveries of each directed pair are consumed strictly in
// their reserved order. The wait is bounded by the recv deadline: a
// message that never arrives (lost to a fault, peer death) surfaces as
// a structured recv error instead of a deadlock.
func (e *opEngine) recvFrom(rank, src int) block.Message {
	pend := e.pend[rank]
	next := e.next[rank]
	box := e.inboxes[rank]
	deadline := time.NewTimer(e.recvTO)
	defer deadline.Stop()
	for {
		if msg, ok := pend[src][next[src]]; ok {
			delete(pend[src], next[src])
			next[src]++
			return msg
		}
		if env, ok := box.pop(); ok {
			if env.src == src && env.seq == next[src] {
				next[src]++
				return env.msg
			}
			if pend[env.src] == nil {
				pend[env.src] = make(map[uint64]block.Message)
			}
			pend[env.src][env.seq] = env.msg
			continue
		}
		select {
		case <-box.sig:
		case <-e.aborted:
			panic(errRunAborted)
		case <-deadline.C:
			e.mesh.lm.recvTimeouts.Inc()
			e.fail(&RankError{Rank: rank, Peer: src, Op: "recv",
				Err: fmt.Errorf("no message within %v", e.recvTO)})
		}
	}
}

func (e *opEngine) span(p *Proc, kind TraceKind, n int64) func() {
	return e.wt.span(p.rank, kind, n)
}

func (e *opEngine) shmPut(p *Proc, key string, msg block.Message) {
	e.shmMu.Lock()
	e.shm[p.Node()][key] = msg
	e.shmMu.Unlock()
}

func (e *opEngine) shmGet(p *Proc, key string) (block.Message, bool) {
	e.shmMu.RLock()
	msg, ok := e.shm[p.Node()][key]
	e.shmMu.RUnlock()
	return msg, ok
}

func (e *opEngine) nodeBarrier(p *Proc) {
	if !e.wt.active() {
		e.bars[p.Node()].await()
		return
	}
	start := e.wt.now()
	e.bars[p.Node()].await()
	e.wt.emit(p.rank, TraceBarrier, start, 0, -1)
}

func (e *opEngine) sealer() *seal.Sealer { return e.slr }

// aad binds this operation's id into the AEAD associated data (see
// appendOpID): concurrent operations share the session key, so the id
// keeps their ciphertexts from authenticating across operations — a
// frame whose op-id was corrupted on the wire into another live
// operation's id fails closed there instead of being accepted.
func (e *opEngine) aad(h []byte) []byte { return appendOpID(h, e.id) }

// RealResult is the outcome of one collective on a chan or tcp session.
type RealResult struct {
	Results  []block.Message // per-rank gathered result
	PerRank  []Metrics
	Critical Critical
	Audit    *SecurityAudit
	Sealer   *seal.Sealer
	Elapsed  time.Duration
	// OpID is the session-unique operation id the collective's frames
	// carried; ids start at 1, so 0 means "no id" (zero-valued result).
	OpID uint32
}

// DefaultRecvTimeout bounds a single receive wait when Spec.RecvTimeout
// is zero: a rank stuck waiting for a message that will never arrive
// (lost to a fault, or a peer that died) surfaces a structured recv
// error instead of deadlocking until the run-level timeout.
const DefaultRecvTimeout = 30 * time.Second

// RealTimeout bounds one collective's wall-clock execution; a
// deadlocked algorithm surfaces as an error instead of a hung caller.
var RealTimeout = 60 * time.Second

// ValidateGather checks that every rank's result is a complete, correctly
// ordered, fully decrypted all-gather of p blocks of msgSize bytes, with
// payload pattern verification in real mode.
func ValidateGather(spec Spec, msgSize int64, results []block.Message, checkPayload bool) error {
	if len(results) != spec.P {
		return fmt.Errorf("cluster: %d results for %d ranks", len(results), spec.P)
	}
	for r, msg := range results {
		if _, err := block.Normalize(msg, spec.P, msgSize, checkPayload); err != nil {
			return fmt.Errorf("cluster: rank %d result invalid: %w", r, err)
		}
	}
	return nil
}

// ValidateGatherV is ValidateGather for variable block sizes.
func ValidateGatherV(spec Spec, sizes []int64, results []block.Message, checkPayload bool) error {
	if len(results) != spec.P {
		return fmt.Errorf("cluster: %d results for %d ranks", len(results), spec.P)
	}
	for r, msg := range results {
		if _, err := block.NormalizeV(msg, sizes, checkPayload); err != nil {
			return fmt.Errorf("cluster: rank %d result invalid: %w", r, err)
		}
	}
	return nil
}
