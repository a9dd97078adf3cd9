package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"encag"
	"encag/internal/seal"
)

// agWorkload is a closed loop of Session.Allgather calls from one caller
// on a default-option EngineTCP session.
type agWorkload struct {
	alg          encag.Alg
	procs, nodes int
	block        int
	// sets is how many distinct seeded input sets the loop draws from.
	// Cycling a few sets keeps inputs varied while the end-of-run wire
	// scan stays cheap.
	sets int
}

var (
	// agSmall: 1 KB blocks sit far below the 64 KB segment size, so
	// crypto is inline and per-round transport latency dominates.
	agSmall = agWorkload{alg: encag.AlgHS2, procs: 8, nodes: 2, block: 1 << 10, sets: 16}
	// agLarge: 1 MB blocks are the paper's bandwidth regime: segmented
	// AES-GCM on the shared pool, bulk framing and copies dominate.
	agLarge = agWorkload{alg: encag.AlgCRing, procs: 8, nodes: 2, block: 1 << 20, sets: 4}
)

// setupReps is how many times a run opens the system and completes its
// first collective; setup_s is their median.
const setupReps = 11

// agOp is one timed Allgather call.
type agOp struct {
	ok            bool
	wall, elapsed float64 // µs
	use           usage   // CPU and allocations inside the call
}

// agPhase is what one timed closed-loop phase observed.
type agPhase struct {
	ops          []agOp // in call order
	dur          time.Duration
	failed       int
	rc           int
	inter, intra int
	snap0, snap1 encag.MetricsSnapshot
	pool0, pool1 seal.PoolStats
	crit         [len(kindTimes{})][]float64 // traced phases only
	metrics      *encag.Metrics
}

// okValues returns f of every successful op in ops[lo:hi].
func (ph *agPhase) okValues(lo, hi int, f func(*agOp) float64) []float64 {
	var xs []float64
	for i := lo; i < hi; i++ {
		if op := &ph.ops[i]; op.ok {
			xs = append(xs, f(op))
		}
	}
	return xs
}

func (ph *agPhase) ok() int { return len(ph.ops) - ph.failed }

func runAllgather(cfg runConfig, w agWorkload, rep *report) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	inputs := make([][][]byte, w.sets)
	for i := range inputs {
		inputs[i] = make([][]byte, w.procs)
		for r := range inputs[i] {
			inputs[i][r] = make([]byte, w.block)
			rng.Read(inputs[i][r])
		}
	}
	spec := encag.Spec{Procs: w.procs, Nodes: w.nodes}

	var sess *encag.Session
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		s, err := encag.OpenSession(ctx, spec, encag.WithEngine(encag.EngineTCP))
		if err != nil {
			return err
		}
		sess = s
		res, err := sess.Allgather(ctx, w.alg, inputs[0])
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			sess.Close()
			return fmt.Errorf("first collective: %w", err)
		}
		if err := checkGather(res, inputs[0]); err != nil {
			rep.problem("setup collective: %v", err)
		}
	}
	defer sess.Close()
	rep.e2e["setup_s"] = median(setups)

	snap := sess.Snapshot()
	sh := floorShape{frameBytes: int(ratio(float64(snap.BytesSent), float64(snap.FramesSent))), blocks: []int{w.block}}
	if err := measureFloors(sh, rng, rep); err != nil {
		return err
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var spans *spanLog
	if cfg.trace {
		dur /= 2
		spans = newSpanLog()
	}
	plain := agLoop(ctx, sess, w, inputs, rng, dur, nil, rep)
	rep.attempted, rep.failed = len(plain.ops), plain.failed
	var traced *agPhase
	if cfg.trace {
		traced = agLoop(ctx, sess, w, inputs, rng, dur, spans, rep)
		rep.attempted += len(traced.ops)
		rep.failed += traced.failed
	}

	wire := sess.Wire()
	var blocks [][]byte
	for _, in := range inputs {
		blocks = append(blocks, in...)
	}
	if err := checkWire(wire, blocks); err != nil {
		rep.problem("%v", err)
	}
	if wire != nil {
		rep.note("wire.inter_node_bytes", "B", float64(wire.Bytes))
		if wire.Truncated {
			rep.notes = append(rep.notes, "wire capture truncated: the plaintext scan covered its first bytes only")
		}
	}
	if plain.metrics != nil {
		if err := checkSim(spec, w.alg, int64(w.block), *plain.metrics); err != nil {
			rep.problem("%v", err)
		}
	}

	agEndToEnd(setups, plain, w, rep)
	agLayers(plain, rep)
	if traced != nil {
		for k, name := range kindMetrics {
			rep.layer[name] = median(traced.crit[k])
		}
		for name, v := range spans.selfTimes() {
			rep.note("self."+name+"_us", "us", v)
		}
		wall := func(op *agOp) float64 { return op.wall }
		rep.note("trace.overhead_us", "us", median(traced.okValues(0, len(traced.ops), wall))-median(plain.okValues(0, len(plain.ops), wall)))
		rep.note("samples.ops_traced", "count", float64(traced.ok()))
		if err := spans.write(spanPath(cfg)); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.notes = append(rep.notes, "spans written to "+spanPath(cfg))
	}
	return nil
}

// agLoop runs the closed loop for dur. Only the Allgather call is timed;
// verification runs between calls.
func agLoop(ctx context.Context, sess *encag.Session, w agWorkload, inputs [][][]byte, rng *rand.Rand, dur time.Duration, spans *spanLog, rep *report) *agPhase {
	ph := &agPhase{dur: dur, snap0: sess.Snapshot(), pool0: seal.SharedPool().Stats()}
	ur := newUsageReader()
	for end := time.Now().Add(dur); time.Now().Before(end); {
		in := inputs[rng.Intn(len(inputs))]
		var col *encag.TraceCollector
		var opts []encag.Option
		if spans != nil {
			col = &encag.TraceCollector{}
			opts = append(opts, encag.WithTracer(col))
		}
		u0 := ur.read()
		t0 := time.Now()
		res, err := sess.Allgather(ctx, w.alg, in, opts...)
		t1 := time.Now()
		u1 := ur.read()

		ph.ops = append(ph.ops, agOp{wall: us(t1.Sub(t0)), use: u1.sub(u0)})
		op := &ph.ops[len(ph.ops)-1]
		if err == nil {
			err = checkGather(res, in)
		}
		if err == nil && ph.metrics != nil && res.Metrics != *ph.metrics {
			err = fmt.Errorf("six metrics changed between ops: %+v then %+v", *ph.metrics, res.Metrics)
		}
		if err != nil {
			ph.failed++
			rep.problem("allgather: %v", err)
			continue
		}
		if ph.metrics == nil {
			m := res.Metrics
			ph.metrics = &m
			ph.rc = m.Rc
		}
		op.ok, op.elapsed = true, us(res.Elapsed)
		ph.inter += res.InterMessages
		ph.intra += res.IntraMessages
		if spans != nil {
			req := int64(len(ph.ops))
			root := spans.add(0, "allgather", req, res.OpID, t0, t1)
			collStart := t1.Add(-res.Elapsed)
			coll := spans.add(root, "collective", req, res.OpID, collStart, t1)
			spans.attach(coll, req, res.OpID, collStart, col.Events)
			spans.add(0, "verify", req, res.OpID, t1, time.Now())
			kt := criticalTimes(col.Events)
			for k := range kt {
				ph.crit[k] = append(ph.crit[k], kt[k])
			}
		}
	}
	ph.snap1, ph.pool1 = sess.Snapshot(), seal.SharedPool().Stats()
	return ph
}

func agEndToEnd(setups []float64, ph *agPhase, w agWorkload, rep *report) {
	n := len(ph.ops)
	wall := func(op *agOp) float64 { return op.wall }
	quant := func(q float64) float64 {
		return windowMedian(n, windowsIn(ph.dur), func(lo, hi int) float64 { return quantiles(ph.okValues(lo, hi, wall), q)[0] })
	}
	// Rates are over the timed region only: the summed call time, not
	// the verification between calls.
	rate := windowMedian(n, windowsIn(ph.dur), func(lo, hi int) float64 {
		var busy float64
		for _, v := range ph.okValues(lo, hi, wall) {
			busy += v
		}
		return ratio(float64(len(ph.okValues(lo, hi, wall))), busy/1e6)
	})
	perOp := func(f func(u usage) float64) float64 {
		return windowMedian(n, windowsIn(ph.dur), func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				sum += f(ph.ops[i].use)
			}
			return ratio(sum, float64(hi-lo))
		})
	}
	rep.e2e["op_p50_us"] = quant(0.5)
	rep.e2e["op_p90_us"] = quant(0.9)
	rep.e2e["ops_per_s"] = rate
	// One closed-loop caller offers exactly the load the system can
	// complete, so its completion rate is this workload's highest rate.
	rep.e2e["max_rate_ops_s"] = rate
	rep.e2e["goodput_MBps"] = rate * float64(w.procs*w.block) / 1e6
	rep.e2e["ok_ratio"] = ratio(float64(ph.ok()), float64(n))
	rep.e2e["cpu_us_per_op"] = perOp(func(u usage) float64 { return us(u.cpu) })
	rep.e2e["allocs_per_op"] = perOp(func(u usage) float64 { return float64(u.allocs) })
	rep.e2e["alloc_kb_per_op"] = perOp(func(u usage) float64 { return float64(u.bytes) / 1024 })
	var use usage
	for _, op := range ph.ops {
		use = use.add(op.use)
	}
	rep.note("gc_cycles_per_kop", "count", ratio(float64(use.gcs)*1000, float64(n)))
	all := summarize(ph.okValues(0, n, wall))
	rep.note("op_p99_us", "us", all.P99)
	rep.note("fail_ratio", "ratio", ratio(float64(ph.failed), float64(n)))
	rep.note("samples.ops", "count", float64(all.N))
	rep.note("samples.windows", "count", float64(min(n, windowsIn(ph.dur))))
	rep.note("samples.setups", "count", float64(len(setups)))
	rep.note("setup_max_s", "s", quantiles(setups, 1)[0])
}

// agLayers fills the per-layer metrics an untraced phase measures:
// Elapsed-based timings and counter deltas per successful op.
func agLayers(ph *agPhase, rep *report) {
	ok := float64(ph.ok())
	per := func(d int64) float64 { return ratio(float64(d), ok) }
	n := len(ph.ops)
	coll := median(ph.okValues(0, n, func(op *agOp) float64 { return op.elapsed }))
	rep.layer["encag.api_overhead_us"] = median(ph.okValues(0, n, func(op *agOp) float64 { return op.wall - op.elapsed }))
	rep.layer["cluster.collective_us"] = coll
	rep.layer["cluster.hop_us"] = ratio(coll, float64(ph.rc))
	rep.layer["cluster.hop_floor_ratio"] = ratio(rep.layer["cluster.hop_us"], rep.layer["floor.loopback_hop_us"])
	rep.layer["cluster.frames_per_op"] = per(ph.snap1.FramesSent - ph.snap0.FramesSent)
	rep.layer["cluster.wire_bytes_per_op"] = per(ph.snap1.BytesSent - ph.snap0.BytesSent)
	rep.layer["cluster.inter_msgs_per_op"] = per(int64(ph.inter))
	rep.layer["cluster.intra_msgs_per_op"] = per(int64(ph.intra))
	if m := ph.metrics; m != nil {
		for i, v := range sixValues(*m) {
			rep.layer[sixNames[i]] = v
		}
	}
	rep.layer["seal.segments_sealed_per_op"] = per(ph.snap1.SegmentsSealed - ph.snap0.SegmentsSealed)
	rep.layer["seal.segments_opened_per_op"] = per(ph.snap1.SegmentsOpened - ph.snap0.SegmentsOpened)
	poolLayers(ph.pool0, ph.pool1, ok, rep)
	for _, name := range kindMetrics {
		rep.layer[name] = 0 // replaced by the traced phase
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") {
			rep.layer[d.name] = 0 // no admission layer on this path
		}
	}
}

// sixNames are the per-layer names of the paper's six metrics, in the
// order sixValues returns them.
var sixNames = [6]string{"encrypted.rc", "encrypted.sc_bytes", "encrypted.re", "encrypted.se_bytes", "encrypted.rd", "encrypted.sd_bytes"}

func sixValues(m encag.Metrics) [6]float64 {
	return [6]float64{float64(m.Rc), float64(m.Sc), float64(m.Re), float64(m.Se), float64(m.Rd), float64(m.Sd)}
}

func poolLayers(p0, p1 seal.PoolStats, ok float64, rep *report) {
	disp := float64(p1.Dispatched - p0.Dispatched)
	sat := float64(p1.Saturated - p0.Saturated)
	rep.layer["seal.pool_dispatched_per_op"] = ratio(disp, ok)
	rep.layer["seal.pool_saturated_per_op"] = ratio(sat, ok)
	rep.layer["seal.pool_useful_ratio"] = ratio(disp, disp+sat)
}
