package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encag"
	"encag/internal/block"
	"encag/internal/serve"
)

// The serve-mixed workload: an in-process serve.Manager with default
// admission and serveTenants chan-engine tenants (p=4, N=2) under a
// seeded mix of Step-shaped all-gathers and XOR all-reduces.
const (
	serveTenants = 8
	serveProcs   = 4
	serveNodes   = 2
	// stepShare of requests are Manager.Step-shaped all-gathers (o-ring
	// through Session.Run); the rest are XOR all-reduces.
	stepShare = 0.75
	// reduceSets is how many seeded all-reduce input sets each size has.
	reduceSets = 4
	// probeRate is the open-loop rate a traced run offers to measure
	// generator lateness, queue depth and refusals.
	probeRate = 500.0
	// latencyLimit and failLimit define a sustainable ladder rung.
	latencyLimit = 5 * time.Millisecond
	failLimit    = 0.001
	// lateGrowthLimit is how much the generator's median lateness may
	// rise from a rung's first third to its last before the rung counts
	// as building a backlog.
	lateGrowthLimit = time.Millisecond
)

// serveSizes are the request sizes, drawn uniformly.
var serveSizes = []int{4 << 10, 16 << 10, 64 << 10}

// ladderRates are the fixed offered rates around the knee at which the
// ladder reports p90 latency, refusals and generator lateness.
var ladderRates = []float64{300, 500, 700, 900, 1100}

// arrival is one request of the mix.
type arrival struct {
	at     time.Duration // open loop: due time since the phase began
	tenant int
	reduce bool
	size   int // index into serveSizes
	set    int // all-reduce input set
}

// draw picks a request's tenant, kind, size and input set.
func draw(rng *rand.Rand) arrival {
	return arrival{
		tenant: rng.Intn(serveTenants),
		reduce: rng.Float64() >= stepShare,
		size:   rng.Intn(len(serveSizes)),
		set:    rng.Intn(reduceSets),
	}
}

// schedule draws a Poisson arrival process at rate per second for dur,
// every request and gap from the seed.
func schedule(seed int64, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		a := draw(rng)
		a.at = t
		out = append(out, a)
	}
}

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

// serveRun holds a run's manager and its precomputed references.
type serveRun struct {
	mgr       *serve.Manager
	patterns  [][][]byte   // [size][origin] FillPattern, Session.Run's payloads
	reduceIn  [][][][]byte // [size][set][rank]
	reduceRef [][][]byte   // [size][set] XOR of the set
}

// opRecord is one request's outcome. Latency runs from the request's
// due time (open loop) or its call (closed loop) to Manager.Do
// returning.
type opRecord struct {
	arrival
	due                  time.Time
	late, latency        time.Duration
	admit, step, release time.Duration
	elapsed              time.Duration
	rejected             string // RejectionError.Reason, "" when admitted
	err                  error  // failure or verification mismatch
	metrics              encag.Metrics
	inter, intra         int
	crit                 kindTimes
}

func (r *opRecord) ok() bool { return r.rejected == "" && r.err == nil }

// servePhase is what one phase observed.
type servePhase struct {
	recs  []opRecord // by due time
	start time.Time
	wall  time.Duration // phase start to last completion
	// marks[k] is the process usage at the start of time window k; the
	// last mark is taken after the phase drained.
	marks        []usage
	window       time.Duration
	snap0, snap1 serve.Snapshot
	queueMax     int
}

func (ph *servePhase) count() (ok, rejected, failed int) {
	for i := range ph.recs {
		switch r := &ph.recs[i]; {
		case r.rejected != "":
			rejected++
		case r.err != nil:
			failed++
		default:
			ok++
		}
	}
	return
}

func newServeRun(seed int64) *serveRun {
	rng := rand.New(rand.NewSource(seed))
	sv := &serveRun{}
	for _, m := range serveSizes {
		pat := make([][]byte, serveProcs)
		for o := range pat {
			pat[o] = block.FillPattern(o, int64(m))
		}
		sv.patterns = append(sv.patterns, pat)
		var in [][][]byte
		var ref [][]byte
		for s := 0; s < reduceSets; s++ {
			set := make([][]byte, serveProcs)
			for r := range set {
				set[r] = make([]byte, m)
				rng.Read(set[r])
			}
			in = append(in, set)
			ref = append(ref, xorReference(set))
		}
		sv.reduceIn = append(sv.reduceIn, in)
		sv.reduceRef = append(sv.reduceRef, ref)
	}
	return sv
}

func runServe(cfg runConfig, rep *report) error {
	ctx := context.Background()
	sv := newServeRun(cfg.seed)
	spec := encag.Spec{Procs: serveProcs, Nodes: serveNodes}

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if sv.mgr != nil {
			sv.mgr.Close()
		}
		t0 := time.Now()
		mgr, err := serve.Open(serve.Config{Spec: spec})
		if err != nil {
			return err
		}
		sv.mgr = mgr
		for t := 0; t < serveTenants; t++ {
			res, err := mgr.Step(ctx, tenantID(t), encag.AlgORing, int64(serveSizes[0]))
			if err != nil {
				mgr.Close()
				return fmt.Errorf("first step of %s: %w", tenantID(t), err)
			}
			if err := checkGather(res, sv.patterns[0]); err != nil {
				rep.problem("setup step: %v", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sv.mgr.Close()
	rep.e2e["setup_s"] = median(setups)
	rep.note("samples.setups", "count", float64(len(setups)))

	frames, bytes := tenantFrames(sv.mgr.Snapshot())
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := measureFloors(floorShape{frameBytes: int(ratio(float64(bytes), float64(frames))), blocks: serveSizes}, rng, rep); err != nil {
		return err
	}

	secs := func(share float64) time.Duration { return time.Duration(cfg.seconds * share * float64(time.Second)) }
	var phases []*servePhase
	account := func(ph *servePhase) *servePhase {
		// Refusals are how an open loop past the knee sheds load; they
		// decide the ladder, not correctness. A failed or wrong answer
		// counts as failed everywhere.
		_, _, failed := ph.count()
		rep.attempted += len(ph.recs)
		rep.failed += failed
		phases = append(phases, ph)
		return ph
	}
	if cfg.trace {
		// Untraced then traced closed loops over the same request
		// sequence: the first gives the per-layer timings, the second
		// the spans, and their difference the tracing overhead. A short
		// open loop then measures the generator, queue depth and
		// refusals.
		closed := account(sv.closedLoop(ctx, cfg.seed, secs(0.4), true, nil))
		spans := newSpanLog()
		traced := account(sv.closedLoop(ctx, cfg.seed, secs(0.4), true, spans))
		probe := account(sv.openLoop(ctx, cfg.seed+2, probeRate, secs(0.2), true))
		serveLayers(closed, probe, rep)
		for k, name := range kindMetrics {
			var xs []float64
			for _, r := range traced.recs {
				if r.ok() {
					xs = append(xs, r.crit[k])
				}
			}
			rep.layer[name] = median(xs)
		}
		for name, v := range spans.selfTimes() {
			rep.note("self."+name+"_us", "us", v)
		}
		rep.note("trace.overhead_us", "us", latencies(traced).P50-latencies(closed).P50)
		if err := spans.write(spanPath(cfg)); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.notes = append(rep.notes, "spans written to "+spanPath(cfg))
	} else {
		closed := account(sv.closedLoop(ctx, cfg.seed, secs(0.75), false, nil))
		serveEndToEnd(closed, rep)
		var rungs []rung
		for i, rate := range ladderRates {
			ph := account(sv.openLoop(ctx, cfg.seed+int64(10+i), rate, secs(0.25)/time.Duration(len(ladderRates)), false))
			rg := ph.rung(rate)
			rungs = append(rungs, rg)
			rep.note(fmt.Sprintf("ladder.%04.0f.p90_us", rate), "us", rg.p90us)
			rep.note(fmt.Sprintf("ladder.%04.0f.fail_ratio", rate), "ratio", rg.failRatio)
			rep.note(fmt.Sprintf("ladder.%04.0f.late_growth_ms", rate), "ms", rg.lateGrowthMs)
		}
		rep.note("ladder.max_rate_ops_s", "1/s", maxRate(rungs))
	}

	for _, ph := range phases {
		for i := range ph.recs {
			if r := &ph.recs[i]; r.err != nil {
				rep.problem("%s %s: %v", tenantID(r.tenant), opName(r.arrival), r.err)
			}
		}
	}
	if err := checkServeMetrics(spec, phases); err != nil {
		rep.problem("%v", err)
	}
	return nil
}

func opName(a arrival) string {
	if a.reduce {
		return fmt.Sprintf("allreduce %dB", serveSizes[a.size])
	}
	return fmt.Sprintf("step %dB", serveSizes[a.size])
}

// measure runs a phase body for about dur while a marker goroutine reads
// process usage at each window boundary, and, with sample set, a sampler
// tracks the manager's deepest admission queue.
func (sv *serveRun) measure(dur time.Duration, sample bool, body func(ph *servePhase)) *servePhase {
	ph := &servePhase{window: min(windowLength, dur), snap0: sv.mgr.Snapshot()}
	windows := windowsIn(dur)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	ur := newUsageReader()
	ph.marks = append(ph.marks, ur.read())
	ph.start = time.Now()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(ph.window)
		defer tick.Stop()
		var sampleC <-chan time.Time // nil, never ready, unless sampling
		if sample {
			st := time.NewTicker(5 * time.Millisecond)
			defer st.Stop()
			sampleC = st.C
		}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if len(ph.marks) < windows {
					ph.marks = append(ph.marks, ur.read())
				}
			case <-sampleC:
				if d := sv.mgr.Snapshot().QueueDepth; d > ph.queueMax {
					ph.queueMax = d
				}
			}
		}
	}()
	body(ph)
	ph.wall = time.Since(ph.start)
	close(stop)
	wg.Wait()
	ph.marks = append(ph.marks, ur.read())
	ph.snap1 = sv.mgr.Snapshot()
	sort.SliceStable(ph.recs, func(i, j int) bool { return ph.recs[i].due.Before(ph.recs[j].due) })
	return ph
}

// closedLoop runs one client per CPU, each issuing its next request as
// soon as the previous one returns, for dur. Each client's request
// sequence comes from the seed and its index. One client per CPU keeps
// the runtime's threads busy: an open loop below the knee leaves them
// idle between requests, and on a shared host the OS wake-ups that then
// start each request spread the latency quartiles over 50% run to run.
func (sv *serveRun) closedLoop(ctx context.Context, seed int64, dur time.Duration, sample bool, spans *spanLog) *servePhase {
	return sv.measure(dur, sample, func(ph *servePhase) {
		var req atomic.Int64
		per := make([][]opRecord, runtime.NumCPU())
		end := ph.start.Add(dur)
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
				for time.Now().Before(end) {
					per[c] = append(per[c], sv.do(ctx, req.Add(1), draw(rng), time.Now(), spans))
				}
			}(c)
		}
		wg.Wait()
		for _, recs := range per {
			ph.recs = append(ph.recs, recs...)
		}
	})
}

// openLoop launches each scheduled request on its own goroutine at its
// due time and waits for all of them.
func (sv *serveRun) openLoop(ctx context.Context, seed int64, rate float64, dur time.Duration, sample bool) *servePhase {
	arr := schedule(seed, rate, dur)
	return sv.measure(dur, sample, func(ph *servePhase) {
		ph.recs = make([]opRecord, len(arr))
		var wg sync.WaitGroup
		for i, a := range arr {
			due := ph.start.Add(a.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := time.Since(due)
			wg.Add(1)
			go func(i int, a arrival, due time.Time, late time.Duration) {
				defer wg.Done()
				ph.recs[i] = sv.do(ctx, int64(i+1), a, due, nil)
				ph.recs[i].late = late
			}(i, a, due, late)
		}
		wg.Wait()
	})
}

// do runs one request through Manager.Do with the same step callback
// Manager.Step and Manager.Allreduce use, stamping admission, callback
// and release times. Verification runs after the request is timed.
func (sv *serveRun) do(ctx context.Context, req int64, a arrival, due time.Time, spans *spanLog) opRecord {
	rec := opRecord{arrival: a, due: due}
	var opts []encag.Option
	var col *encag.TraceCollector
	if spans != nil {
		col = &encag.TraceCollector{}
		opts = append(opts, encag.WithTracer(col))
	}
	var res *encag.RunResult
	var red *encag.ReduceResult
	var cbStart, cbEnd time.Time
	enter := time.Now()
	err := sv.mgr.Do(ctx, tenantID(a.tenant), func(s *encag.Session) error {
		cbStart = time.Now()
		var err error
		if a.reduce {
			red, err = s.Allreduce(ctx, sv.reduceIn[a.size][a.set], encag.XORCombine, opts...)
		} else {
			res, err = s.Run(ctx, encag.AlgORing, int64(serveSizes[a.size]), opts...)
		}
		cbEnd = time.Now()
		return err
	})
	done := time.Now()
	rec.latency = done.Sub(due)
	var rej *serve.RejectionError
	if errors.As(err, &rej) {
		rec.rejected = rej.Reason
		return rec
	}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.admit, rec.step, rec.release = cbStart.Sub(enter), cbEnd.Sub(cbStart), done.Sub(cbEnd)
	var op uint32
	if a.reduce {
		rec.elapsed, rec.metrics = red.Elapsed, red.Metrics
		rec.err = checkReduce(red, sv.reduceRef[a.size][a.set])
	} else {
		rec.elapsed, rec.metrics, op = res.Elapsed, res.Metrics, res.OpID
		rec.inter, rec.intra = res.InterMessages, res.IntraMessages
		rec.err = checkGather(res, sv.patterns[a.size])
	}
	if spans != nil {
		root := spans.add(0, "request", req, op, due, done)
		spans.add(root, "generator_late", req, op, due, enter)
		spans.add(root, "admission", req, op, enter, cbStart)
		step := spans.add(root, "step", req, op, cbStart, cbEnd)
		spans.add(root, "release", req, op, cbEnd, done)
		collStart := cbEnd.Add(-rec.elapsed)
		coll := spans.add(step, "collective", req, op, collStart, cbEnd)
		spans.attach(coll, req, op, collStart, col.Events)
		spans.add(0, "verify", req, op, done, time.Now())
		rec.crit = criticalTimes(col.Events)
	}
	return rec
}

// checkServeMetrics checks the six metrics are the same for every
// request of one kind and size, and that Step's match the simulator's.
func checkServeMetrics(spec encag.Spec, phases []*servePhase) error {
	type key struct {
		reduce bool
		size   int
	}
	seen := make(map[key]encag.Metrics)
	for _, ph := range phases {
		for _, r := range ph.recs {
			if !r.ok() {
				continue
			}
			k := key{r.reduce, r.size}
			if m, ok := seen[k]; !ok {
				seen[k] = r.metrics
			} else if m != r.metrics {
				return fmt.Errorf("%s: six metrics changed between requests: %+v then %+v", opName(r.arrival), m, r.metrics)
			}
		}
	}
	for k, m := range seen {
		if !k.reduce {
			if err := checkSim(spec, encag.AlgORing, int64(serveSizes[k.size]), m); err != nil {
				return err
			}
		}
	}
	return nil
}

func latencies(ph *servePhase) latency { return summarize(okLatencies(ph.recs)) }

// okLatencies returns the latencies of the successful requests in µs.
func okLatencies(recs []opRecord) []float64 {
	var xs []float64
	for i := range recs {
		if recs[i].ok() {
			xs = append(xs, us(recs[i].latency))
		}
	}
	return xs
}

// windowed returns the median over the phase's time windows of f,
// given each window's requests and the process usage during it; NaN
// results are skipped.
func (ph *servePhase) windowed(f func(recs []opRecord, use usage) float64) float64 {
	var vals []float64
	i := 0
	for k := 0; k+1 < len(ph.marks); k++ {
		j := i
		last := k+2 == len(ph.marks)
		for j < len(ph.recs) && (last || ph.recs[j].due.Sub(ph.start) < time.Duration(k+1)*ph.window) {
			j++
		}
		if v := f(ph.recs[i:j], ph.marks[k+1].sub(ph.marks[k])); !math.IsNaN(v) {
			vals = append(vals, v)
		}
		i = j
	}
	return median(vals)
}

func serveEndToEnd(ph *servePhase, rep *report) {
	ok, rejected, failed := ph.count()
	n := len(ph.recs)
	var payload float64
	byKind := make(map[string][]float64)
	for _, r := range ph.recs {
		if r.ok() {
			payload += float64(serveProcs * serveSizes[r.size])
			k := strings.ReplaceAll(opName(r.arrival), " ", "_")
			byKind[k] = append(byKind[k], us(r.latency))
		}
	}
	quant := func(q float64) float64 {
		return ph.windowed(func(recs []opRecord, _ usage) float64 { return quantiles(okLatencies(recs), q)[0] })
	}
	perOp := func(f func(u usage) float64) float64 {
		return ph.windowed(func(recs []opRecord, u usage) float64 {
			if len(recs) == 0 {
				return math.NaN()
			}
			return f(u) / float64(len(recs))
		})
	}
	rate := ratio(float64(ok), ph.wall.Seconds())
	rep.e2e["op_p50_us"] = quant(0.5)
	rep.e2e["op_p90_us"] = quant(0.9)
	rep.e2e["ops_per_s"] = rate
	// The closed loop offers as much load as the clients can complete,
	// so its completion rate is the highest rate the host sustains for
	// one client per CPU.
	rep.e2e["max_rate_ops_s"] = rate
	rep.e2e["goodput_MBps"] = ratio(payload/1e6, ph.wall.Seconds())
	rep.e2e["ok_ratio"] = ratio(float64(ok), float64(n))
	rep.e2e["cpu_us_per_op"] = perOp(func(u usage) float64 { return us(u.cpu) })
	rep.e2e["allocs_per_op"] = perOp(func(u usage) float64 { return float64(u.allocs) })
	rep.e2e["alloc_kb_per_op"] = perOp(func(u usage) float64 { return float64(u.bytes) / 1024 })
	for k, xs := range byKind {
		q := quantiles(xs, 0.5, 0.9)
		rep.note("latency."+k+".p50_us", "us", q[0])
		rep.note("latency."+k+".p90_us", "us", q[1])
	}
	lat := latencies(ph)
	rep.note("gc_cycles_per_kop", "count", ratio(float64(ph.marks[len(ph.marks)-1].sub(ph.marks[0]).gcs)*1000, float64(n)))
	rep.note("op_p99_us", "us", lat.P99)
	rep.note("fail_ratio", "ratio", ratio(float64(rejected+failed), float64(n)))
	rep.note("samples.ops", "count", float64(lat.N))
	rep.note("samples.windows", "count", float64(len(ph.marks)-1))
	rep.note("callers", "count", float64(runtime.NumCPU()))
}

// serveLayers fills the per-layer metrics: timings and counters from the
// untraced closed loop, refusals and generator lateness from the
// open-loop probe.
func serveLayers(ph, probe *servePhase, rep *report) {
	var over, coll, hop, admit, step, release []float64
	var steps, inter, intra float64
	var m [6]float64
	for _, r := range ph.recs {
		if !r.ok() {
			continue
		}
		over = append(over, us(r.step-r.elapsed))
		coll = append(coll, us(r.elapsed))
		hop = append(hop, ratio(us(r.elapsed), float64(r.metrics.Rc)))
		admit = append(admit, us(r.admit))
		step = append(step, us(r.step))
		release = append(release, us(r.release))
		if !r.reduce {
			steps++
			inter += float64(r.inter)
			intra += float64(r.intra)
		}
		for i, v := range sixValues(r.metrics) {
			m[i] += v
		}
	}
	ok := float64(len(coll))
	rep.layer["encag.api_overhead_us"] = median(over)
	rep.layer["cluster.collective_us"] = median(coll)
	rep.layer["cluster.hop_us"] = median(hop)
	rep.layer["cluster.hop_floor_ratio"] = ratio(rep.layer["cluster.hop_us"], rep.layer["floor.loopback_hop_us"])
	f0, b0 := tenantFrames(ph.snap0)
	f1, b1 := tenantFrames(ph.snap1)
	s0, o0 := tenantSegments(ph.snap0)
	s1, o1 := tenantSegments(ph.snap1)
	rep.layer["cluster.frames_per_op"] = ratio(float64(f1-f0), ok)
	rep.layer["cluster.wire_bytes_per_op"] = ratio(float64(b1-b0), ok)
	rep.layer["cluster.inter_msgs_per_op"] = ratio(inter, steps)
	rep.layer["cluster.intra_msgs_per_op"] = ratio(intra, steps)
	for i, name := range sixNames {
		rep.layer[name] = ratio(m[i], ok)
	}
	rep.layer["seal.segments_sealed_per_op"] = ratio(float64(s1-s0), ok)
	rep.layer["seal.segments_opened_per_op"] = ratio(float64(o1-o0), ok)
	poolLayers(ph.snap0.Pool, ph.snap1.Pool, ok, rep)
	a := quantiles(admit, 0.5, 0.9)
	rep.layer["serve.admit_wait_p50_us"] = a[0]
	rep.layer["serve.admit_wait_p90_us"] = a[1]
	rep.layer["serve.step_us"] = median(step)
	rep.layer["serve.release_us"] = median(release)

	rejected := make(map[string]float64)
	var late []float64
	for _, r := range probe.recs {
		late = append(late, us(r.late)/1e3)
		if r.rejected != "" {
			rejected[r.rejected]++
		}
	}
	n := float64(len(probe.recs))
	var rej float64
	for _, reason := range []string{serve.RejectQueueFull, serve.RejectQueueTimeout, serve.RejectCapacity, serve.RejectCancelled} {
		rep.layer["serve.rejected_"+reason+"_ratio"] = ratio(rejected[reason], n)
		rej += rejected[reason]
	}
	rep.layer["serve.rejected_ratio"] = ratio(rej, n)
	rep.layer["serve.queue_depth_max"] = float64(max(ph.queueMax, probe.queueMax))
	rep.layer["serve.gen_late_ms"] = quantiles(late, 0.9)[0]
	rep.note("probe.offered_rate", "1/s", probeRate)
	rep.note("probe.p90_us", "us", latencies(probe).P90)
	for _, name := range kindMetrics {
		if _, ok := rep.layer[name]; !ok {
			rep.layer[name] = 0 // measured only by the traced phase
		}
	}
}

// tenantFrames sums frames and bytes sent over every resident tenant.
func tenantFrames(s serve.Snapshot) (frames, bytes int64) {
	for _, t := range s.Tenants {
		if t.Session != nil {
			frames += t.Session.FramesSent
			bytes += t.Session.BytesSent
		}
	}
	return
}

func tenantSegments(s serve.Snapshot) (sealed, opened int64) {
	for _, t := range s.Tenants {
		if t.Session != nil {
			sealed += t.Session.SegmentsSealed
			opened += t.Session.SegmentsOpened
		}
	}
	return
}

// rung is one ladder step's outcome.
type rung struct {
	rate         float64
	p90us        float64
	failRatio    float64
	lateGrowthMs float64
}

func (ph *servePhase) rung(rate float64) rung {
	_, rejected, failed := ph.count()
	third := len(ph.recs) / 3
	var first, last []float64
	for i, r := range ph.recs {
		switch {
		case i < third:
			first = append(first, us(r.late)/1e3)
		case i >= len(ph.recs)-third:
			last = append(last, us(r.late)/1e3)
		}
	}
	return rung{
		rate:         rate,
		p90us:        ph.windowed(func(recs []opRecord, _ usage) float64 { return quantiles(okLatencies(recs), 0.9)[0] }),
		failRatio:    ratio(float64(rejected+failed), float64(len(ph.recs))),
		lateGrowthMs: median(last) - median(first),
	}
}

// sustainable reports whether a rung meets the latency limit at p90,
// refuses or fails at most failLimit of its requests, and its
// generator's lateness did not grow.
func (r rung) sustainable() bool {
	return r.p90us <= us(latencyLimit) && r.failRatio <= failLimit && !r.lateGrew()
}

func (r rung) lateGrew() bool {
	return r.lateGrowthMs > float64(lateGrowthLimit)/float64(time.Millisecond)
}

// maxRate applies the ladder rule to rungs in increasing rate order: the
// answer is the highest rate below the first unsustainable rung, 0 when
// the lowest rung already fails. When that first rung broke only the
// latency limit, the rate is interpolated linearly between the two
// rungs to where p90 meets the limit, so the figure moves with the
// system rather than jumping a whole rung.
func maxRate(rungs []rung) float64 {
	best := 0.0
	for i, r := range rungs {
		if r.sustainable() {
			best = r.rate
			continue
		}
		if i > 0 && r.failRatio <= failLimit && !r.lateGrew() {
			prev := rungs[i-1]
			frac := (us(latencyLimit) - prev.p90us) / (r.p90us - prev.p90us)
			best += frac * (r.rate - prev.rate)
		}
		break
	}
	return best
}
