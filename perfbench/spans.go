package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"encag"
	"encag/internal/cluster"
)

// span is one interval of a traced run: either recorded by the
// benchmark around a public call, or one of the program's own trace
// events (the critical rank's) attached beneath the collective it
// belongs to. Spans of one operation share Req, the benchmark's request
// number; Op is the program's RunResult.OpID (unique per session only,
// 0 when the request never reached a collective).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Req    int64   `json:"req"`
	Op     uint32  `json:"op"`
	Rank   int     `json:"rank"` // -1 for the benchmark's own spans
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanLog keeps a traced run's spans in memory until the run ends. It is
// safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.base).Nanoseconds()) / 1e3 }

// add records a benchmark span and returns its id.
func (l *spanLog) add(parent int64, name string, req int64, op uint32, start, end time.Time) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, Op: op, Rank: -1, Start: l.us(start), End: l.us(end)})
	return id
}

// attach records the critical rank's trace events beneath the
// collective span parent, which started at collStart (event times are
// seconds since the collective began).
func (l *spanLog) attach(parent, req int64, op uint32, collStart time.Time, evs []encag.TraceEvent) {
	rank := criticalRank(evs)
	base := l.us(collStart)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range evs {
		if ev.Rank != rank {
			continue
		}
		id := int64(len(l.spans) + 1)
		l.spans = append(l.spans, span{
			ID: id, Parent: parent, Name: "cluster." + ev.Kind.String(), Req: req, Op: op, Rank: ev.Rank,
			Start: base + ev.Start*1e6, End: base + ev.End*1e6,
		})
	}
}

// spanFileRequests bounds how many requests' spans a traced run writes
// out, so a long run's file stays a few MB; self times use every span.
const spanFileRequests = 5000

// write stores the spans of the first spanFileRequests requests as JSON
// lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if s.Req > spanFileRequests {
			continue
		}
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns, per span name, the median over operations of the
// name's self time in microseconds: a span's duration minus the part of
// it that its child spans cover.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct {
		name string
		req  int64
	}
	perOp := make(map[key]float64)
	for _, s := range l.spans {
		perOp[key{s.Name, s.Req}] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	byName := make(map[string][]float64)
	for k, v := range perOp {
		byName[k.name] = append(byName[k.name], v)
	}
	out := make(map[string]float64, len(byName))
	for n, xs := range byName {
		out[n] = median(xs)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := math.Max(k.Start, parent.Start), math.Min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// kindTimes is a rank's busy time per trace kind, in microseconds.
type kindTimes [int(cluster.TraceBarrier) + 1]float64

// criticalRank is the rank with the most time in send, recv-wait,
// encrypt, decrypt and copy intervals: the one whose work the collective
// waited on. Barrier intervals only wait for other ranks, so they do not
// count; in hs1/hs2 the last rank to finish is a non-leader that spent
// the inter-node exchange in a barrier, while the leader it waited for
// holds the recv-wait.
func criticalRank(evs []encag.TraceEvent) int {
	busy := make(map[int]float64)
	for _, ev := range evs {
		if ev.Kind != cluster.TraceBarrier {
			busy[ev.Rank] += ev.End - ev.Start
		}
	}
	rank, most := -1, math.Inf(-1)
	for r, b := range busy {
		if b > most || (b == most && r < rank) {
			rank, most = r, b
		}
	}
	return rank
}

// criticalTimes sums the critical rank's time per trace kind.
func criticalTimes(evs []encag.TraceEvent) kindTimes {
	var kt kindTimes
	rank := criticalRank(evs)
	for _, ev := range evs {
		if ev.Rank == rank && int(ev.Kind) < len(kt) {
			kt[ev.Kind] += (ev.End - ev.Start) * 1e6
		}
	}
	return kt
}

// kindMetrics names the per-layer metric each trace kind feeds.
var kindMetrics = map[cluster.TraceKind]string{
	cluster.TraceSend:    "cluster.send_us",
	cluster.TraceRecv:    "cluster.recv_wait_us",
	cluster.TraceCopy:    "cluster.copy_us",
	cluster.TraceBarrier: "cluster.barrier_us",
	cluster.TraceEncrypt: "seal.encrypt_us",
	cluster.TraceDecrypt: "seal.decrypt_us",
}

// spanPath is where a traced run leaves its spans, inside the
// benchmark's ignored build directory; the next traced run of the
// workload replaces them.
func spanPath(cfg runConfig) string {
	return filepath.Join(".bench_build", "perfbench", "spans-"+cfg.workload+".jsonl")
}
