package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"encag"
)

func TestQuantilesEdgeCases(t *testing.T) {
	if q := quantiles(nil, 0.5, 0.9); !math.IsNaN(q[0]) || !math.IsNaN(q[1]) {
		t.Fatalf("empty sample: got %v, want NaNs", q)
	}
	if q := quantiles([]float64{7}, 0, 0.5, 0.9, 1); !reflect.DeepEqual(q, []float64{7, 7, 7, 7}) {
		t.Fatalf("single sample: got %v", q)
	}
	xs := []float64{4, 1, 3, 2}
	q := quantiles(xs, 0, 0.5, 1, -1, 2)
	if want := []float64{1, 2.5, 4, 1, 4}; !reflect.DeepEqual(q, want) {
		t.Fatalf("got %v, want %v", q, want)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Fatalf("quantiles reordered its input: %v", xs)
	}
	// Linear interpolation between closest ranks: 0.9 of 1..10 is 9.1.
	var ten []float64
	for i := 1; i <= 10; i++ {
		ten = append(ten, float64(i))
	}
	if got := quantiles(ten, 0.9)[0]; math.Abs(got-9.1) > 1e-9 {
		t.Fatalf("p90 of 1..10 = %v, want 9.1", got)
	}
	if got := median([]float64{1, 100}); got != 50.5 {
		t.Fatalf("median of two = %v", got)
	}
}

func TestWindowMedian(t *testing.T) {
	// 20 samples in 10 windows of 2; each window reports its first index.
	got := windowMedian(20, 10, func(lo, hi int) float64 { return float64(lo) })
	if got != 9 { // median of 0,2,...,18
		t.Fatalf("got %v, want 9", got)
	}
	// Fewer samples than windows: one window per sample, NaNs skipped.
	got = windowMedian(3, 10, func(lo, hi int) float64 {
		if lo == 1 {
			return math.NaN()
		}
		return float64(lo)
	})
	if got != 1 { // median of 0 and 2
		t.Fatalf("got %v, want 1", got)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(42, 500, 2*time.Second)
	b := schedule(42, 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(43, 500, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 800 || n > 1200 {
		t.Fatalf("%d arrivals in 2s at 500/s", n)
	}
	var reduces int
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if x.at >= 2*time.Second || x.tenant < 0 || x.tenant >= serveTenants ||
			x.size < 0 || x.size >= len(serveSizes) || x.set < 0 || x.set >= reduceSets {
			t.Fatalf("arrival out of range: %+v", x)
		}
		if x.reduce {
			reduces++
		}
	}
	if share := float64(reduces) / float64(len(a)); share < 0.15 || share > 0.35 {
		t.Fatalf("all-reduce share %.2f, want about %.2f", share, 1-stepShare)
	}
}

func TestClosedLoopMixDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []arrival {
		rng := rand.New(rand.NewSource(seed))
		out := make([]arrival, 100)
		for i := range out {
			out[i] = draw(rng)
		}
		return out
	}
	if !reflect.DeepEqual(seq(7), seq(7)) {
		t.Fatal("same seed gave different op mixes")
	}
	if reflect.DeepEqual(seq(7), seq(8)) {
		t.Fatal("different seeds gave the same op mix")
	}
}

func TestLadderMaxRate(t *testing.T) {
	ok := func(rate, p90 float64) rung { return rung{rate: rate, p90us: p90} }
	cases := []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all sustainable", []rung{ok(100, 1000), ok(200, 2000), ok(300, 3000)}, 300},
		{"lowest fails", []rung{ok(100, 6000), ok(200, 2000)}, 0},
		{"none", nil, 0},
		// p90 crosses 5000us halfway between 200 (4000) and 300 (6000).
		{"interpolated", []rung{ok(100, 1000), ok(200, 4000), ok(300, 6000)}, 250},
		// A later sustainable rung does not count after a failure.
		{"stops at first failure", []rung{ok(100, 1000), ok(200, 4000), ok(300, 6000), ok(400, 1000)}, 250},
		{"refusals stop without interpolation", []rung{ok(100, 1000), {rate: 200, p90us: 2000, failRatio: 0.01}}, 100},
		{"refusals at the limit are allowed", []rung{ok(100, 1000), {rate: 200, p90us: 2000, failRatio: failLimit}}, 200},
		{"growing lateness stops", []rung{ok(100, 1000), {rate: 200, p90us: 2000, lateGrowthMs: 2}}, 100},
	}
	for _, c := range cases {
		if got := maxRate(c.rungs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: max rate %v, want %v", c.name, got, c.want)
		}
	}
}

func TestVerificationRejectsCorruptGather(t *testing.T) {
	ctx := context.Background()
	spec := encag.Spec{Procs: 4, Nodes: 2}
	s, err := encag.OpenSession(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	in := make([][]byte, spec.Procs)
	for r := range in {
		in[r] = make([]byte, 256)
		rng.Read(in[r])
	}
	res, err := s.Allgather(ctx, encag.AlgHS2, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGather(res, in); err != nil {
		t.Fatalf("a correct gather was rejected: %v", err)
	}
	if err := checkSim(spec, encag.AlgHS2, 256, res.Metrics); err != nil {
		t.Fatalf("real and simulated metrics disagree: %v", err)
	}
	res.Gathered[2][1][17] ^= 0x40
	if checkGather(res, in) == nil {
		t.Fatal("a corrupted gather was accepted")
	}
	res.Gathered[2][1][17] ^= 0x40
	res.SecurityOK = false
	if checkGather(res, in) == nil {
		t.Fatal("a gather with a failed security audit was accepted")
	}
	bad := res.Metrics
	bad.Rc++
	if checkSim(spec, encag.AlgHS2, 256, bad) == nil {
		t.Fatal("metrics differing from the simulator were accepted")
	}

	red := &encag.ReduceResult{Result: xorReference(in), SecurityOK: true}
	if err := checkReduce(red, xorReference(in)); err != nil {
		t.Fatal(err)
	}
	red.Result[0] ^= 1
	if checkReduce(red, xorReference(in)) == nil {
		t.Fatal("a wrong all-reduce result was accepted")
	}
}

func TestWireCheckSeesWireBytes(t *testing.T) {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 2, Nodes: 2}, encag.WithEngine(encag.EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := [][]byte{make([]byte, 64), make([]byte, 64)}
	rand.New(rand.NewSource(2)).Read(in[0])
	rand.New(rand.NewSource(3)).Read(in[1])
	if _, err := s.Allgather(ctx, encag.AlgNaive, in); err != nil {
		t.Fatal(err)
	}
	if err := checkWire(s.Wire(), in); err != nil {
		t.Fatalf("sealed blocks reported on the wire: %v", err)
	}
	// The frame magic crosses the wire in every frame, so a check for it
	// must fire: the scan does see inter-node bytes.
	if checkWire(s.Wire(), [][]byte{[]byte("EAGM")}) == nil {
		t.Fatal("bytes known to cross the wire were not found")
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: -5, End: 2}}
	if got := covered(parent, kids); got != 42 { // [0,2] + [10,40] + [90,100]
		t.Fatalf("covered %v, want 42", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// program prints in step with BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, the program has %v", names, workloadNames())
	}
}

// TestWorkloadsSmoke runs every workload briefly in both modes and
// checks that the result line carries exactly the catalogued metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // traced runs write spans here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.4", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s\n%s", name, trace, code, errOut.String(), out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", name, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%s: %+v", name, trace, res)
			}
		}
	}
}
