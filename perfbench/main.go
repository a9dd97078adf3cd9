// Command perfbench is the repository benchmark: it drives encag's
// public Session and serve.Manager APIs (and the seal, wire and sched
// layers directly) under three seeded workloads, verifies every output
// outside the timed region, and prints every metric with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload ag-small-tcp --seed 1 --seconds 35 --trace 0
//
// It exits 1 when any verification fails and 2 on a usage or setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef is one catalogued metric: its name and unit as BENCHMARK.json
// lists them.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"goodput_MBps", "MB/s"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"max_rate_ops_s", "1/s"},
}

// perLayer lists the single-layer metrics a traced run reports. A metric
// of a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"encag.api_overhead_us", "us"},
	{"cluster.collective_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.hop_floor_ratio", "ratio"},
	{"cluster.frames_per_op", "count"},
	{"cluster.wire_bytes_per_op", "B"},
	{"cluster.inter_msgs_per_op", "count"},
	{"cluster.intra_msgs_per_op", "count"},
	{"cluster.send_us", "us"},
	{"cluster.recv_wait_us", "us"},
	{"cluster.copy_us", "us"},
	{"cluster.barrier_us", "us"},
	{"encrypted.rc", "count"},
	{"encrypted.sc_bytes", "B"},
	{"encrypted.re", "count"},
	{"encrypted.se_bytes", "B"},
	{"encrypted.rd", "count"},
	{"encrypted.sd_bytes", "B"},
	{"seal.encrypt_us", "us"},
	{"seal.decrypt_us", "us"},
	{"seal.segments_sealed_per_op", "count"},
	{"seal.segments_opened_per_op", "count"},
	{"seal.pool_dispatched_per_op", "count"},
	{"seal.pool_saturated_per_op", "count"},
	{"seal.pool_useful_ratio", "ratio"},
	{"wire.encode_MBps", "MB/s"},
	{"wire.decode_MBps", "MB/s"},
	{"sched.handoff_ns", "ns"},
	{"serve.admit_wait_p50_us", "us"},
	{"serve.admit_wait_p90_us", "us"},
	{"serve.step_us", "us"},
	{"serve.release_us", "us"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.rejected_queue_full_ratio", "ratio"},
	{"serve.rejected_queue_timeout_ratio", "ratio"},
	{"serve.rejected_capacity_ratio", "ratio"},
	{"serve.rejected_cancelled_ratio", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"serve.gen_late_ms", "ms"},
	{"floor.loopback_hop_us", "us"},
	{"floor.seal_MBps", "MB/s"},
	{"floor.open_MBps", "MB/s"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// report accumulates one run's metrics, counts and verification
// problems.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	// diag holds values printed for the reader but not gated: p99s,
	// sample counts, ladder rungs, self times, tracing overhead.
	diag      map[string]float64
	diagUnits map[string]string

	attempted, failed int
	problems          []string
	notes             []string
}

func newReport() *report {
	return &report{
		e2e:       make(map[string]float64),
		layer:     make(map[string]float64),
		diag:      make(map[string]float64),
		diagUnits: make(map[string]string),
	}
}

func (r *report) note(name, unit string, v float64) {
	r.diag[name] = v
	r.diagUnits[name] = unit
}

// problem records a verification failure; any problem makes the run
// incorrect.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"ag-small-tcp": func(c runConfig, r *report) error { return runAllgather(c, agSmall, r) },
	"ag-large-tcp": func(c runConfig, r *report) error { return runAllgather(c, agLarge, r) },
	"serve-mixed":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ag-small-tcp, ag-large-tcp or serve-mixed")
	seed := fs.Int64("seed", 1, "seed for payloads, op mix and arrival schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport()
	host := hostInfo()
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	printReport(stdout, cfg, host, rep)

	want, got := endToEnd, rep.e2e
	if cfg.trace {
		want, got = perLayer, rep.layer
	}
	line := resultLine{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(want)),
	}
	for _, d := range want {
		v, ok := got[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			return 2
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if line.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", cfg.workload)
		return 2
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport writes the human-readable part of a run: host facts, every
// measured metric with its unit, diagnostics and verification problems.
func printReport(w io.Writer, cfg runConfig, host hostFacts, rep *report) {
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPU)
	section := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintf(w, "## %s\n", title)
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(w, "%-40s %16.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	section("end-to-end", endToEnd, rep.e2e)
	section("per-layer", perLayer, rep.layer)
	names := make([]string, 0, len(rep.diag))
	for n := range rep.diag {
		names = append(names, n)
	}
	sort.Strings(names)
	diag := make([]metricDef, len(names))
	for i, n := range names {
		diag[i] = metricDef{n, rep.diagUnits[n]}
	}
	section("diagnostics (not gated)", diag, rep.diag)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "# VERIFICATION FAILED: %s\n", p)
	}
}
