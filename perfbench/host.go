package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostFacts are recorded with every result so numbers from different
// machines are never compared unknowingly.
type hostFacts struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	CPU        string
}

func hostInfo() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a point-in-time reading of the process's CPU time and heap
// allocation counters. Differences of two readings bracket a measured
// region.
type usage struct {
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	gcs    uint64
}

// usageReader samples rusage (user+sys) and the runtime's cumulative
// heap allocation counters. Unlike runtime.ReadMemStats it does not stop
// the world, and a reading allocates nothing, so it can bracket single
// operations. Not safe for concurrent use.
type usageReader struct{ samples []metrics.Sample }

func newUsageReader() *usageReader {
	return &usageReader{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (r *usageReader) read() usage {
	var ru syscall.Rusage
	var u usage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(r.samples)
	u.allocs = r.samples[0].Value.Uint64()
	u.bytes = r.samples[1].Value.Uint64()
	u.gcs = r.samples[2].Value.Uint64()
	return u
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, allocs: u.allocs - v.allocs, bytes: u.bytes - v.bytes, gcs: u.gcs - v.gcs}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, allocs: u.allocs + v.allocs, bytes: u.bytes + v.bytes, gcs: u.gcs + v.gcs}
}
