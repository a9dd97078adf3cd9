// Command encag-serve hosts many tenant Sessions in one process over a
// shared crypto pool — the multi-tenant collective service. Tenants are
// pre-registered t0..t{N-1} (more auto-register on first use) and admit
// lazily; the HTTP surface drives and observes them:
//
//	encag-serve -tenants 16 -engine chan -addr 127.0.0.1:9191
//	curl 'http://127.0.0.1:9191/v1/step?tenant=t3&op=allgather&size=16384'
//	curl http://127.0.0.1:9191/v1/tenants     # per-tenant rollup JSON
//	curl http://127.0.0.1:9191/metrics        # merged, tenant-labelled
//	go tool pprof http://127.0.0.1:9191/debug/pprof/profile?seconds=5
//
// Admission control (-maxsteps/-maxqueue/-queue-timeout) answers
// saturation with HTTP 429 and a structured reason instead of queueing
// unboundedly; idle tenants are reaped after -idle-ttl and readmitted
// transparently on their next step; -rekey-every rotates resident
// tenants' AES keys in the background. encag-load is the matching
// client.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"encag"
	"encag/internal/serve"
)

func main() {
	tenants := flag.Int("tenants", 8, "tenant sessions to pre-register (t0..tN-1)")
	p := flag.Int("p", 4, "ranks per tenant session")
	nodes := flag.Int("nodes", 2, "nodes per tenant session")
	engineStr := flag.String("engine", "chan", "execution engine per tenant: chan or tcp")
	capacity := flag.Int("capacity", 0, "max resident tenant sessions (0 = unlimited; beyond it the LRU idle tenant is evicted)")
	idleTTL := flag.Duration("idle-ttl", 0, "reap tenant sessions idle this long (0 = never)")
	rekeyEvery := flag.Duration("rekey-every", 0, "rotate resident tenants' AES keys this often when idle (0 = never)")
	sweepEvery := flag.Duration("sweep-every", 0, "janitor period (0 = default 250ms)")
	maxSteps := flag.Int("maxsteps", 0, "concurrent collectives across all tenants (0 = derive from pool size)")
	maxQueue := flag.Int("maxqueue", 0, "callers allowed to wait for a step slot (0 = 4x maxsteps)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max wait for a step slot (0 = 2s)")
	cryptoWorkers := flag.Int("crypto-workers", 0, "shared crypto pool size (0 = GOMAXPROCS)")
	warm := flag.Bool("warm", false, "open every registered tenant's session at startup")
	addr := flag.String("addr", "", "HTTP listen address (empty = ephemeral loopback port)")
	duration := flag.Duration("duration", 0, "how long to serve (0 = until SIGINT)")
	flag.Parse()

	engine := encag.Engine(*engineStr)
	if engine != encag.EngineChan && engine != encag.EngineTCP {
		fatal(fmt.Errorf("unknown -engine %q (want chan or tcp)", *engineStr))
	}
	cfg := serve.Config{
		Spec:           encag.Spec{Procs: *p, Nodes: *nodes},
		SessionOptions: []encag.Option{encag.WithEngine(engine)},
		Capacity:       *capacity,
		IdleTTL:        *idleTTL,
		RekeyEvery:     *rekeyEvery,
		SweepEvery:     *sweepEvery,
		MaxSteps:       *maxSteps,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
	}
	if *cryptoWorkers > 0 {
		cfg.Pool = encag.NewCryptoPool(*cryptoWorkers)
		defer cfg.Pool.Close()
	}
	m, err := serve.Open(cfg)
	if err != nil {
		fatal(err)
	}
	defer m.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	for i := 0; i < *tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := m.Register(id, cfg.Spec); err != nil {
			fatal(err)
		}
		if *warm {
			if err := m.Warm(ctx, id); err != nil {
				fatal(fmt.Errorf("warm %s: %w", id, err))
			}
		}
	}

	srv, err := serve.NewServer(m, *addr)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("encag-serve: %d tenants (%s, p=%d nodes=%d), pool=%d workers, resident=%d\n",
		*tenants, engine, *p, *nodes, m.Pool().Size(), m.Resident())
	fmt.Printf("serving at http://%s (/v1/step, /v1/tenants, /metrics, /debug/vars, /debug/pprof/)\n", srv.Addr())

	<-ctx.Done()

	snap := m.Snapshot()
	fmt.Printf("\nshutdown: %d tenants known, %d resident, %d steps admitted\n",
		snap.Known, snap.Resident, snap.Admitted)
	fmt.Printf("rejections: %v\nreaps: %v  rekeys=%d\n", snap.Rejected, snap.Reaps, snap.Rekeys)
	fmt.Printf("pool: size=%d dispatched=%d saturated=%d\n",
		snap.Pool.Size, snap.Pool.Dispatched, snap.Pool.Saturated)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
