// Command ariserve runs the simulation job server: a long-lived,
// crash-safe, load-shedding HTTP service over the hardened experiment
// harness (internal/serve).
//
// Usage:
//
//	ariserve                                  # serve on 127.0.0.1:8080
//	ariserve -addr :9000 -journal runs.jsonl  # crash-safe across SIGKILL
//	ariserve -inflight 4 -queue 8             # admission bounds
//	ariserve -drain-timeout 1m                # graceful-drain budget
//	ariserve -timeout 5m -retries 1           # per-run cap + transient retry
//	ariserve -peers http://b:8080,http://c:8080   # cluster: adopt peer results
//
// API:
//
//	POST /v1/jobs         {"bench":"bfs","scheme":"Ada-ARI","timeout_ms":60000}
//	GET  /v1/stats        admission/shed/service-time counters
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 once draining)
//	GET  /metrics         Prometheus text: server counters, per-job progress
//	                      (cycles, cycles/sec, ETA, watchdog state), runtime
//	GET  /debug/nocstate  JSON NoC state snapshot of every in-flight job
//	GET  /debug/pprof/    CPU/heap/goroutine profiling (net/http/pprof)
//	GET  /debug/spans     recorded spans (?trace= filters by trace ID)
//	GET  /debug/trace     Chrome trace of one trace ID (default: latest)
//	GET  /debug/slo       job-latency burn-rate report (JSON)
//
// An overloaded server sheds submissions with 429 + Retry-After instead of
// queueing unboundedly; SIGTERM/SIGINT stops admission, finishes in-flight
// jobs under -drain-timeout, then aborts stragglers. With -journal, a
// SIGKILL'd server restarts with every completed job intact and re-runs
// only what was in flight — byte-identically, because the simulator is
// deterministic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "ariserve:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it serves until a signal arrives on
// sigs (or the listener fails), drains, and returns. The bound address is
// announced on stderr so tests can serve on :0.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("ariserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := exp.NewRunner()
	var journal string
	exp.HorizonFlags(fs, &r.Base)
	exp.ShardsFlag(fs, &r.Base)
	exp.JournalFlag(fs, &journal)
	exp.TimeoutFlag(fs, &r.RunTimeout)
	fs.IntVar(&r.MaxRetries, "retries", 1, "per-run retries for timed-out runs (transient contention)")
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM")
		inflight = fs.Int("inflight", 0, "max concurrent simulations (0 = GOMAXPROCS / shards)")
		queue    = fs.Int("queue", 0, "admitted-but-waiting slots (0 = 2x inflight, negative = none)")
		peers    = fs.String("peers", "", "comma-separated peer ariserve URLs: jobs journalled on a peer are adopted instead of re-run")
		peerTO   = fs.Duration("peer-timeout", time.Second, "per-submission budget for the peer result-fetch")
		traceS   = fs.Int("trace-sample", 0, "start a trace on every Nth un-traced submission (0 disables; incoming X-Ari-Trace is always honoured)")
		tracePk  = fs.Int("trace-packets", 0, "max NoC packet spans linked per traced run (0 = default)")
		pktSamp  = fs.Int("packet-sample", 0, "trace every Nth reply packet of a traced run (0 = default)")
		process  = fs.String("process", "", "process name on exported spans (default ariserve)")
		sloTgt   = fs.Duration("slo-target", 30*time.Second, "job-latency SLO threshold")
		sloGoal  = fs.Float64("slo-goal", 0.99, "job-latency SLO goal (fraction of jobs within the target)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := r.Base.Validate(); err != nil {
		return err
	}
	if journal != "" {
		j, err := exp.OpenJournal(journal)
		if err != nil {
			return err
		}
		defer j.Close()
		r.Journal = j
		if j.Loaded() > 0 {
			fmt.Fprintf(stderr, "ariserve: resuming, %d jobs journalled in %s\n", j.Loaded(), j.Path())
		}
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}

	s, err := serve.New(serve.Config{
		Runner: r, MaxInFlight: *inflight, QueueDepth: *queue,
		Peers: peerList, PeerTimeout: *peerTO,
		TraceSample: *traceS, TracePackets: *tracePk, PacketSample: *pktSamp,
		Process: *process, SLOTarget: *sloTgt, SLOGoal: *sloGoal,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ariserve: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigs:
		fmt.Fprintf(stderr, "ariserve: %v: draining (budget %s)\n", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "ariserve: drain budget exceeded, aborted in-flight jobs")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	st := s.Stats()
	fmt.Fprintf(stdout, "ariserve: drained; %d completed, %d cache hits, %d shed\n",
		st.Completed, st.CacheHits, st.Shed)
	return nil
}
