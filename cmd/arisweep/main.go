// Command arisweep sweeps one design parameter of the simulated system and
// prints IPC (and stall) across the sweep — the tool behind the paper's
// sensitivity studies (§7.5) and any ablation a user wants to run.
//
// Usage:
//
//	arisweep -param speedup -bench kmeans            # S = 1..4 (Fig 8 / §4.2)
//	arisweep -param vcs -bench bfs                   # 1,2,4,8 VCs (Fig 15 axis)
//	arisweep -param replink -bench bfs               # 64..512-bit reply links (Fig 4 axis)
//	arisweep -param mesh -bench bfs                  # 4x4 / 6x6 / 8x8 (§7.5(2))
//	arisweep -param niqueue -bench srad              # NI queue 4..80 packets (Fig 6 axis)
//	arisweep -param starvation -bench bfs            # §5 threshold sensitivity
//	arisweep -param priolevels -bench bfs            # 1..6 levels (Fig 9 axis)
//
// Runs execute through the hardened experiment harness: each point runs
// under the forward-progress watchdogs (a deadlocked configuration fails
// with a diagnostic instead of hanging), -timeout bounds each run's wall
// time, and -journal makes an interrupted sweep resumable without
// recomputing finished points.
// With -server, points are not simulated locally: each is submitted to a
// running ariserve instance through the retrying client, so shed requests
// (429), drains and even server restarts are ridden out transparently, and
// the server's journal deduplicates resubmitted points.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arisweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, executes the sweep and
// writes the table to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("arisweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := core.DefaultConfig()
	base.Scheme = core.AdaARI
	base.MeasureCycles, base.WarmupCycles = 8000, 2000
	var (
		journal string
		timeout time.Duration
	)
	exp.SchemeFlag(fs, &base)
	exp.HorizonFlags(fs, &base)
	exp.SeedFlag(fs, &base)
	exp.ShardsFlag(fs, &base)
	exp.FaultFlags(fs, &base)
	exp.JournalFlag(fs, &journal)
	exp.TimeoutFlag(fs, &timeout)
	var (
		param  = fs.String("param", "speedup", "speedup | vcs | replink | mesh | niqueue | starvation | priolevels")
		bench  = fs.String("bench", "bfs", "benchmark")
		server = fs.String("server", "", "ariserve base URL; points run remotely via the retrying client")

		obsInterval = fs.Int64("obs-interval", 0, "metrics sampling interval in NoC cycles for locally-run points (0 = off)")
		obsDir      = fs.String("obs-dir", ".", "directory for per-point metric CSVs (metrics_<label>.csv)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every sweep point inherits base, so a bad flag fails here rather than
	// at the first run (or on the server).
	if err := base.Validate(); err != nil {
		return err
	}
	kernel, err := trace.ByName(*bench)
	if err != nil {
		return err
	}

	// Report the effective parallelism of the sweep (concurrent runs x
	// per-run shards) and clamp it to the host instead of silently
	// oversubscribing. Points run one at a time here, so the budget is
	// 1 x shards locally; with -server, per-point shards still apply but
	// concurrent-run admission belongs to the server.
	if eff := noc.EffectiveShards(noc.Mesh{Width: base.MeshWidth, Height: base.MeshHeight}, base.Shards); eff > 1 {
		if *server == "" {
			if maxP := runtime.GOMAXPROCS(0); eff > maxP {
				fmt.Fprintf(stderr, "arisweep: clamping -shards %d to %d: 1 concurrent run x %d shards exceeds GOMAXPROCS=%d\n",
					eff, maxP, eff, maxP)
				base.Shards = maxP
				eff = maxP
			}
			fmt.Fprintf(stderr, "arisweep: effective parallelism: 1 concurrent run x %d shards = %d workers\n", eff, eff)
		} else {
			fmt.Fprintf(stderr, "arisweep: effective parallelism: %d shards per point; concurrent-run admission is the server's (shard-aware MaxInFlight)\n", eff)
		}
	}

	type point struct {
		label string
		cfg   core.Config
	}
	var points []point
	add := func(label string, mutate func(*core.Config)) {
		cfg := base
		mutate(&cfg)
		points = append(points, point{label, cfg})
	}

	switch *param {
	case "speedup":
		for s := 1; s <= 4; s++ {
			s := s
			add(fmt.Sprintf("S=%d", s), func(c *core.Config) { c.InjSpeedup = s })
		}
	case "vcs":
		for _, v := range []int{1, 2, 4, 8} {
			v := v
			add(fmt.Sprintf("%dVC", v), func(c *core.Config) {
				c.VCs = v
				if c.InjSpeedup > v {
					c.InjSpeedup = v
				}
			})
		}
	case "replink":
		for _, b := range []int{64, 128, 256, 512} {
			b := b
			add(fmt.Sprintf("%db", b), func(c *core.Config) { c.RepLinkBits = b })
		}
	case "mesh":
		for _, m := range []struct{ w, h, mc int }{{4, 4, 4}, {6, 6, 8}, {8, 8, 8}} {
			m := m
			add(fmt.Sprintf("%dx%d", m.w, m.h), func(c *core.Config) {
				c.MeshWidth, c.MeshHeight, c.NumMC = m.w, m.h, m.mc
			})
		}
	case "niqueue":
		longPkt := noc.PacketSize(noc.ReadReply, base.RepLinkBits, base.DataBytes)
		for _, p := range []int{4, 12, 28, 50, 80} {
			p := p
			add(fmt.Sprintf("%dpkt", p), func(c *core.Config) { c.NIQueueFlits = p * longPkt })
		}
	case "starvation":
		for _, th := range []int64{100, 1000, 10000, 100000} {
			th := th
			add(fmt.Sprintf("%d", th), func(c *core.Config) { c.StarvationLimit = th })
		}
	case "priolevels":
		for l := 1; l <= 6; l++ {
			l := l
			add(fmt.Sprintf("L=%d", l), func(c *core.Config) { c.PriorityLevels = l })
		}
	default:
		return fmt.Errorf("unknown -param %q", *param)
	}

	// runPoint executes one sweep point: locally on the hardened runner, or
	// remotely through the retrying client when -server is set.
	// Per-point observability (local only): each point gets a fresh metrics
	// registry attached through Runner.Instrument and dumped to its own CSV.
	// Points journalled from a previous sweep never build a simulator, so
	// they produce no CSV — by design, resumption stays cheap.
	var runPoint func(cfg core.Config) (core.Result, error)
	var obsReg *obs.Registry
	if *server != "" {
		if *obsInterval > 0 {
			fmt.Fprintln(stderr, "arisweep: -obs-interval is ignored with -server (metrics are per-process; scrape the server's /metrics instead)")
		}
		cli := client.New(*server)
		runPoint = func(cfg core.Config) (core.Result, error) {
			// -timeout propagates to the server as the job's watchdog deadline
			// (TimeoutMs) and, padded for queueing and retries, bounds the
			// whole submission round trip — a remote sweep point cannot hang
			// past its budget any more than a local one can.
			req := serve.JobRequest{Bench: *bench, Config: &cfg}
			ctx := context.Background()
			if timeout > 0 {
				req.TimeoutMs = timeout.Milliseconds()
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 4*timeout)
				defer cancel()
			}
			resp, err := cli.Submit(ctx, req)
			if err != nil {
				return core.Result{}, err
			}
			return resp.Result, nil
		}
	} else {
		runner := &exp.Runner{Base: base, RunTimeout: timeout}
		if journal != "" {
			j, err := exp.OpenJournal(journal)
			if err != nil {
				return err
			}
			defer j.Close()
			runner.Journal = j
			if j.Loaded() > 0 {
				fmt.Fprintf(stderr, "arisweep: resuming, %d runs journalled in %s\n", j.Loaded(), j.Path())
			}
		}
		if *obsInterval > 0 {
			runner.Instrument = func(sim *core.Simulator) {
				obsReg = obs.NewRegistry(*obsInterval)
				obs.AttachSimulator(obsReg, sim)
				obsReg.Reserve(int((base.WarmupCycles+base.MeasureCycles) / *obsInterval) + 2)
			}
		}
		runPoint = func(cfg core.Config) (core.Result, error) {
			return runner.Run(cfg, kernel)
		}
	}

	fmt.Fprintf(stdout, "sweep %s on %s (%s), %d measured cycles\n\n", *param, *bench, base.Scheme, base.MeasureCycles)
	fmt.Fprintf(stdout, "%-10s %10s %10s %14s %12s\n", *param, "IPC", "vs first", "stall/reply", "rep latency")
	var first float64
	for _, p := range points {
		obsReg = nil
		r, err := runPoint(p.cfg)
		if err != nil {
			return err
		}
		if obsReg != nil {
			path := fmt.Sprintf("%s/metrics_%s.csv", *obsDir, sanitizeLabel(p.label))
			if err := writePointCSV(obsReg, path); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "arisweep: wrote %d metric samples to %s\n", obsReg.Samples(), path)
		}
		if first == 0 {
			first = r.IPC
		}
		stall := 0.0
		if r.RepliesSent > 0 {
			stall = float64(r.MCStallTime) / float64(r.RepliesSent)
		}
		fmt.Fprintf(stdout, "%-10s %10.3f %+9.1f%% %14.1f %12.1f\n",
			p.label, r.IPC, 100*(r.IPC/first-1), stall,
			r.Rep.AvgLatency(noc.ReadReply, noc.WriteReply))
	}
	return nil
}

// sanitizeLabel makes a sweep-point label safe as a file-name component.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// writePointCSV dumps one point's sampled metrics.
func writePointCSV(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
