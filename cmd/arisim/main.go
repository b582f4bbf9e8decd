// Command arisim runs one (benchmark, scheme) simulation and prints the
// detailed statistics: IPC, packet latencies, traffic mix, link utilisation,
// MC stall time and cache behaviour.
//
// Usage:
//
//	arisim -bench bfs -scheme Ada-ARI -cycles 20000 [-warmup 4000]
//	       [-mesh 6x6] [-mc 8] [-vcs 4] [-reqlink 128] [-replink 128]
//	       [-speedup 4] [-priolevels 2] [-seed 1] [-list]
//
// With -estimate, the analytical model (internal/analytic, DESIGN.md §12)
// answers in microseconds instead of running the simulation.
//
// Fault injection (DESIGN.md §13): -corrupt-prob and -link-death enable
// seeded flit corruption (recovered by CRC + NACK retransmission) and
// permanent link deaths (detoured by fault-adaptive routing).
//
// Observability (DESIGN.md §10):
//
//	arisim -bench bfs -obs-interval 100 -obs-out metrics.csv   # per-interval time series
//	arisim -bench bfs -trace-sample 16 -trace-out trace.json   # Chrome trace + latency decomposition
//	arisim -bench bfs -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arisim:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, runs (or estimates) the
// simulation and writes the report to stdout.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("arisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.DefaultConfig()
	cfg.Scheme = core.AdaARI
	exp.SchemeFlag(fs, &cfg)
	exp.HorizonFlags(fs, &cfg)
	exp.SeedFlag(fs, &cfg)
	exp.ShardsFlag(fs, &cfg)
	exp.FaultFlags(fs, &cfg)
	fs.Var(meshValue{&cfg}, "mesh", "mesh `WxH`")
	fs.IntVar(&cfg.NumMC, "mc", cfg.NumMC, "memory controllers")
	fs.IntVar(&cfg.VCs, "vcs", cfg.VCs, "virtual channels per port")
	fs.IntVar(&cfg.ReqLinkBits, "reqlink", cfg.ReqLinkBits, "request-network link bits")
	fs.IntVar(&cfg.RepLinkBits, "replink", cfg.RepLinkBits, "reply-network link bits")
	fs.IntVar(&cfg.InjSpeedup, "speedup", cfg.InjSpeedup, "injection-port crossbar speedup")
	fs.IntVar(&cfg.PriorityLevels, "priolevels", cfg.PriorityLevels, "ARI priority levels")
	var (
		benchName = fs.String("bench", "bfs", "benchmark name (see -list)")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		record    = fs.String("record", "", "record the memory trace to this file")
		replay    = fs.String("replay", "", "replay a recorded memory trace from this file")
		confFile  = fs.String("config", "", "load the base configuration from a JSON file (explicitly passed flags still override it)")
		dumpConf  = fs.Bool("dumpconfig", false, "print the effective configuration as JSON and exit")
		work      = fs.Uint64("work", 0, "fixed-work mode: measure until this many warp-instructions retire (0 = fixed horizon)")
		heatmap   = fs.Bool("heatmap", false, "print per-node reply-network link/injection utilisation grids")
		estimate  = fs.Bool("estimate", false, "answer from the analytical model (internal/analytic) instead of simulating; microseconds instead of seconds")

		obsInterval = fs.Int64("obs-interval", 0, "metrics sampling interval in NoC cycles (0 = observability off)")
		obsOut      = fs.String("obs-out", "", "write the sampled metric time series as CSV to this file (requires -obs-interval)")
		traceSample = fs.Uint64("trace-sample", 0, "record every Nth packet's lifecycle on both fabrics (0 = off)")
		traceOut    = fs.String("trace-out", "", "write sampled packet lifetimes as Chrome trace_event JSON to this file (requires -trace-sample)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	configPreset := func() error {
		if *confFile == "" {
			return nil
		}
		data, err := os.ReadFile(*confFile)
		if err != nil {
			return err
		}
		cfg = core.DefaultConfig()
		if err := json.Unmarshal(data, &cfg); err != nil {
			return fmt.Errorf("parsing %s: %w", *confFile, err)
		}
		return nil
	}
	if err := exp.ParseFlags(fs, args, configPreset); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	if *list {
		for _, k := range trace.Suite() {
			fmt.Fprintf(stdout, "%-16s %s\n", k.Name, k.Sens)
		}
		return nil
	}
	kernel, err := trace.ByName(*benchName)
	if err != nil {
		return err
	}

	if *dumpConf {
		out, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}

	if *estimate {
		est, err := analytic.EstimateOne(cfg, kernel)
		if err != nil {
			return err
		}
		printEstimate(stdout, est)
		return nil
	}

	workload, finish, err := buildWorkload(stderr, *record, *replay, cfg, kernel)
	if err != nil {
		return err
	}
	sim, err := core.NewSimulatorWorkload(cfg, kernel, workload)
	if err != nil {
		return err
	}
	defer sim.Close()
	if *traceSample > 0 && sim.Shards() > 1 {
		return fmt.Errorf("-trace-sample requires serial stepping: packet tracing observes flits mid-flight and is incompatible with -shards %d", cfg.Shards)
	}

	var reg *obs.Registry
	if *obsInterval > 0 {
		reg = obs.NewRegistry(*obsInterval)
		obs.AttachSimulator(reg, sim)
		reg.Reserve(int((cfg.WarmupCycles+cfg.MeasureCycles) / *obsInterval) + 2)
	}
	var reqColl, repColl *obs.Collector
	if *traceSample > 0 {
		reqColl, repColl = obs.AttachTracers(sim, *traceSample)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	var r core.Result
	if *work > 0 {
		r = sim.RunWork(*work, cfg.MeasureCycles*100)
	} else {
		r = sim.Run()
	}
	if finish != nil {
		if err := finish(); err != nil {
			return err
		}
	}
	printResult(stdout, r)
	if *heatmap {
		printHeatmap(stdout, sim, cfg)
	}
	if reg != nil {
		if err := writeMetricsCSV(stdout, stderr, reg, *obsOut); err != nil {
			return err
		}
	}
	if *traceSample > 0 {
		printDecomposition(stdout, reqColl, repColl)
		if *traceOut != "" {
			if err := writeChromeTrace(stderr, *traceOut, reqColl, repColl); err != nil {
				return err
			}
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// meshValue parses -mesh WxH into the configuration's mesh dimensions.
type meshValue struct{ cfg *core.Config }

func (v meshValue) String() string {
	if v.cfg == nil {
		return ""
	}
	return fmt.Sprintf("%dx%d", v.cfg.MeshWidth, v.cfg.MeshHeight)
}

func (v meshValue) Set(s string) error {
	var w, h int
	if _, err := fmt.Sscanf(s, "%dx%d", &w, &h); err != nil {
		return fmt.Errorf("bad mesh %q: %w", s, err)
	}
	v.cfg.MeshWidth, v.cfg.MeshHeight = w, h
	return nil
}

// writeMetricsCSV dumps the sampled time series (to stdout when no path is
// given).
func writeMetricsCSV(stdout, stderr io.Writer, reg *obs.Registry, path string) error {
	if path == "" {
		fmt.Fprintf(stdout, "\nmetrics (%d samples every %d cycles):\n", reg.Samples(), reg.Interval())
		return reg.WriteCSV(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d metric samples to %s\n", reg.Samples(), path)
	return nil
}

// printDecomposition prints the traced latency attribution per fabric — the
// paper's Fig. 2/3 split, from lifecycle samples instead of aggregates.
func printDecomposition(w io.Writer, reqColl, repColl *obs.Collector) {
	fmt.Fprintln(w, "\ntraced latency decomposition (cycles, mean over sampled packets):")
	fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %8s %11s\n", "fabric", "packets", "queue", "network", "eject", "total", "queue share")
	for _, c := range []*obs.Collector{reqColl, repColl} {
		if c == nil {
			continue
		}
		d := c.Decompose()
		fmt.Fprintf(w, "%-8s %8d %8.1f %8.1f %8.1f %8.1f %10.1f%%\n",
			c.Label, d.Packets, d.Queue.Value(), d.Net.Value(), d.Eject.Value(),
			d.Total.Value(), 100*d.QueueFraction())
	}
}

// writeChromeTrace exports the sampled lifecycles for chrome://tracing.
func writeChromeTrace(stderr io.Writer, path string, colls ...*obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var active []*obs.Collector
	for _, c := range colls {
		if c != nil {
			active = append(active, c)
		}
	}
	if err := obs.WriteChromeTrace(f, active...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote Chrome trace to %s\n", path)
	return nil
}

// printHeatmap renders the reply network's per-node load: the summed mesh
// link flits/cycle leaving each router, and each NI's injection-link
// flits/cycle. The MC nodes light up on the injection grid while the mesh
// grid stays cool — the §3 observation made visible.
func printHeatmap(w io.Writer, sim *core.Simulator, cfg core.Config) {
	rep, ok := sim.ReplyNet().(*noc.Network)
	if !ok {
		fmt.Fprintln(w, "\n(heatmap available only for mesh reply fabrics)")
		return
	}
	cycles := float64(rep.Stats().Cycles)
	if cycles == 0 {
		return
	}
	link := rep.LinkLoad()
	ni := rep.NILoad()
	isMC := map[int]bool{}
	for _, n := range sim.MCNodes() {
		isMC[n] = true
	}
	mark := func(node int) byte {
		if isMC[node] {
			return '*'
		}
		return ' '
	}
	fmt.Fprintln(w, "\nreply-network mesh-link load (flits/cycle out of each router; * = MC):")
	for y := 0; y < cfg.MeshHeight; y++ {
		for x := 0; x < cfg.MeshWidth; x++ {
			node := y*cfg.MeshWidth + x
			var total uint64
			for d := 0; d < 4; d++ {
				total += link[node][d]
			}
			fmt.Fprintf(w, " %5.2f%c", float64(total)/cycles, mark(node))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nreply-network injection-link load (flits/cycle from each NI):")
	for y := 0; y < cfg.MeshHeight; y++ {
		for x := 0; x < cfg.MeshWidth; x++ {
			node := y*cfg.MeshWidth + x
			fmt.Fprintf(w, " %5.2f%c", float64(ni[node])/cycles, mark(node))
		}
		fmt.Fprintln(w)
	}
}

// buildWorkload wires the optional trace record/replay paths. It returns a
// nil workload (synthetic generation) when neither flag is set, and a
// finish hook to flush/close files.
func buildWorkload(stderr io.Writer, record, replay string, cfg core.Config, kernel trace.Kernel) (trace.Workload, func() error, error) {
	switch {
	case record != "" && replay != "":
		return nil, nil, fmt.Errorf("-record and -replay are mutually exclusive")
	case replay != "":
		f, err := os.Open(replay)
		if err != nil {
			return nil, nil, err
		}
		rep, err := trace.NewReplayer(f)
		cerr := f.Close()
		if err != nil {
			return nil, nil, err
		}
		if cerr != nil {
			return nil, nil, cerr
		}
		cores, warps := rep.Shape()
		need := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC
		if cores != need || warps != kernel.WarpsPerCore {
			return nil, nil, fmt.Errorf("trace shape %dx%d does not match system %dx%d",
				cores, warps, need, kernel.WarpsPerCore)
		}
		return rep, nil, nil
	case record != "":
		cores := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC
		gen, err := trace.NewGenerator(kernel, cores, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		f, err := os.Create(record)
		if err != nil {
			return nil, nil, err
		}
		rec, err := trace.NewRecorder(gen, f, cores, kernel.WarpsPerCore)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		finish := func() error {
			if err := rec.Flush(); err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(stderr, "recorded %d trace records to %s\n", rec.Records(), record)
			return f.Close()
		}
		return rec, finish, nil
	default:
		return nil, nil, nil
	}
}

// printEstimate renders the analytical model's answer in the same shape as
// a simulated result, clearly labelled as an estimate.
func printEstimate(w io.Writer, e analytic.Estimate) {
	fmt.Fprintf(w, "benchmark        %s\n", e.Bench)
	fmt.Fprintf(w, "scheme           %s\n", e.Scheme)
	fmt.Fprintln(w, "mode             analytical estimate (no simulation; see DESIGN.md §12 for error bands)")
	fmt.Fprintf(w, "IPC              %.3f warp-instr/core-cycle (aggregate)\n", e.IPC)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "request net:  avg pkt latency %.1f\n", e.ReqLatency)
	fmt.Fprintf(w, "reply net:    avg pkt latency %.1f\n", e.RepLatency)
	fmt.Fprintf(w, "MC turnaround    %.1f cycles\n", e.MCService)
	fmt.Fprintf(w, "load round trip  %.1f cycles\n", e.RoundTrip)
	fmt.Fprintf(w, "reply injection  %.4f pkt/cycle/MC (saturation %.4f%s)\n",
		e.RepInjRate, e.SaturationRate, map[bool]string{true: ", SATURATED", false: ""}[e.Saturated])
}

func printResult(w io.Writer, r core.Result) {
	fmt.Fprintf(w, "benchmark        %s\n", r.Benchmark)
	fmt.Fprintf(w, "scheme           %s\n", r.Scheme)
	fmt.Fprintf(w, "measured cycles  %d (NoC) / %d (core)\n", r.MeasuredCycles, r.CoreCycles)
	fmt.Fprintf(w, "instructions     %d\n", r.Instructions)
	fmt.Fprintf(w, "IPC              %.3f warp-instr/core-cycle (aggregate)\n", r.IPC)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "request net:  avg pkt latency %.1f  link util %.4f  inj util %.4f\n",
		r.Req.AvgLatency(noc.ReadRequest, noc.WriteRequest), r.Req.MeshLinkUtil(), r.Req.InjLinkUtil())
	fmt.Fprintf(w, "reply net:    avg pkt latency %.1f  link util %.4f  inj util %.4f\n",
		r.Rep.AvgLatency(noc.ReadReply, noc.WriteReply), r.Rep.MeshLinkUtil(), r.Rep.InjLinkUtil())
	fmt.Fprintln(w)
	fmt.Fprintf(w, "traffic mix (flit-weighted):")
	for t := noc.PacketType(0); int(t) < noc.NumPacketTypes; t++ {
		fmt.Fprintf(w, "  %s %.1f%%", t, 100*flitShareBoth(&r, t))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "MC stall time    %d cycles (blocked %d)\n", r.MCStallTime, r.MCBlockedCycles)
	fmt.Fprintf(w, "replies sent     %d\n", r.RepliesSent)
	fmt.Fprintf(w, "NI occupancy     %.1f flits avg (cap %d)\n", r.NIOccAvgFlits, r.NIQueueCapFlits)
	fmt.Fprintf(w, "L1 hit %.3f  L2 hit %.3f  DRAM row hit %.3f\n", r.L1HitRate, r.L2HitRate, r.DRAMRowHitRate)
	if r.FaultEvents > 0 || r.Recovery != (noc.RecoveryStats{}) {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "faults injected  %d (dead links %d)\n", r.FaultEvents, r.Recovery.DeadLinks)
		fmt.Fprintf(w, "recovery         %d corrupted pkts dropped+NACKed, %d retransmitted, %d buffer-full rejects\n",
			r.Recovery.CorruptPackets, r.Recovery.RetransPackets, r.Recovery.RetransBufFullRejects)
	}
}

// flitShareBoth computes a packet type's share of flits across the two
// networks combined, the paper's Fig 5 weighting.
func flitShareBoth(r *core.Result, t noc.PacketType) float64 {
	var total, mine uint64
	for i := 0; i < noc.NumPacketTypes; i++ {
		total += r.Req.FlitsInjected[i] + r.Rep.FlitsInjected[i]
	}
	mine = r.Req.FlitsInjected[t] + r.Rep.FlitsInjected[t]
	if total == 0 {
		return 0
	}
	return float64(mine) / float64(total)
}
