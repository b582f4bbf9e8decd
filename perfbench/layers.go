package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// layerUnits lists every per-layer metric in output order. A workload that
// does not use a layer reports 0 for its metrics (METRICS.md).
var layerUnits = []struct{ name, unit string }{
	{"trace.calls", "count"},
	{"trace.busy_s", "s"},
	{"core.setup_ms", "ms"},
	{"core.step_us_p50", "us"},
	{"core.step_us_p99", "us"},
	{"core.warmup_step_us_p50", "us"},
	{"prof.noc_frac", "frac"},
	{"prof.gpu_frac", "frac"},
	{"prof.cache_frac", "frac"},
	{"prof.mem_frac", "frac"},
	{"prof.trace_frac", "frac"},
	{"prof.rng_frac", "frac"},
	{"prof.runtime_frac", "frac"},
	{"noc.host_ns_per_flit_hop", "ns"},
	{"gpu.instructions", "count"},
	{"gpu.ipc", "instr/cycle"},
	{"cache.l1_accesses", "count"},
	{"cache.l1_hit_rate", "frac"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_hit_rate", "frac"},
	{"mem.dram_reads", "count"},
	{"mem.dram_writes", "count"},
	{"mem.row_hit_rate", "frac"},
	{"mem.mc_stall_cycles", "cycles"},
	{"mem.mc_blocked_cycles", "cycles"},
	{"mem.replies_sent", "count"},
	{"noc.req_latency_cycles", "cycles"},
	{"noc.rep_latency_cycles", "cycles"},
	{"noc.rep_inj_util", "flits/cycle"},
	{"noc.rep_link_util", "flits/cycle"},
	{"noc.flit_hops", "count"},
	{"noc.switch_traversals", "count"},
	{"noc.credit_stall_cycles", "cycles"},
	{"noc.ni_full_rejects", "count"},
	{"noc.ni_occ_avg_flits", "flits"},
	{"noc.rep_queue_cycles", "cycles"},
	{"noc.rep_net_cycles", "cycles"},
	{"noc.rep_eject_cycles", "cycles"},
	{"exp.jobs", "count"},
	{"exp.run_s_p50", "s"},
	{"exp.run_s_max", "s"},
	{"exp.run_s_high", "s"},
	{"exp.run_s_medium", "s"},
	{"exp.run_s_low", "s"},
	{"exp.worker_busy_frac", "frac"},
	{"exp.tail_s", "s"},
	{"serve.run_ms_p50", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.est_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"serve.sim_ms_p50", "ms"},
	{"serve.completed", "count"},
	{"serve.cache_hits", "count"},
	{"serve.peer_hits", "count"},
	{"serve.estimated", "count"},
	{"serve.shed", "count"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_wins", "count"},
	{"cluster.failovers", "count"},
	{"cluster.shed", "count"},
	{"cluster.useful_run_frac", "frac"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace_overhead_frac", "frac"},
}

// tracerSample is the packet-tracer stride of traced passes: every 16th
// packet gets a lifecycle record.
const tracerSample = 16

// resultLayers computes the simulated per-layer counts over results, which
// must be in a fixed order. Counts are summed; hit rates are weighted by
// accesses; IPC is total instructions over total core cycles; latencies,
// utilisations, row-hit rates and NI occupancy are plain means over the
// results. All are exact for a given seed.
func resultLayers(results []core.Result) map[string]float64 {
	m := map[string]float64{}
	var instr, cyc, l1Hits, l2Hits float64
	var reqLat, repLat, injUtil, linkUtil, rowHit, occ float64
	for _, r := range results {
		a := r.Activity
		instr += float64(r.Instructions)
		cyc += float64(r.CoreCycles)
		m["cache.l1_accesses"] += float64(a.L1Accesses)
		m["cache.l2_accesses"] += float64(a.L2Accesses)
		l1Hits += r.L1HitRate * float64(a.L1Accesses)
		l2Hits += r.L2HitRate * float64(a.L2Accesses)
		m["mem.dram_reads"] += float64(a.DRAMReads)
		m["mem.dram_writes"] += float64(a.DRAMWrites)
		m["mem.mc_stall_cycles"] += float64(r.MCStallTime)
		m["mem.mc_blocked_cycles"] += float64(r.MCBlockedCycles)
		m["mem.replies_sent"] += float64(r.RepliesSent)
		rowHit += r.DRAMRowHitRate
		reqLat += meanLatency(&r.Req)
		repLat += meanLatency(&r.Rep)
		injUtil += r.Rep.InjLinkUtil()
		linkUtil += r.Rep.MeshLinkUtil()
		occ += r.NIOccAvgFlits
		m["noc.flit_hops"] += float64(r.Req.MeshLinkFlits + r.Rep.MeshLinkFlits)
		m["noc.switch_traversals"] += float64(r.Req.SwitchTraversals + r.Rep.SwitchTraversals)
		m["noc.credit_stall_cycles"] += float64(r.Req.CreditStallCycles + r.Rep.CreditStallCycles)
		m["noc.ni_full_rejects"] += float64(r.Req.NIFullRejects + r.Rep.NIFullRejects)
	}
	n := float64(len(results))
	m["gpu.instructions"] = instr
	m["gpu.ipc"] = ratio(instr, cyc)
	m["cache.l1_hit_rate"] = ratio(l1Hits, m["cache.l1_accesses"])
	m["cache.l2_hit_rate"] = ratio(l2Hits, m["cache.l2_accesses"])
	m["mem.row_hit_rate"] = ratio(rowHit, n)
	m["noc.req_latency_cycles"] = ratio(reqLat, n)
	m["noc.rep_latency_cycles"] = ratio(repLat, n)
	m["noc.rep_inj_util"] = ratio(injUtil, n)
	m["noc.rep_link_util"] = ratio(linkUtil, n)
	m["noc.ni_occ_avg_flits"] = ratio(occ, n)
	return m
}

// meanLatency is the create-to-eject latency over every packet type.
func meanLatency(s *noc.NetStats) float64 {
	var m stats.Mean
	for t := range s.Latency {
		m.Merge(s.Latency[t])
	}
	return m.Value()
}

// horizonFlitHops scales a result's measured-window flit hops to its whole
// horizon (warmup + measured), for the host cost per flit hop.
func horizonFlitHops(r core.Result, cfg core.Config) float64 {
	hops := float64(r.Req.MeshLinkFlits + r.Rep.MeshLinkFlits)
	return hops * ratio(float64(cfg.WarmupCycles+cfg.MeasureCycles), float64(cfg.MeasureCycles))
}

// checkResult returns why a simulation result breaks the invariants every
// seed must keep, or "".
func checkResult(r core.Result) string {
	switch {
	case r.Truncated:
		return fmt.Sprintf("%s/%s: truncated", r.Benchmark, r.Scheme)
	case !(r.IPC > 0):
		return fmt.Sprintf("%s/%s: IPC %v", r.Benchmark, r.Scheme, r.IPC)
	}
	return ""
}

// timedWorkload wraps the synthetic trace generator, counting every call
// and timing one call in every timeEvery; timing them all would cost more
// than the calls themselves.
type timedWorkload struct {
	inner   trace.Workload
	calls   uint64
	sampled uint64
	busy    time.Duration
	// clock is the cost of one time.Now pair, taken off every timed call.
	clock time.Duration
}

func newTimedWorkload(inner trace.Workload) *timedWorkload {
	return &timedWorkload{inner: inner, clock: clockCost()}
}

// clockCost is the median time between two back-to-back time.Now calls.
func clockCost() time.Duration {
	ds := make([]time.Duration, 1001)
	for i := range ds {
		t := time.Now()
		ds[i] = time.Since(t)
	}
	return medianDuration(ds)
}

const timeEvery = 64

func (w *timedWorkload) NextCompute(core, warp int) int {
	w.calls++
	if w.calls%timeEvery != 0 {
		return w.inner.NextCompute(core, warp)
	}
	start := time.Now()
	n := w.inner.NextCompute(core, warp)
	w.busy += time.Since(start)
	w.sampled++
	return n
}

func (w *timedWorkload) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	w.calls++
	if w.calls%timeEvery != 0 {
		return w.inner.NextMem(core, warp, scratch)
	}
	start := time.Now()
	write, addrs := w.inner.NextMem(core, warp, scratch)
	w.busy += time.Since(start)
	w.sampled++
	return write, addrs
}

// busyEstimate scales the timed calls' total, less the clock's own cost,
// to all calls.
func (w *timedWorkload) busyEstimate() time.Duration {
	busy := w.busy - time.Duration(w.sampled)*w.clock
	if busy < 0 {
		busy = 0
	}
	return time.Duration(float64(busy) * ratio(float64(w.calls), float64(w.sampled)))
}

// stepTimer is a SetSampler(1, ...) hook: the interval between two calls is
// one simulator Step plus the watchdog poll that follows it.
type stepTimer struct {
	warmup       int64
	last         time.Time
	warm, steady []time.Duration
}

func newStepTimer(warmup int64) *stepTimer { return &stepTimer{warmup: warmup} }

// begin marks the start of the first step.
func (s *stepTimer) begin() { s.last = time.Now() }

func (s *stepTimer) sample(cycle int64) {
	now := time.Now()
	if cycle <= s.warmup {
		s.warm = append(s.warm, now.Sub(s.last))
	} else {
		s.steady = append(s.steady, now.Sub(s.last))
	}
	s.last = now
}

// probes instruments every simulator an exp.Runner builds during a traced
// pass: a step timer and packet tracers per simulator.
type probes struct {
	mu    sync.Mutex
	steps []*stepTimer
	reps  []*obs.Collector
}

// attach is an exp.Runner.Instrument hook. It runs on the worker goroutine
// just before the simulation starts.
func (p *probes) attach(sim *core.Simulator, warmup int64) {
	st := newStepTimer(warmup)
	sim.SetSampler(1, st.sample)
	_, rep := obs.AttachTracers(sim, tracerSample)
	p.mu.Lock()
	p.steps = append(p.steps, st)
	if rep != nil {
		p.reps = append(p.reps, rep)
	}
	p.mu.Unlock()
	st.begin()
}

// layers reports the step-time percentiles and the reply-packet latency
// decomposition. Call it after the runs have finished.
func (p *probes) layers(m map[string]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var warm, steady []float64
	for _, st := range p.steps {
		for _, d := range st.warm {
			warm = append(warm, us(d))
		}
		for _, d := range st.steady {
			steady = append(steady, us(d))
		}
	}
	m["core.step_us_p50"] = quantile(steady, 0.50)
	m["core.step_us_p99"] = quantile(steady, 0.99)
	m["core.warmup_step_us_p50"] = quantile(warm, 0.50)
	var d obs.Decomposition
	for _, c := range p.reps {
		cd := c.Decompose()
		d.Packets += cd.Packets
		d.Queue.Merge(cd.Queue)
		d.Net.Merge(cd.Net)
		d.Eject.Merge(cd.Eject)
	}
	m["noc.rep_queue_cycles"] = d.Queue.Value()
	m["noc.rep_net_cycles"] = d.Net.Value()
	m["noc.rep_eject_cycles"] = d.Eject.Value()
}

// runLog records when each job of one exp.Runner starts (the InstrumentJob
// hook) and ends (its Progress line), and opens a span per job. Progress
// lines name a job by benchmark and scheme only, so one runLog must not see
// two running jobs with the same pair: the fig11 matrix has none, and each
// serve-mix replica runs one job at a time.
type runLog struct {
	tr     *tracer
	parent string
	mu     sync.Mutex
	open   map[string]runRecord
	done   []runRecord
}

type runRecord struct {
	name       string
	sens       trace.Sensitivity
	start, end time.Time
	span       obs.Span
}

func newRunLog(tr *tracer, parent string) *runLog {
	return &runLog{tr: tr, parent: parent, open: map[string]runRecord{}}
}

// begin is an exp.Runner.InstrumentJob hook.
func (l *runLog) begin(j exp.Job, _ *core.Simulator) {
	name := j.Kernel.Name + "/" + j.Cfg.Scheme.String()
	rec := runRecord{name: name, sens: j.Kernel.Sens, span: l.tr.start("exp.run", l.parent), start: time.Now()}
	l.mu.Lock()
	l.open[name] = rec
	l.mu.Unlock()
}

// Write receives the runner's Progress lines ("run N: <bench> <scheme> IPC=x").
func (l *runLog) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(string(p)), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := f[2] + "/" + f[3]
		rec, ok := l.open[name]
		if !ok {
			continue
		}
		delete(l.open, name)
		rec.end = now
		l.done = append(l.done, rec)
		rec.span.DurUS = now.UnixMicro() - rec.span.StartUS
		l.tr.keep(rec.span, "job", name)
	}
	return len(p), nil
}

// expLayers reports the exp.* metrics over the jobs of one or more
// runners, for a pass that ran on workers execution slots and took wall.
func expLayers(m map[string]float64, workers int, wall time.Duration, logs ...*runLog) {
	var done []runRecord
	for _, l := range logs {
		l.mu.Lock()
		done = append(done, l.done...)
		l.mu.Unlock()
	}
	var runs []float64
	var busy float64
	var lastStart, end time.Time
	for _, r := range done {
		d := r.end.Sub(r.start).Seconds()
		runs = append(runs, d)
		busy += d
		switch r.sens {
		case trace.High:
			m["exp.run_s_high"] += d
		case trace.Medium:
			m["exp.run_s_medium"] += d
		default:
			m["exp.run_s_low"] += d
		}
		if r.start.After(lastStart) {
			lastStart = r.start
		}
		if r.end.After(end) {
			end = r.end
		}
	}
	sort.Float64s(runs)
	m["exp.jobs"] = float64(len(runs))
	m["exp.run_s_p50"] = median(runs)
	if len(runs) > 0 {
		m["exp.run_s_max"] = runs[len(runs)-1]
	}
	m["exp.worker_busy_frac"] = busy / (float64(workers) * wall.Seconds())
	// Once the last job has started, the first job to end frees a worker
	// that finds no more work: the tail runs from then to the last end.
	firstIdle := end
	for _, r := range done {
		if !r.end.Before(lastStart) && r.end.Before(firstIdle) {
			firstIdle = r.end
		}
	}
	m["exp.tail_s"] = end.Sub(firstIdle).Seconds()
}
