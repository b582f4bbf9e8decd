// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every output, and prints its metrics as a table
// followed by one JSON line:
//
//	perfbench -workload bfs-ada -seed 1 -seconds 20 -trace 0
//
// Workloads (METRICS.md says why each was chosen):
//
//	bfs-ada       one serial bfs / Ada-ARI simulation on the 6x6 mesh
//	fig11-matrix  exp.Generate(r, "11"): 30 kernels x 5 schemes on 2 workers
//	serve-mix     arigate in front of two ariserve replicas, 2 closed-loop clients
//
// A run repeats passes of the workload until the next pass would end after
// -seconds (at least one pass). With -trace 0 every pass is untraced and the
// JSON line carries the end-to-end metrics. With -trace 1 untraced and
// traced passes alternate, the JSON line carries the per-layer metrics, and
// the spans and per-layer JSON of the first traced pass are written under
// -out when the run ends.
//
// Every measurement is taken from outside the program: perfbench times its
// own calls into core, exp, serve and cluster and reads their public
// counters. Host time is used everywhere unless a metric says "simulated".
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded digests belong to. Other seeds are
// checked for invariants only.
const defaultSeed = 1

// pass is what one execution of a workload reports.
type pass struct {
	wall time.Duration
	// cycles counts the simulated NoC cycles (warmup + measured) of the
	// distinct simulations the pass asked for.
	cycles float64
	// flitHops estimates the simulated mesh-link flit hops over those
	// cycles, for noc.host_ns_per_flit_hop.
	flitHops float64
	// latencies holds one entry per request a user waits for: a simulation
	// (bfs-ada), a figure (fig11-matrix) or an HTTP job (serve-mix).
	latencies []time.Duration
	attempted int
	failed    int
	// problems says why operations failed.
	problems []string
	// digest is a SHA-256 over the pass's outputs in a fixed order.
	digest string
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
}

// workload is one benchmark workload.
type workload interface {
	// setup performs one complete set-up of the workload and returns its
	// duration.
	setup() (time.Duration, error)
	// setupReps is how many set-ups a run times; setup_s is their median.
	setupReps() int
	// run executes one pass. tr is nil for an untraced pass.
	run(tr *tracer) (pass, error)
	// recorded is the digest recorded for the default seed.
	recorded() string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "bfs-ada", "workload: bfs-ada, fig11-matrix or serve-mix")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: sets core.Config.Seed and the serve-mix request stream")
	seconds := fs.Int("seconds", 20, "measure for about this many seconds (at least one pass)")
	traced := fs.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the traced run's spans and per-layer JSON")
	tmp := fs.String("tmp", "", "directory for serve-mix journals (default: the system temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seed must be >= 1, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	var w workload
	var err error
	switch *name {
	case "bfs-ada":
		w, err = newBFSAda(*seed)
	case "fig11-matrix":
		w, err = newFig11Matrix(*seed)
	case "serve-mix":
		w, err = newServeMix(*seed, *tmp)
	default:
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var ms []metric
	if *traced == 1 {
		ms = res.perLayer()
		err = res.writeTrace(*out, *name, *seed, ms)
	} else {
		ms, err = res.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout, *name, ms)
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", res.failed, res.attempted)
		return 1
	}
	return 0
}

// result is the outcome of a whole run.
type result struct {
	setups    []time.Duration
	plain     []pass
	traced    []pass
	attempted int
	failed    int
	digest    string
	problems  []string
	// goStats is the Go runtime's cost over the first untraced pass of a
	// traced run.
	goStats map[string]float64
	tr      *tracer
}

// measure times the set-ups, then runs passes until the next one would end
// after budget, and checks every pass's outputs.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	res := &result{}
	// Every set-up and pass starts from a collected heap, so neither pays
	// for the garbage of the one before it.
	for i := 0; i < w.setupReps(); i++ {
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, d)
	}

	start := time.Now()
	var walls []time.Duration
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		runtime.GC()
		var before runtime.MemStats
		if traced && i == 0 {
			runtime.ReadMemStats(&before)
		}
		var prof *cpuProfile
		if tr != nil && res.tr == nil {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return nil, err
			}
		}
		p, err := w.run(tr)
		if err != nil {
			return nil, err
		}
		if traced && i == 0 {
			res.goStats = goRuntimeDelta(&before)
		}
		if prof != nil {
			shares, nocNS, err := prof.stop()
			if err != nil {
				return nil, err
			}
			if p.layers == nil {
				p.layers = map[string]float64{}
			}
			for k, v := range shares {
				p.layers[k] = v
			}
			p.layers["noc.host_ns_per_flit_hop"] = ratio(nocNS, p.flitHops)
			res.tr = tr
		}
		res.check(w, seed, &p)
		if tr != nil {
			res.traced = append(res.traced, p)
		} else {
			res.plain = append(res.plain, p)
		}
		walls = append(walls, p.wall)

		// One more pass (or, traced, one more untraced+traced pair) only if
		// it is expected to end within the budget.
		if traced && i%2 == 0 {
			continue
		}
		next := medianDuration(walls)
		if traced {
			next *= 2
		}
		if time.Since(start)+next > budget {
			break
		}
	}
	return res, nil
}

// check folds one pass into the run's correctness verdict: every pass must
// produce the digest of the first, and for the default seed the recorded
// one. A mismatch fails every operation of the pass.
func (r *result) check(w workload, seed uint64, p *pass) {
	r.attempted += p.attempted
	r.problems = append(r.problems, p.problems...)
	if r.digest == "" {
		r.digest = p.digest
	}
	want := r.digest
	if rec := w.recorded(); seed == defaultSeed && rec != "" {
		want = rec
	}
	failed := p.failed
	if p.digest != want {
		r.problems = append(r.problems, fmt.Sprintf("pass digest %s, want %s", short(p.digest), short(want)))
		failed = p.attempted
	}
	r.failed += failed
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// endToEnd computes the end-to-end metrics over the untraced passes.
// Request latency quantiles are taken within each pass and their median
// across passes is reported.
func (r *result) endToEnd() ([]metric, error) {
	var walls []time.Duration
	var total time.Duration
	var rates, p50s, tails []float64
	reqs := 0
	for _, p := range r.plain {
		walls = append(walls, p.wall)
		total += p.wall
		rates = append(rates, p.cycles/p.wall.Seconds())
		lats := make([]float64, len(p.latencies))
		for i, l := range p.latencies {
			lats[i] = ms(l)
		}
		reqs += len(lats)
		p50s = append(p50s, quantile(lats, 0.5))
		tails = append(tails, quantile(lats, tailQuantile(len(lats))))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return []metric{
		{"setup_s", medianDuration(r.setups).Seconds(), "s"},
		{"wall_s", medianDuration(walls).Seconds(), "s"},
		{"sim_cycles_per_s", median(rates), "1/s"},
		{"peak_rss_mb", rss, "MB"},
		{"req_per_s", float64(reqs) / total.Seconds(), "1/s"},
		{"req_p50_ms", median(p50s), "ms"},
		{"req_tail_ms", median(tails), "ms"},
	}, nil
}

// tailQuantile is the highest quantile, up to p95, that leaves at least ten
// of n samples beyond it; below 20 samples no quantile above the median
// does, and the median is used.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.95, 1-10/float64(n))
}

// perLayer returns the per-layer metrics of the first traced pass, plus
// the Go runtime's cost and the tracing overhead.
func (r *result) perLayer() []metric {
	layers := map[string]float64{}
	for k, v := range r.traced[0].layers {
		layers[k] = v
	}
	for k, v := range r.goStats {
		layers[k] = v
	}
	var plain, traced []time.Duration
	for _, p := range r.plain {
		plain = append(plain, p.wall)
	}
	for _, p := range r.traced {
		traced = append(traced, p.wall)
	}
	layers["trace_overhead_frac"] = medianDuration(traced).Seconds()/medianDuration(plain).Seconds() - 1
	out := make([]metric, 0, len(layerUnits))
	for _, lu := range layerUnits {
		out = append(out, metric{lu.name, layers[lu.name], lu.unit})
	}
	return out
}

type metric struct {
	name  string
	value float64
	unit  string
}

// print writes the human-readable table and, as the last line, the JSON
// result with the metrics ms.
func (r *result) print(w io.Writer, name string, ms []metric) {
	fmt.Fprintf(w, "workload %s: %d untraced + %d traced passes, %d set-ups\n", name, len(r.plain), len(r.traced), len(r.setups))
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "  %-28s %16.6g %s (%d of %d operations)\n", "fail_frac", ratio(float64(r.failed), float64(r.attempted)), "frac", r.failed, r.attempted)
	if len(r.plain) > 0 {
		n := len(r.plain[0].latencies)
		fmt.Fprintf(w, "  req_tail_ms is p%.4g of the %d requests in each pass\n", 100*tailQuantile(n), n)
	}
	fmt.Fprintf(w, "  pass_s")
	for _, p := range append(append([]pass(nil), r.plain...), r.traced...) {
		fmt.Fprintf(w, " %.3f", p.wall.Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  digest %s\n", r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only finite floats reach here; a NaN is a bug in perfbench.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// writeTrace writes the traced pass's spans as a Chrome trace and the
// per-layer metrics ms as JSON.
func (r *result) writeTrace(dir, name string, seed uint64, ms []metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := r.tr.write(base + "-spans.json"); err != nil {
		return err
	}
	layers := map[string]float64{}
	for _, m := range ms {
		layers[m.name] = m.value
	}
	b, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-layers.json", append(b, '\n'), 0o644)
}

// digestOf hashes parts in the given order.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sortedDigest hashes a key -> output map in key order.
func sortedDigest(m map[string][]byte) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		parts = append(parts, []byte(k), m[k])
	}
	return digestOf(parts...)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// goRuntimeDelta reports the Go runtime's allocation and GC cost since
// before.
func goRuntimeDelta(before *runtime.MemStats) map[string]float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return map[string]float64{
		"go.alloc_mb":    float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"go.gc_cycles":   float64(after.NumGC - before.NumGC),
		"go.gc_pause_ms": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
