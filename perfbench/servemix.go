package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/trace"
)

// serve-mix sizing. Two clients in a closed loop, each waiting for its
// reply before sending the next request, against two replicas that each
// run one simulation at a time: at most two simulations run at once and no
// request waits on the client side. 2 x 125 requests put 12 samples beyond
// the p95.
const (
	serveClients   = 2
	servePerClient = 125
	serveNew       = 75 // per client (60%): new short simulations, journal writes
	serveRepeat    = 31 // per client (25%): repeats of the client's earlier keys, cache and peer reads
	// The remaining 19 per client (15%) are analytic estimates of keys
	// never simulated.
	serveReplicas = 2
	serveInFlight = 1
	serveWarmup   = 300
	serveCycles   = 1200
)

// request is one submission of the serve-mix stream.
type request struct {
	class string // "new", "repeat" or "estimate"
	key   string // exp.JobKey of the resolved job
	body  []byte
	job   exp.Job
}

// serveMix drives arigate in front of two ariserve replicas, all in this
// process over httptest. Each pass starts a fresh cluster (empty journals)
// and replays the same request stream.
type serveMix struct {
	base    core.Config
	tmp     string
	streams [][]request
}

// newServeMix builds the request stream of seed. The new simulations are
// the 150 kernel x scheme pairs of the Fig 11 matrix, each once, dealt to
// the clients in a seeded order, so every seed asks for about the same
// simulated work. The seed also orders each client's request classes and
// picks the repeats, the estimates and every request's simulation seed.
func newServeMix(seed uint64, tmp string) (*serveMix, error) {
	base := core.DefaultConfig()
	base.WarmupCycles = serveWarmup
	base.MeasureCycles = serveCycles
	w := &serveMix{base: base, tmp: tmp}
	suite := trace.Suite()
	rng := rand.New(rand.NewSource(int64(seed)))

	var pairs []serve.JobRequest
	for _, k := range suite {
		for _, s := range fig11Schemes {
			pairs = append(pairs, serve.JobRequest{Bench: k.Name, Scheme: s.String()})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	next := uint64(0)
	for c := 0; c < serveClients; c++ {
		// The first request is new, so every repeat has an earlier key.
		var classes []string
		for i := 1; i < servePerClient; i++ {
			switch {
			case i < serveNew:
				classes = append(classes, "new")
			case i < serveNew+serveRepeat:
				classes = append(classes, "repeat")
			default:
				classes = append(classes, "estimate")
			}
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		classes = append([]string{"new"}, classes...)

		var stream, earlier []request
		for _, class := range classes {
			next++
			var jr serve.JobRequest
			switch class {
			case "repeat":
				q := earlier[rng.Intn(len(earlier))]
				q.class = class
				stream = append(stream, q)
				continue
			case "new":
				jr = pairs[c*serveNew+len(earlier)]
			case "estimate":
				jr = serve.JobRequest{
					Bench:    suite[rng.Intn(len(suite))].Name,
					Scheme:   fig11Schemes[rng.Intn(len(fig11Schemes))].String(),
					Estimate: true,
				}
			}
			// Request seeds are distinct, so every new or estimate request
			// names a job no other request names.
			jr.Seed = seed<<20 | next
			q, err := w.newRequest(class, jr)
			if err != nil {
				return nil, err
			}
			stream = append(stream, q)
			if class == "new" {
				earlier = append(earlier, q)
			}
		}
		w.streams = append(w.streams, stream)
	}
	return w, nil
}

func (w *serveMix) newRequest(class string, jr serve.JobRequest) (request, error) {
	job, err := serve.BuildJob(w.base, &jr)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(jr)
	if err != nil {
		return request{}, err
	}
	return request{class: class, key: exp.JobKey(job.Cfg, job.Kernel.Name), body: body, job: job}, nil
}

// setup starts and stops one cluster.
func (w *serveMix) setup() (time.Duration, error) {
	start := time.Now()
	c, err := startCluster(w.tmp, w.base, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, c.close()
}

func (w *serveMix) setupReps() int { return 15 }

func (w *serveMix) recorded() string { return recordedDigests["serve-mix"] }

// reply is one client-side outcome.
type reply struct {
	req     request
	latency time.Duration
	status  int
	body    []byte
	err     error
}

func (w *serveMix) run(tr *tracer) (_ pass, err error) {
	root := tr.start("serve-mix.pass", "")
	defer tr.end(root)

	var pr *probes
	var logs []*runLog
	var hook func(*exp.Runner)
	if tr != nil {
		pr = &probes{}
		hook = func(r *exp.Runner) {
			log := newRunLog(tr, root.ID)
			logs = append(logs, log)
			r.Instrument = func(sim *core.Simulator) { pr.attach(sim, w.base.WarmupCycles) }
			r.InstrumentJob = log.begin
			r.Progress = log
		}
	}
	sp := tr.start("cluster.start", root.ID)
	c, err := startCluster(w.tmp, w.base, hook)
	tr.end(sp)
	if err != nil {
		return pass{}, err
	}
	defer func() {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}()

	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer client.CloseIdleConnections()
	replies := make([][]reply, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range w.streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, q := range w.streams[ci] {
				sp := tr.start("cluster.request", root.ID)
				t := time.Now()
				status, body, err := post(client, c.gateway.URL+"/v1/jobs", q.body)
				replies[ci] = append(replies[ci], reply{req: q, latency: time.Since(t), status: status, body: body, err: err})
				tr.end(sp, "class", q.class, "key", q.key[:12], "status", strconv.Itoa(status))
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)

	p := pass{wall: wall}
	outputs := map[string][]byte{}
	var runLat, hitLat, estLat []float64
	for _, rs := range replies {
		for _, r := range rs {
			p.attempted++
			p.latencies = append(p.latencies, r.latency)
			class, out, why := checkReply(r)
			if why == "" {
				if prev, ok := outputs[r.req.key]; ok && !bytes.Equal(prev, out) {
					why = "response differs from an earlier response for the same key"
				}
			}
			if why != "" {
				p.failed++
				p.problems = append(p.problems, fmt.Sprintf("%s %s: %s", r.req.class, r.req.key[:12], why))
				continue
			}
			outputs[r.req.key] = out
			switch class {
			case "run":
				runLat = append(runLat, ms(r.latency))
			case "hit":
				hitLat = append(hitLat, ms(r.latency))
			case "estimate":
				estLat = append(estLat, ms(r.latency))
			}
		}
	}
	p.digest = sortedDigest(outputs)

	runs := w.runJobs()
	for _, j := range runs {
		p.cycles += float64(j.Cfg.WarmupCycles + j.Cfg.MeasureCycles)
	}
	if tr == nil {
		return p, nil
	}

	// Let hedged duplicates finish before reading the counters.
	sp = tr.start("cluster.scrape", root.ID)
	st, err := c.scrape()
	tr.end(sp)
	if err != nil {
		return pass{}, err
	}
	var results []core.Result
	for _, j := range runs {
		out, ok := outputs[exp.JobKey(j.Cfg, j.Kernel.Name)]
		if !ok {
			continue // its replies failed and are counted already
		}
		var res core.Result
		if err := json.Unmarshal(out, &res); err != nil {
			return pass{}, err
		}
		results = append(results, res)
		p.flitHops += horizonFlitHops(res, j.Cfg)
	}
	p.layers = resultLayers(results)
	pr.layers(p.layers)
	expLayers(p.layers, serveReplicas*serveInFlight, wall, logs...)
	for k, v := range st {
		p.layers[k] = v
	}
	p.layers["serve.run_ms_p50"] = median(runLat)
	p.layers["serve.hit_ms_p50"] = median(hitLat)
	p.layers["serve.est_ms_p50"] = median(estLat)
	p.layers["cluster.useful_run_frac"] = ratio(float64(len(runs)), st["serve.completed"])

	// The replicas built their simulators out of reach of a timer; build
	// the same ones again here to measure the per-simulation set-up.
	var setups []float64
	for _, j := range runs {
		t := time.Now()
		sim, err := core.NewSimulator(j.Cfg, j.Kernel)
		if err != nil {
			return pass{}, err
		}
		setups = append(setups, ms(time.Since(t)))
		sim.Close()
	}
	p.layers["core.setup_ms"] = median(setups)
	return p, nil
}

// runJobs returns the distinct simulations the stream asks for, in key
// order.
func (w *serveMix) runJobs() []exp.Job {
	seen := map[string]exp.Job{}
	for _, s := range w.streams {
		for _, q := range s {
			if q.class == "new" {
				seen[q.key] = q.job
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	jobs := make([]exp.Job, len(keys))
	for i, k := range keys {
		jobs[i] = seen[k]
	}
	return jobs
}

// post sends one job and reads the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkReply classifies a reply by its cached/estimated flags ("run",
// "hit" or "estimate") and returns the output that must be identical for
// every reply to its key: the result, or the estimate. why is non-empty
// when the reply is wrong.
func checkReply(r reply) (class string, out []byte, why string) {
	if r.err != nil {
		return "", nil, r.err.Error()
	}
	if r.status != http.StatusOK {
		return "", nil, fmt.Sprintf("status %d: %s", r.status, strings.TrimSpace(string(r.body)))
	}
	var resp struct {
		Key       string          `json:"key"`
		Cached    bool            `json:"cached"`
		Estimated bool            `json:"estimated"`
		Result    json.RawMessage `json:"result"`
		Estimate  json.RawMessage `json:"estimate"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return "", nil, "bad reply: " + err.Error()
	}
	if resp.Key != r.req.key {
		return "", nil, "reply for key " + resp.Key
	}
	if r.req.class == "estimate" {
		if !resp.Estimated || len(resp.Estimate) == 0 {
			return "", nil, "estimate request answered without an estimate"
		}
		return "estimate", resp.Estimate, ""
	}
	var res core.Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return "", nil, "bad result: " + err.Error()
	}
	if why := checkResult(res); why != "" {
		return "", nil, why
	}
	if resp.Cached {
		return "hit", resp.Result, ""
	}
	return "run", resp.Result, ""
}
