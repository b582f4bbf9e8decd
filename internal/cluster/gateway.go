package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config configures a Gateway.
type Config struct {
	// Base is the configuration jobs resolve against when they carry no
	// explicit Config — it must match the replicas' base, or the gateway
	// and the replicas would disagree on JobKeys. Required.
	Base core.Config

	// Replicas are the ariserve base URLs forming the cluster. Required.
	Replicas []string

	// Vnodes is the per-replica virtual-node count (DefaultVnodes when 0).
	Vnodes int

	// Replication is how many distinct owners each key has on the ring —
	// the failover depth. Default 2, clamped to len(Replicas).
	Replication int

	// ProbeInterval is the readyz health-probe cadence (default 500ms).
	ProbeInterval time.Duration

	// BreakerThreshold opens a replica's circuit after this many
	// consecutive failures (default 3).
	BreakerThreshold int

	// HTTPClient overrides the client used for proxying and probing.
	HTTPClient *http.Client

	// TraceSample enables distributed tracing for 1 in N submissions
	// (0 disables minting traces; 1 traces everything). A submission that
	// already carries a valid X-Ari-Trace header is always traced — the
	// caller made the sampling decision.
	TraceSample int

	// TraceCap bounds the in-memory span recorder (obs.DefaultSpanCap
	// when 0).
	TraceCap int

	// SLOTarget is the end-to-end routing-latency objective boundary
	// (default 2s): a submission answered 2xx within it is a good event.
	SLOTarget time.Duration

	// SLOGoal is the objective's target good fraction (default 0.99).
	SLOGoal float64
}

// Stats is a point-in-time snapshot of the gateway's counters.
type Stats struct {
	// Requests counts job submissions accepted for routing.
	Requests int64 `json:"requests"`
	// Shed counts submissions answered 429 because every owner of the key
	// was down or shedding.
	Shed int64 `json:"shed"`
	// Failovers counts attempts launched because a prior owner failed or
	// shed.
	Failovers int64 `json:"failovers"`
	// Hedges and HedgeWins are always 0: the gateway tries owners one at a
	// time and never races a duplicate of a deterministic job. They remain
	// in /v1/stats only because the perfbench serve-mix workload reads them.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Replicas is the per-replica routing + health table.
	Replicas []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica's row in Stats.
type ReplicaStats struct {
	ReplicaHealth
	// Routed counts attempts sent to this replica (including failed ones).
	Routed int64 `json:"routed"`
	// InFlight is the number of forwards this gateway has open to the
	// replica right now — the load routing balances on.
	InFlight int `json:"in_flight"`
}

// Gateway is the arigate front door: an http.Handler that routes job
// submissions to ariserve replicas by consistent hash over their JobKey,
// with health-checked failover and load shedding.
//
//	POST /v1/jobs   route a JobRequest to its owner replicas
//	GET  /v1/stats  routing/failover/shed counters (Stats)
//	GET  /healthz   liveness of the gateway process
//	GET  /readyz    200 while >= 1 replica is routable, else 503
//	GET  /metrics   Prometheus text: routing, failover, shed, per-replica
type Gateway struct {
	base    core.Config
	ring    *Ring
	health  *Health
	repl    int
	hc      *http.Client
	mux     *http.ServeMux
	started time.Time

	spans       *obs.SpanRecorder
	traceSample int
	traceSeq    atomic.Int64
	routeHist   obs.Histogram // end-to-end routing latency, µs
	attemptHist obs.Histogram // per-proxied-attempt latency, µs
	slo         *obs.SLOTracker

	mu        sync.Mutex
	requests  int64
	shed      int64
	failovers int64
	routed    map[string]int64
	open      map[string]int      // replica -> forwards open to it
	openKeys  map[string]keyRoute // key -> replica it is in flight at
}

// keyRoute records where a key's open forwards went: refs counts them, and
// replica is the owner the latest of them was sent to.
type keyRoute struct {
	replica string
	refs    int
}

// New builds a Gateway; call Start to begin health probing and Close to
// stop it.
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Replicas, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	repl := cfg.Replication
	if repl <= 0 {
		repl = 2
	}
	if repl > len(ring.replicas) {
		repl = len(ring.replicas)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	target := cfg.SLOTarget
	if target <= 0 {
		target = 2 * time.Second
	}
	goal := cfg.SLOGoal
	if goal <= 0 || goal >= 1 {
		goal = 0.99
	}
	g := &Gateway{
		base:        cfg.Base,
		ring:        ring,
		health:      NewHealth(ring.Replicas(), cfg.BreakerThreshold, cfg.ProbeInterval, hc),
		repl:        repl,
		hc:          hc,
		started:     time.Now(),
		spans:       obs.NewSpanRecorder(cfg.TraceCap),
		traceSample: cfg.TraceSample,
		slo: obs.NewSLOTracker([]obs.Objective{
			{Name: "route_latency", Threshold: target.Microseconds(), Goal: goal},
		}),
		routed:   make(map[string]int64, len(cfg.Replicas)),
		open:     make(map[string]int, len(cfg.Replicas)),
		openKeys: make(map[string]keyRoute),
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/jobs", g.handleJobs)
	g.mux.HandleFunc("/v1/stats", g.handleStats)
	g.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	g.mux.HandleFunc("/readyz", g.handleReady)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/metrics/cluster", g.handleClusterMetrics)
	g.mux.HandleFunc("/debug/spans", g.handleSpans)
	g.mux.HandleFunc("/debug/trace", g.handleTrace)
	g.mux.HandleFunc("/debug/slo", g.handleSLO)
	return g, nil
}

// Start launches the background health probes.
func (g *Gateway) Start() { g.health.Start() }

// Close stops the health probes.
func (g *Gateway) Close() { g.health.Close() }

// Ring exposes the routing ring (tests, tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Health exposes the health tracker (tests, tooling).
func (g *Gateway) Health() *Health { return g.health }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	rows := g.health.Snapshot()
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{
		Requests:  g.requests,
		Shed:      g.shed,
		Failovers: g.failovers,
		Replicas:  make([]ReplicaStats, 0, len(rows)),
	}
	for _, row := range rows {
		st.Replicas = append(st.Replicas, ReplicaStats{
			ReplicaHealth: row, Routed: g.routed[row.URL], InFlight: g.open[row.URL],
		})
	}
	return st
}

func (g *Gateway) handleReady(w http.ResponseWriter, _ *http.Request) {
	if g.health.UpCount() == 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable replicas")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.Stats())
}

// attemptResult is one proxied attempt's outcome.
type attemptResult struct {
	err        error // transport failure; status fields unset
	status     int
	retryAfter int
	// retryAfterRaw is the replica's Retry-After header verbatim. The
	// parsed integer only feeds the gateway's own max-of-owners shed hint;
	// relays forward the raw value so HTTP-date (or otherwise unparseable)
	// hints survive the proxy.
	retryAfterRaw string
	contentType   string
	body          []byte
}

// handleJobs routes one submission: consistent-hash owners, healthy ones
// only, least busy first (rankOwners), tried one after another, failing over
// on shed/unavailable/transport errors, and shedding 429 + Retry-After itself
// when every owner is out.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	var q serve.JobRequest
	if err := json.Unmarshal(body, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Resolve the job exactly as a replica would, so the routing key IS the
	// idempotency key: every duplicate of a job lands on the same owners.
	job, err := serve.BuildJob(g.base, &q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := exp.JobKey(job.Cfg, job.Kernel.Name)

	// Distributed tracing: continue an incoming context or mint one for a
	// sampled submission. The root span brackets the whole routing decision;
	// its context is echoed to the client so a curl away from the gateway is
	// enough to learn the trace ID to pull from /debug/trace.
	start := time.Now()
	tc, traced := g.traceContext(r)
	var root obs.Span
	recordRoot := func(outcome string) {
		if !traced {
			return
		}
		traced = false // record exactly once per request
		root.End()
		root.SetAttr("outcome", outcome)
		g.spans.Record(root)
	}
	if traced {
		root = obs.StartSpan(tc.Trace, tc.Span, "gateway.route", "arigate")
		root.SetAttr("bench", job.Kernel.Name)
		root.SetAttr("key", key)
		w.Header().Set(obs.TraceHeader, obs.TraceContext{Trace: root.Trace, Span: root.ID}.String())
		defer recordRoot("abandoned") // client gone before an answer
	}

	owners := g.ring.Owners(key, g.repl)
	cands := owners[:0]
	for _, o := range owners {
		if g.health.Up(o) {
			cands = append(cands, o)
		}
	}
	g.mu.Lock()
	g.requests++
	g.mu.Unlock()

	// Failover, one owner at a time. A job is a pure function of its key, so
	// a second copy racing the first could only repeat it: each owner is
	// tried only after the previous one has answered or failed. The owners
	// are ranked in the same critical section that opens the first forward,
	// so two submissions arriving together see each other's load.
	ctx := r.Context()
	maxRetryAfter := 0
	rawRetryAfter := ""
	for i := range cands {
		g.mu.Lock()
		if i == 0 {
			g.rankOwners(key, cands)
		} else {
			g.failovers++
		}
		rep := cands[i]
		g.routed[rep]++
		g.openForward(key, rep)
		g.mu.Unlock()
		// Each attempt gets its own child span and propagates it to the
		// replica, so the replica's spans parent under the attempt that
		// reached it — failover attempts share the trace ID but not span IDs.
		var att obs.Span
		var attCtx string
		if root.Trace != "" {
			att = obs.StartSpan(root.Trace, root.ID, "gateway.attempt", "arigate")
			att.SetAttr("replica", rep)
			attCtx = obs.TraceContext{Trace: att.Trace, Span: att.ID}.String()
		}
		t0 := time.Now()
		res := g.forward(ctx, rep, body, attCtx)
		g.attemptHist.ObserveDuration(time.Since(t0))
		g.mu.Lock()
		g.closeForward(key, rep)
		g.mu.Unlock()
		if att.Trace != "" {
			att.End()
			if res.err != nil {
				att.SetAttr("error", res.err.Error())
				if ctx.Err() != nil {
					att.SetAttr("cancelled", "true") // the client went away
				}
			} else {
				att.SetAttr("status", strconv.Itoa(res.status))
			}
			g.spans.Record(att)
		}
		if res.err != nil {
			if ctx.Err() != nil {
				return // client gone; nothing to answer
			}
			// Transport failure: the restart/death signature. Feed the
			// breaker and re-route to the next owner.
			g.health.ReportFailure(rep)
			continue
		}
		g.health.ReportSuccess(rep)
		switch {
		case res.status >= 200 && res.status < 300:
			g.routeHist.ObserveDuration(time.Since(start))
			g.slo.Observe(time.Since(start).Microseconds())
			recordRoot("ok")
			relay(w, res)
			return
		case res.status == http.StatusTooManyRequests ||
			res.status == http.StatusServiceUnavailable ||
			res.status == http.StatusBadGateway ||
			res.status == http.StatusGatewayTimeout:
			// The owner is alive but shedding or draining: degrade
			// sideways to the next owner before degrading to a shed.
			// Keep every hint the owners offered: the max parsed delay,
			// and failing any parseable one, the last raw header — an
			// HTTP-date hint must reach the client, not vanish here.
			if res.retryAfter > maxRetryAfter {
				maxRetryAfter = res.retryAfter
			}
			if res.retryAfter == 0 && res.retryAfterRaw != "" {
				rawRetryAfter = res.retryAfterRaw
			}
		default:
			// Deterministic rejection (malformed job, simulation
			// failure): identical on every replica, so relay verbatim —
			// failing over would only duplicate the failure.
			if res.status >= 500 {
				g.slo.Fail()
			}
			recordRoot("rejected " + strconv.Itoa(res.status))
			relay(w, res)
			return
		}
	}
	// Every owner of this key is down or shedding: shed with the most
	// pessimistic Retry-After any owner offered.
	recordRoot("shed")
	g.slo.Fail()
	g.shedOne(w, maxRetryAfter, rawRetryAfter)
}

// rankOwners orders a key's healthy owners for the failover loop. If the key
// is already in flight through this gateway, its replica goes first, so
// concurrent duplicates meet at one replica: a duplicate that waits there for
// an execution slot behind the first is answered from that replica's store
// instead of running twice. The rest are stably
// sorted by open forwards: a job never queues behind another on a busy
// owner while a second owner sits idle, and an idle cluster keeps ring
// order. Called with g.mu held.
func (g *Gateway) rankOwners(key string, cands []string) {
	slices.SortStableFunc(cands, func(a, b string) int { return g.open[a] - g.open[b] })
	if kr, ok := g.openKeys[key]; ok {
		if i := slices.Index(cands, kr.replica); i > 0 {
			copy(cands[1:i+1], cands[:i])
			cands[0] = kr.replica
		}
	}
}

// openForward and closeForward bracket one forward of key to replica in the
// load counts rankOwners reads. Called with g.mu held.
func (g *Gateway) openForward(key, replica string) {
	g.open[replica]++
	g.openKeys[key] = keyRoute{replica: replica, refs: g.openKeys[key].refs + 1}
}

func (g *Gateway) closeForward(key, replica string) {
	g.open[replica]--
	if kr := g.openKeys[key]; kr.refs > 1 {
		kr.refs--
		g.openKeys[key] = kr
	} else {
		delete(g.openKeys, key)
	}
}

// forward performs one proxied POST /v1/jobs round trip to replica.
// traceCtx, when non-empty, is the attempt's X-Ari-Trace value — the replica
// parents its spans under this attempt.
func (g *Gateway) forward(ctx context.Context, replica string, body []byte, traceCtx string) attemptResult {
	var out attemptResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if traceCtx != "" {
		req.Header.Set(obs.TraceHeader, traceCtx)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	out.contentType = resp.Header.Get("Content-Type")
	out.body = raw
	out.retryAfterRaw = resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(out.retryAfterRaw); err == nil && secs > 0 {
		out.retryAfter = secs
	}
	return out
}

// shedOne answers one unroutable submission with 429 + Retry-After: the max
// parsed delay the owners offered, or failing that their raw (HTTP-date)
// hint verbatim, or the 1s floor.
func (g *Gateway) shedOne(w http.ResponseWriter, retryAfter int, raw string) {
	g.mu.Lock()
	g.shed++
	g.mu.Unlock()
	switch {
	case retryAfter >= 1:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	case raw != "":
		w.Header().Set("Retry-After", raw)
	default:
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, http.StatusTooManyRequests, "all owners of this job are down or shedding")
}

// relay copies one replica answer to the client verbatim. Retry-After is
// forwarded as the replica sent it — re-serialising the parsed integer would
// drop HTTP-date hints.
func relay(w http.ResponseWriter, res attemptResult) {
	ct := res.contentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	if res.retryAfterRaw != "" {
		w.Header().Set("Retry-After", res.retryAfterRaw)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
