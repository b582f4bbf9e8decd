package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
)

// fakeReplica is a scripted ariserve stand-in: /readyz always 200, /v1/jobs
// handled by jobs (counted).
type fakeReplica struct {
	ts   *httptest.Server
	hits atomic.Int32
}

func startFakeReplica(t *testing.T, jobs http.HandlerFunc) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		jobs(w, r)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func okJobs(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.JobResponse{Key: key, Cached: false})
	}
}

func gateFor(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.Base.MeshWidth == 0 {
		cfg.Base = core.DefaultConfig()
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func postJob(t *testing.T, g *Gateway, req serve.JobRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	return w
}

// jobKeyFor computes the key the gateway will route req by.
func jobKeyFor(t *testing.T, base core.Config, req serve.JobRequest) string {
	t.Helper()
	job, err := serve.BuildJob(base, &req)
	if err != nil {
		t.Fatal(err)
	}
	return exp.JobKey(job.Cfg, job.Kernel.Name)
}

func TestGatewayRoutesToPrimaryOwner(t *testing.T) {
	reps := make([]*fakeReplica, 3)
	urls := make([]string, 3)
	for i := range reps {
		reps[i] = startFakeReplica(t, okJobs("k"))
		urls[i] = reps[i].ts.URL
	}
	base := core.DefaultConfig()
	g := gateFor(t, Config{Base: base, Replicas: urls})

	req := serve.JobRequest{Bench: "bfs"}
	primary := g.Ring().Owners(jobKeyFor(t, base, req), 1)[0]

	for i := 0; i < 5; i++ {
		w := postJob(t, g, req)
		if w.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	for _, f := range reps {
		want := int32(0)
		if f.ts.URL == primary {
			want = 5
		}
		if got := f.hits.Load(); got != want {
			t.Fatalf("replica %s got %d hits, want %d (primary %s)", f.ts.URL, got, want, primary)
		}
	}
	st := g.Stats()
	if st.Requests != 5 || st.Failovers != 0 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGatewayFailsOverWhenPrimaryDies(t *testing.T) {
	reps := make([]*fakeReplica, 3)
	urls := make([]string, 3)
	for i := range reps {
		reps[i] = startFakeReplica(t, okJobs("k"))
		urls[i] = reps[i].ts.URL
	}
	base := core.DefaultConfig()
	g := gateFor(t, Config{Base: base, Replicas: urls})

	req := serve.JobRequest{Bench: "bfs"}
	primary := g.Ring().Owners(jobKeyFor(t, base, req), 2)[0]
	for _, f := range reps {
		if f.ts.URL == primary {
			f.ts.Close() // connection refused: the crash signature
		}
	}

	w := postJob(t, g, req)
	if w.Code != http.StatusOK {
		t.Fatalf("failover submit: %d %s", w.Code, w.Body)
	}
	var resp serve.JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Key != "k" {
		t.Fatalf("failover body: %s (%v)", w.Body, err)
	}
	st := g.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	for _, row := range st.Replicas {
		if row.URL == primary && row.Failures == 0 {
			t.Fatalf("dead primary has no recorded failure: %+v", row)
		}
	}
}

func TestGatewayFailsOverOnShed(t *testing.T) {
	// The primary is alive but shedding 429: degrade sideways, not down.
	base := core.DefaultConfig()
	req := serve.JobRequest{Bench: "bfs"}

	shedding := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
	}
	a := startFakeReplica(t, shedding)
	b := startFakeReplica(t, shedding)
	urls := []string{a.ts.URL, b.ts.URL}
	g := gateFor(t, Config{Base: base, Replicas: urls})

	// Both owners shed: the gateway sheds too, relaying the worst Retry-After.
	w := postJob(t, g, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("all-shedding cluster: %d %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the owners' hint 7", ra)
	}
	if st := g.Stats(); st.Shed != 1 || st.Failovers != 1 {
		t.Fatalf("stats = %+v, want shed=1 failovers=1", st)
	}
	if a.hits.Load()+b.hits.Load() != 2 {
		t.Fatalf("both owners should have been tried: %d + %d hits", a.hits.Load(), b.hits.Load())
	}
}

func TestGatewayShedsWhenAllOwnersDown(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	b := startFakeReplica(t, okJobs("k"))
	urls := []string{a.ts.URL, b.ts.URL}
	a.ts.Close()
	b.ts.Close()

	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: urls})
	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("dead cluster: %d %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

func TestGatewayRelaysTerminalRejection(t *testing.T) {
	// A deterministic 4xx/5xx is identical on every replica: relay verbatim,
	// never fail over.
	rejecting := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "simulation diverged"})
	}
	a := startFakeReplica(t, rejecting)
	b := startFakeReplica(t, rejecting)
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL, b.ts.URL}})

	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("terminal relay: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "simulation diverged") {
		t.Fatalf("terminal body not relayed: %s", w.Body)
	}
	if a.hits.Load()+b.hits.Load() != 1 {
		t.Fatalf("terminal rejection failed over: %d + %d hits", a.hits.Load(), b.hits.Load())
	}
	if st := g.Stats(); st.Failovers != 0 {
		t.Fatalf("failovers = %d on a terminal rejection", st.Failovers)
	}
}

func TestGatewayRejectsBadRequestsItself(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}})

	w := postJob(t, g, serve.JobRequest{Bench: "no-such-kernel"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown bench: %d %s", w.Code, w.Body)
	}
	if a.hits.Load() != 0 {
		t.Fatal("unroutable request reached a replica")
	}

	r := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, r)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d", rec.Code)
	}
}

// TestGatewayDoesNotDuplicateSlowPrimary: a primary that takes 400ms is
// waited for, never raced by a second owner — a deterministic job runs
// once, on one replica.
func TestGatewayDoesNotDuplicateSlowPrimary(t *testing.T) {
	base := core.DefaultConfig()
	req := serve.JobRequest{Bench: "bfs"}

	slow := func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		okJobs("k")(w, r)
	}
	a := startFakeReplica(t, slow)
	b := startFakeReplica(t, slow)
	g := gateFor(t, Config{Base: base, Replicas: []string{a.ts.URL, b.ts.URL}})
	if g.Ring().Owners(jobKeyFor(t, base, req), 1)[0] != a.ts.URL {
		a, b = b, a // name the primary a
	}

	w := postJob(t, g, req)
	if w.Code != http.StatusOK {
		t.Fatalf("slow-primary submit: %d %s", w.Code, w.Body)
	}
	if a.hits.Load() != 1 || b.hits.Load() != 0 {
		t.Fatalf("hits = primary %d + secondary %d, want exactly one attempt on the primary",
			a.hits.Load(), b.hits.Load())
	}
	if st := g.Stats(); st.Requests != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want one request and no failover", st)
	}
}

func TestGatewayEndpoints(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}, ProbeInterval: 10 * time.Millisecond})
	g.Start()

	ts := httptest.NewServer(g)
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/v1/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "arigate_requests_total") {
			t.Fatalf("metrics missing arigate_requests_total:\n%s", body)
		}
		if path == "/v1/stats" {
			var st Stats
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("stats body: %v", err)
			}
		}
	}
}
