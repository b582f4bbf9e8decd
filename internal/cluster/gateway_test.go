package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
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

// holdGate returns a channel for heldJobs and the func that closes it, safe
// to call twice. Tests also defer it: a failed test must not leave a fake
// replica's cleanup Close waiting on a held handler.
func holdGate() (<-chan struct{}, func()) {
	ch := make(chan struct{})
	return ch, sync.OnceFunc(func() { close(ch) })
}

// heldJobs answers like okJobs, but holds each submission hold matches until
// release is closed.
func heldJobs(hold func(serve.JobRequest) bool, release <-chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var q serve.JobRequest
		json.NewDecoder(r.Body).Decode(&q)
		if hold(q) {
			<-release
		}
		okJobs("k")(w, r)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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

// TestGatewayRoutesAroundBusyPrimary: while a slow job holds its primary, a
// second key with the same primary goes straight to the idle owner — one
// attempt, no failover — instead of queueing behind the first.
func TestGatewayRoutesAroundBusyPrimary(t *testing.T) {
	base := core.DefaultConfig()
	slowReq := serve.JobRequest{Bench: "bfs", Seed: 1}
	held, release := holdGate()
	defer release()
	hold := func(q serve.JobRequest) bool { return q.Seed == slowReq.Seed }
	a := startFakeReplica(t, heldJobs(hold, held))
	b := startFakeReplica(t, heldJobs(hold, held))
	g := gateFor(t, Config{Base: base, Replicas: []string{a.ts.URL, b.ts.URL}})
	primary := g.Ring().Owners(jobKeyFor(t, base, slowReq), 1)[0]
	if primary != a.ts.URL {
		a, b = b, a // name the primary a
	}
	fastReq := serve.JobRequest{Bench: "bfs", Seed: 2}
	for g.Ring().Owners(jobKeyFor(t, base, fastReq), 1)[0] != primary {
		fastReq.Seed++
	}

	slow := make(chan int)
	go func() { slow <- postJob(t, g, slowReq).Code }()
	waitFor(t, "the slow job to reach its primary", func() bool { return a.hits.Load() == 1 })

	if w := postJob(t, g, fastReq); w.Code != http.StatusOK {
		t.Fatalf("second job: %d %s", w.Code, w.Body)
	}
	if a.hits.Load() != 1 || b.hits.Load() != 1 {
		t.Fatalf("hits = busy primary %d + idle owner %d, want the second job's one attempt on the idle owner",
			a.hits.Load(), b.hits.Load())
	}
	if st := g.Stats(); st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0: the idle owner was the first choice", st.Failovers)
	}
	release()
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("slow job: %d", code)
	}
}

// TestGatewayKeepsConcurrentDuplicatesTogether: a second submission of a key
// already in flight goes to the replica running it, even though the other
// owner is idle, so the replica answers it from its store rather than a
// second run.
func TestGatewayKeepsConcurrentDuplicatesTogether(t *testing.T) {
	base := core.DefaultConfig()
	req := serve.JobRequest{Bench: "bfs"}
	held, release := holdGate()
	defer release()
	all := func(serve.JobRequest) bool { return true }
	a := startFakeReplica(t, heldJobs(all, held))
	b := startFakeReplica(t, heldJobs(all, held))
	g := gateFor(t, Config{Base: base, Replicas: []string{a.ts.URL, b.ts.URL}})

	codes := make(chan int, 2)
	for n := int32(1); n <= 2; n++ {
		go func() { codes <- postJob(t, g, req).Code }()
		waitFor(t, "the submission to reach a replica", func() bool { return a.hits.Load()+b.hits.Load() == n })
	}
	if a.hits.Load() != 2 && b.hits.Load() != 2 {
		t.Fatalf("hits = %d + %d, want both duplicates on one replica", a.hits.Load(), b.hits.Load())
	}
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("duplicate %d: %d", i, code)
		}
	}
	st := g.Stats()
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0", st.Failovers)
	}
	for _, row := range st.Replicas {
		if row.InFlight != 0 {
			t.Fatalf("replica %s still counts %d open forwards after both answered", row.URL, row.InFlight)
		}
	}
}

// TestGatewayIdleClusterTriesOwnersInRingOrder: with no forward open, the
// failover loop walks a key's owners in ring order, exactly as before
// routing weighed load.
func TestGatewayIdleClusterTriesOwnersInRingOrder(t *testing.T) {
	base := core.DefaultConfig()
	var mu sync.Mutex
	var tried []string
	shedding := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		tried = append(tried, "http://"+r.Host)
		mu.Unlock()
		w.WriteHeader(http.StatusTooManyRequests)
	}
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startFakeReplica(t, shedding).ts.URL)
	}
	g := gateFor(t, Config{Base: base, Replicas: urls, Replication: 3})

	for seed := uint64(1); seed <= 8; seed++ {
		req := serve.JobRequest{Bench: "bfs", Seed: seed}
		mu.Lock()
		tried = tried[:0]
		mu.Unlock()
		if w := postJob(t, g, req); w.Code != http.StatusTooManyRequests {
			t.Fatalf("seed %d: %d %s", seed, w.Code, w.Body)
		}
		want := g.Ring().Owners(jobKeyFor(t, base, req), 3)
		mu.Lock()
		got := slices.Clone(tried)
		mu.Unlock()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: owners tried %v, want ring order %v", seed, got, want)
		}
	}
}

func TestGatewayEndpoints(t *testing.T) {
	held, release := holdGate()
	defer release()
	a := startFakeReplica(t, heldJobs(func(q serve.JobRequest) bool { return q.Seed == 1 }, held))
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}, ProbeInterval: 10 * time.Millisecond})
	g.Start()

	ts := httptest.NewServer(g)
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	inFlight := func() (stats int, metric string) {
		t.Helper()
		var st Stats
		if err := json.Unmarshal([]byte(get("/v1/stats")), &st); err != nil {
			t.Fatalf("stats body: %v", err)
		}
		if len(st.Replicas) != 1 {
			t.Fatalf("stats replicas = %+v", st.Replicas)
		}
		body := get("/metrics")
		if !strings.Contains(body, "arigate_requests_total") {
			t.Fatalf("metrics missing arigate_requests_total:\n%s", body)
		}
		prefix := `arigate_replica_in_flight{replica="` + a.ts.URL + `"} `
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return st.Replicas[0].InFlight, v
			}
		}
		t.Fatalf("metrics missing %s...:\n%s", prefix, body)
		return 0, ""
	}

	get("/healthz")
	get("/readyz")
	if st, m := inFlight(); st != 0 || m != "0" {
		t.Fatalf("idle gateway: in_flight %d, gauge %s; want 0", st, m)
	}

	// A held job: one forward open to the replica until it answers.
	done := make(chan int)
	go func() {
		body, _ := json.Marshal(serve.JobRequest{Bench: "bfs", Seed: 1})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "the held job to reach the replica", func() bool { return a.hits.Load() == 1 })
	if st, m := inFlight(); st != 1 || m != "1" {
		t.Fatalf("held job: in_flight %d, gauge %s; want 1", st, m)
	}
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held job answered %d", code)
	}
	if st, m := inFlight(); st != 0 || m != "0" {
		t.Fatalf("after the answer: in_flight %d, gauge %s; want 0", st, m)
	}
}
