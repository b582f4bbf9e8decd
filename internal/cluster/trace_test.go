package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestGatewayFailoverTracePropagation pins the trace contract across a
// failover: both attempts carry the root's trace ID with distinct span IDs,
// the client gets the root context echoed back, and each attempt records its
// own gateway.attempt span under the root.
func TestGatewayFailoverTracePropagation(t *testing.T) {
	var first atomic.Bool
	var mu sync.Mutex
	var headers []string
	shedFirst := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers = append(headers, r.Header.Get(obs.TraceHeader))
		mu.Unlock()
		if first.CompareAndSwap(false, true) {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		okJobs("k")(w, r)
	}
	a := startFakeReplica(t, shedFirst)
	b := startFakeReplica(t, shedFirst)
	g := gateFor(t, Config{
		Base: core.DefaultConfig(), Replicas: []string{a.ts.URL, b.ts.URL},
		TraceSample: 1,
	})

	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusOK {
		t.Fatalf("failover submit: %d %s", w.Code, w.Body)
	}
	if st := g.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}

	// The client learns the root context from the response header.
	echo, ok := obs.ParseTraceContext(w.Header().Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("response %s header = %q, not a trace context", obs.TraceHeader, w.Header().Get(obs.TraceHeader))
	}

	// Both attempts saw the same trace with distinct attempt spans.
	mu.Lock()
	got := append([]string(nil), headers...)
	mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("attempts seen = %d, want 2 (%q)", len(got), got)
	}
	tc0, ok0 := obs.ParseTraceContext(got[0])
	tc1, ok1 := obs.ParseTraceContext(got[1])
	if !ok0 || !ok1 {
		t.Fatalf("attempts carried unparsable contexts: %q", got)
	}
	if tc0.Trace != echo.Trace || tc1.Trace != echo.Trace {
		t.Fatalf("trace IDs diverge: root=%s attempts=%s,%s", echo.Trace, tc0.Trace, tc1.Trace)
	}
	if tc0.Span == tc1.Span {
		t.Fatalf("failover attempts share a span ID: %s", tc0.Span)
	}

	// Spans are recorded before the answer is relayed: one root, two
	// attempts parented under it, the first marked with the owner's 503.
	var roots, attempts, shed int
	for _, s := range g.spans.Spans(echo.Trace) {
		switch s.Name {
		case "gateway.route":
			roots++
			if s.ID != echo.Span {
				t.Fatalf("client got span %s, root is %s", echo.Span, s.ID)
			}
			if s.Attrs["outcome"] != "ok" {
				t.Fatalf("root outcome = %q", s.Attrs["outcome"])
			}
		case "gateway.attempt":
			attempts++
			if s.Parent != echo.Span {
				t.Fatalf("attempt parented under %s, want the root %s", s.Parent, echo.Span)
			}
			if s.Attrs["status"] == "503" {
				shed++
			}
		}
	}
	if roots != 1 || attempts != 2 || shed != 1 {
		t.Fatalf("spans: root=%d attempts=%d status-503=%d, want 1/2/1", roots, attempts, shed)
	}
}

// TestGatewayUntracedByDefault: with sampling off and no incoming context,
// no spans are minted and no trace header leaks to replicas or clients.
func TestGatewayUntracedByDefault(t *testing.T) {
	var hdr atomic.Value
	a := startFakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		hdr.Store(r.Header.Get(obs.TraceHeader))
		okJobs("k")(w, r)
	})
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}})
	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	if h, _ := hdr.Load().(string); h != "" {
		t.Fatalf("replica saw trace header %q with sampling off", h)
	}
	if h := w.Header().Get(obs.TraceHeader); h != "" {
		t.Fatalf("client got trace header %q with sampling off", h)
	}
	if n := g.spans.Len(); n != 0 {
		t.Fatalf("recorder holds %d spans with sampling off", n)
	}
}

// TestGatewayRelaysHTTPDateRetryAfter: a replica's HTTP-date Retry-After
// must survive both relay paths — the verbatim relay of a deterministic
// rejection, and the gateway's own shed after failover exhaustion.
func TestGatewayRelaysHTTPDateRetryAfter(t *testing.T) {
	const date = "Wed, 21 Oct 2026 07:28:00 GMT"

	// Terminal relay: a deterministic rejection carrying an HTTP date.
	a := startFakeReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", date)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such kernel"}`)
	})
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}})
	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusNotFound {
		t.Fatalf("relay status = %d", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != date {
		t.Fatalf("relayed Retry-After = %q, want the HTTP date verbatim", got)
	}

	// Exhaustion shed: every owner sheds with an HTTP-date hint that Atoi
	// cannot parse; the gateway must forward it rather than flooring to 1s.
	shed := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", date)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	b := startFakeReplica(t, shed)
	c := startFakeReplica(t, shed)
	g2 := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{b.ts.URL, c.ts.URL}})
	w2 := postJob(t, g2, serve.JobRequest{Bench: "bfs"})
	if w2.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d", w2.Code)
	}
	if got := w2.Header().Get("Retry-After"); got != date {
		t.Fatalf("shed Retry-After = %q, want the HTTP date verbatim", got)
	}

	// Mixed hints: an integer from one owner beats a date from another —
	// the parsed max stays authoritative when available.
	d := startFakeReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "9")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	e := startFakeReplica(t, shed)
	g3 := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{d.ts.URL, e.ts.URL}})
	w3 := postJob(t, g3, serve.JobRequest{Bench: "bfs"})
	if w3.Code != http.StatusTooManyRequests {
		t.Fatalf("mixed shed status = %d", w3.Code)
	}
	if got := w3.Header().Get("Retry-After"); got != "9" {
		t.Fatalf("mixed shed Retry-After = %q, want \"9\"", got)
	}
}

func TestRelabelSample(t *testing.T) {
	label := `replica="http://a:1"`
	cases := []struct{ in, want string }{
		{"x_total 3", `x_total{replica="http://a:1"} 3`},
		{`x{job="a b"} 2`, `x{replica="http://a:1",job="a b"} 2`},
		{"x{} 1", `x{replica="http://a:1"} 1`},
		{`y{le="+Inf"} 4`, `y{replica="http://a:1",le="+Inf"} 4`},
	}
	for _, c := range cases {
		got, ok := relabelSample(c.in, label)
		if !ok || got != c.want {
			t.Errorf("relabelSample(%q) = %q ok=%v, want %q", c.in, got, ok, c.want)
		}
	}
	if _, ok := relabelSample("", label); ok {
		t.Error("empty line accepted")
	}
}

// TestGatewayClusterMetricsRollup federates two live replicas and one dead
// one: samples are relabelled per replica, family headers appear once, and
// scrape_up reports the dead replica.
func TestGatewayClusterMetricsRollup(t *testing.T) {
	expo := func(v int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "# HELP ariserve_jobs_total Jobs.\n# TYPE ariserve_jobs_total counter\nariserve_jobs_total %d\n", v)
			fmt.Fprintf(w, "ariserve_job_p50_cycles{job=\"bfs/XY base\"} %d\n", v*10)
		}
	}
	newRep := func(v int) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		mux.HandleFunc("/metrics", expo(v))
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := newRep(1), newRep(2)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.URL, b.URL, deadURL}})
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := string(body)

	for _, want := range []string{
		fmt.Sprintf(`ari_cluster_scrape_up{replica="%s"} 1`, a.URL),
		fmt.Sprintf(`ari_cluster_scrape_up{replica="%s"} 0`, deadURL),
		fmt.Sprintf(`ariserve_jobs_total{replica="%s"} 1`, a.URL),
		fmt.Sprintf(`ariserve_jobs_total{replica="%s"} 2`, b.URL),
		fmt.Sprintf(`ariserve_job_p50_cycles{replica="%s",job="bfs/XY base"} 10`, a.URL),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rollup missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "# HELP ariserve_jobs_total"); n != 1 {
		t.Errorf("HELP emitted %d times, want once:\n%s", n, got)
	}
}
