package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Distributed-tracing endpoints of the gateway (DESIGN.md §15). The gateway
// holds only its own spans; the replicas hold theirs. /debug/trace is the
// merge point: it pulls the trace's spans from every replica's /debug/spans
// and renders one Chrome trace_event timeline covering gateway routing,
// replica serving, and the sampled NoC packets of the run.

// traceContext decides one submission's tracing fate: continue a valid
// incoming X-Ari-Trace context (the caller sampled), else mint a fresh
// trace for 1 in TraceSample submissions.
func (g *Gateway) traceContext(r *http.Request) (obs.TraceContext, bool) {
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		return tc, true
	}
	if g.traceSample <= 0 {
		return obs.TraceContext{}, false
	}
	if n := g.traceSeq.Add(1); (n-1)%int64(g.traceSample) != 0 {
		return obs.TraceContext{}, false
	}
	return obs.TraceContext{Trace: obs.NewTraceID()}, true
}

// handleSpans serves the gateway's own recorded spans as JSON
// (?trace=<id> filters to one trace).
func (g *Gateway) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.spans.Spans(r.URL.Query().Get("trace")))
}

// handleSLO serves the gateway's SLO report as JSON.
func (g *Gateway) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.slo.Report())
}

// handleTrace renders one trace (?trace=<id>, default the latest locally
// recorded root) as a merged Chrome trace_event document: local gateway
// spans plus every replica's spans for the same trace ID.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	trace := r.URL.Query().Get("trace")
	if trace == "" {
		trace = g.spans.LatestTrace()
	}
	if trace == "" {
		writeError(w, http.StatusNotFound, "no traces recorded; enable sampling with -trace-sample")
		return
	}
	spans := g.spans.Spans(trace)
	spans = append(spans, g.fetchReplicaSpans(r.Context(), trace)...)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "trace not found: "+trace)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteSpanTrace(w, spans)
}

// fetchReplicaSpans collects one trace's spans from every replica,
// best-effort: an unreachable replica contributes nothing rather than
// failing the export.
func (g *Gateway) fetchReplicaSpans(ctx context.Context, trace string) []obs.Span {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	replicas := g.ring.Replicas()
	out := make([][]obs.Span, len(replicas))
	var wg sync.WaitGroup
	for i, rep := range replicas {
		wg.Add(1)
		go func(i int, rep string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep+"/debug/spans?trace="+trace, nil)
			if err != nil {
				return
			}
			resp, err := g.hc.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var spans []obs.Span
			if json.NewDecoder(resp.Body).Decode(&spans) == nil {
				out[i] = spans
			}
		}(i, rep)
	}
	wg.Wait()
	var merged []obs.Span
	for _, s := range out {
		merged = append(merged, s...)
	}
	return merged
}
