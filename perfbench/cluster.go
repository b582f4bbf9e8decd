package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
)

// localCluster is arigate in front of two ariserve replicas, each with its
// own journal, served over httptest in this process.
type localCluster struct {
	dir      string
	journals []*exp.Journal
	replicas []*httptest.Server
	gw       *cluster.Gateway
	gateway  *httptest.Server
	hc       *http.Client
}

// startCluster starts a cluster whose replicas share base. hook, when
// non-nil, adjusts each replica's Runner before its server is built.
func startCluster(tmp string, base core.Config, hook func(*exp.Runner)) (c *localCluster, err error) {
	c = &localCluster{hc: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if c.dir, err = os.MkdirTemp(tmp, "serve-mix-"); err != nil {
		return c, err
	}
	urls := make([]string, serveReplicas)
	for i := range urls {
		ts := httptest.NewUnstartedServer(nil)
		c.replicas = append(c.replicas, ts)
		urls[i] = "http://" + ts.Listener.Addr().String()
	}
	for i, ts := range c.replicas {
		r := exp.NewRunner()
		r.Base = base
		j, err := exp.OpenJournal(fmt.Sprintf("%s/replica%d.jsonl", c.dir, i))
		if err != nil {
			return c, err
		}
		c.journals = append(c.journals, j)
		r.Journal = j
		if hook != nil {
			hook(r)
		}
		var peers []string
		for k, u := range urls {
			if k != i {
				peers = append(peers, u)
			}
		}
		s, err := serve.New(serve.Config{
			Runner: r, MaxInFlight: serveInFlight, Peers: peers, PeerClient: c.hc,
			Process: fmt.Sprintf("ariserve-%d", i),
		})
		if err != nil {
			return c, err
		}
		ts.Config.Handler = s
		ts.Start()
	}
	// The gateway keeps its shipped defaults: replication 2, hedging after
	// 250ms.
	c.gw, err = cluster.New(cluster.Config{Base: base, Replicas: urls, HTTPClient: c.hc})
	if err != nil {
		return c, err
	}
	c.gw.Start()
	c.gateway = httptest.NewServer(c.gw)
	for _, u := range append(urls, c.gateway.URL) {
		if err := c.getJSON(u+"/readyz", nil); err != nil {
			return c, err
		}
	}
	return c, nil
}

// scrape waits until no replica holds an admitted job, then reads the
// replicas' /v1/stats and /metrics and the gateway's /v1/stats.
func (c *localCluster) scrape() (map[string]float64, error) {
	m := map[string]float64{}
	deadline := time.Now().Add(30 * time.Second)
	var queueWait, sim histogram
	for _, ts := range c.replicas {
		var st serve.Stats
		for {
			if err := c.getJSON(ts.URL+"/v1/stats", &st); err != nil {
				return nil, err
			}
			if st.Admitted == 0 {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("serve-mix: replica %s still busy", ts.URL)
			}
			time.Sleep(10 * time.Millisecond)
		}
		m["serve.completed"] += float64(st.Completed)
		m["serve.cache_hits"] += float64(st.CacheHits)
		m["serve.peer_hits"] += float64(st.PeerHits)
		m["serve.estimated"] += float64(st.Estimated)
		m["serve.shed"] += float64(st.Shed)
		text, err := c.get(ts.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		queueWait.add(text, "ari_queue_wait_seconds")
		sim.add(text, "ari_run_seconds")
	}
	m["serve.queue_wait_ms_p50"] = 1000 * queueWait.quantile(0.50)
	m["serve.queue_wait_ms_p95"] = 1000 * queueWait.quantile(0.95)
	m["serve.sim_ms_p50"] = 1000 * sim.quantile(0.50)
	var gs cluster.Stats
	if err := c.getJSON(c.gateway.URL+"/v1/stats", &gs); err != nil {
		return nil, err
	}
	m["cluster.hedges"] = float64(gs.Hedges)
	m["cluster.hedge_wins"] = float64(gs.HedgeWins)
	m["cluster.failovers"] = float64(gs.Failovers)
	m["cluster.shed"] = float64(gs.Shed)
	return m, nil
}

func (c *localCluster) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func (c *localCluster) getJSON(url string, v any) error {
	b, err := c.get(url)
	if err != nil || v == nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// close stops the gateway and the replicas, waiting for every request
// they serve (so for every simulation they run), and removes the journals.
func (c *localCluster) close() error {
	if c.gateway != nil {
		c.gateway.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, ts := range c.replicas {
		if ts.URL != "" {
			ts.Close()
		} else {
			ts.Listener.Close() // never started
		}
	}
	var err error
	for _, j := range c.journals {
		if e := j.Close(); e != nil && err == nil {
			err = e
		}
	}
	c.hc.CloseIdleConnections()
	if c.dir != "" {
		if e := os.RemoveAll(c.dir); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// histogram merges Prometheus histogram families from several /metrics
// pages: per-bucket counts keyed by upper bound (seconds).
type histogram map[float64]float64

// add folds the family name from one /metrics page into h.
func (h *histogram) add(text []byte, name string) {
	if *h == nil {
		*h = histogram{}
	}
	prefix := name + `_bucket{le="`
	prev := 0.0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"}`)
		if end < 0 {
			continue
		}
		le, err := strconv.ParseFloat(rest[:end], 64)
		if err != nil {
			continue
		}
		cum, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			continue
		}
		(*h)[le] += cum - prev
		prev = cum
	}
}

// quantile estimates the q-quantile by linear interpolation inside the
// containing bucket; the +Inf bucket answers with the highest finite bound.
func (h histogram) quantile(q float64) float64 {
	bounds := make([]float64, 0, len(h))
	var total float64
	for le, n := range h {
		bounds = append(bounds, le)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(bounds)
	rank := q * total
	var cum, lo float64
	for _, le := range bounds {
		n := h[le]
		if n > 0 && cum+n >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			return lo + (le-lo)*(rank-cum)/n
		}
		cum += n
		if !math.IsInf(le, 1) {
			lo = le
		}
	}
	return lo
}
