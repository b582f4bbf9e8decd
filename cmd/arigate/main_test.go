package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

func startGate(t *testing.T, args []string, stdout, stderr *syncBuffer) (string, chan os.Signal, chan error) {
	t.Helper()
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, stdout, stderr, sigs) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], sigs, done
		}
		select {
		case err := <-done:
			t.Fatalf("gateway exited before listening: %v\nstderr: %s", err, stderr.String())
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gateway never announced its address:\n%s", stderr.String())
	return "", nil, nil
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb syncBuffer
	sigs := make(chan os.Signal)
	for _, args := range [][]string{
		{"-nosuchflag"},
		{},                                     // no replicas
		{"-replicas", "http://a:1,http://a:1"}, // duplicate
		{"-replicas", "http://a:1", "-addr", "999.999.0.1:boom"}, // bad listen addr
	} {
		if err := run(args, &out, &errb, sigs); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestGateRoutesAndDrains(t *testing.T) {
	// A fake replica standing in for ariserve: ready, answers every job.
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.JobResponse{Key: "k", Cached: true})
	}))
	defer replica.Close()

	var out, errb syncBuffer
	addr, sigs, done := startGate(t, []string{
		"-addr", "127.0.0.1:0",
		"-replicas", replica.URL,
		"-probe-interval", "20ms",
	}, &out, &errb)

	cli := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := cli.Submit(ctx, serve.JobRequest{Bench: "bfs"})
	if err != nil {
		t.Fatalf("submit through gateway: %v", err)
	}
	if resp.Key != "k" || !resp.Cached {
		t.Fatalf("gateway response: %+v", resp)
	}

	// The operational endpoints answer through the real listener.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/stats"} {
		r, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s", path, r.Status)
		}
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v\nstderr: %s", err, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gateway did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "1 routed") {
		t.Errorf("shutdown summary missing routed count:\n%s", out.String())
	}
}

// TestMainHelpExitsZero: -h prints the usage text and exits 0, with no
// "flag: help requested" error line.
func TestMainHelpExitsZero(t *testing.T) { clitest.HelpExitsZero(t, "arigate", main) }
