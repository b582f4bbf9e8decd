package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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

// syncBuffer is a bytes.Buffer safe for the concurrent write (server
// goroutine) + read (test polling) this smoke test does.
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

// startServe launches run() with the given args and returns the bound
// address, the signal channel that stops it, and the exit channel.
func startServe(t *testing.T, args []string, stdout, stderr *syncBuffer) (string, chan os.Signal, chan error) {
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
			t.Fatalf("server exited before listening: %v\nstderr: %s", err, stderr.String())
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never announced its address:\n%s", stderr.String())
	return "", nil, nil
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb syncBuffer
	sigs := make(chan os.Signal)
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-addr", "999.999.999.999:0"},
		{"-journal", filepath.Join(t.TempDir(), "no", "such", "dir", "j.jsonl")},
	} {
		if err := run(args, &out, &errb, sigs); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestServeSubmitDrainSmoke(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "serve.jsonl")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-journal", journal,
		"-drain-timeout", "30s",
		"-cycles", "300", "-warmup", "100",
	}
	var out, errb syncBuffer
	addr, sigs, done := startServe(t, args, &out, &errb)

	cli := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := cli.Submit(ctx, serve.JobRequest{Bench: "bfs", Scheme: "Ada-ARI"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Result.Benchmark != "bfs" || resp.Cached {
		t.Fatalf("unexpected response: %+v", resp)
	}

	// SIGTERM drains gracefully and run() returns nil.
	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v\nstderr: %s", err, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !strings.Contains(errb.String(), "draining") {
		t.Errorf("stderr missing drain notice:\n%s", errb.String())
	}
	if !strings.Contains(out.String(), "drained; 1 completed") {
		t.Errorf("stdout missing drain summary:\n%s", out.String())
	}
	// The journal holds the completed job.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"bench":"bfs"`) {
		t.Fatalf("journal missing the completed job:\n%s", raw)
	}

	// A restarted server resumes from the journal: the same submission is a
	// cache hit, with no new simulation.
	var out2, errb2 syncBuffer
	addr2, sigs2, done2 := startServe(t, args, &out2, &errb2)
	if !strings.Contains(errb2.String(), "resuming, 1 jobs journalled") {
		t.Errorf("restart did not report resuming:\n%s", errb2.String())
	}
	cli2 := client.New("http://" + addr2)
	resp2, err := cli2.Submit(ctx, serve.JobRequest{Bench: "bfs", Scheme: "Ada-ARI"})
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if !resp2.Cached {
		t.Fatal("restarted server re-ran a journalled job")
	}
	if resp2.Key != resp.Key {
		t.Fatalf("job key changed across restart: %s vs %s", resp2.Key, resp.Key)
	}
	sigs2 <- syscall.SIGTERM
	if err := <-done2; err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !strings.Contains(out2.String(), "1 cache hits") {
		t.Errorf("restart summary missing cache hit:\n%s", out2.String())
	}
}

// TestMainHelpExitsZero: -h prints the usage text and exits 0, with no
// "flag: help requested" error line.
func TestMainHelpExitsZero(t *testing.T) { clitest.HelpExitsZero(t, "ariserve", main) }
