package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunConfigPrecedence pins the flag precedence rule: values from a
// -config file win over flag defaults, and explicitly passed flags win over
// the file.
func TestRunConfigPrecedence(t *testing.T) {
	file := core.DefaultConfig()
	file.Scheme = core.XYARI
	file.MeasureCycles = 777
	file.WarmupCycles = 111
	file.VCs = 2
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	args := []string{"-config", path, "-dumpconfig", "-cycles", "555", "-scheme", "ada-ari", "-mesh", "4x4", "-mc", "4"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	var got core.Config
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("decoding -dumpconfig output: %v\n%s", err, out.String())
	}
	// From the file, over the flag defaults (4000 warmup, 4 VCs).
	if got.WarmupCycles != 111 || got.VCs != 2 {
		t.Errorf("file values lost: warmup %d, vcs %d; want 111, 2", got.WarmupCycles, got.VCs)
	}
	// Explicit flags, over the file.
	if got.MeasureCycles != 555 || got.Scheme != core.AdaARI || got.MeshWidth != 4 || got.MeshHeight != 4 || got.NumMC != 4 {
		t.Errorf("explicit flags lost: cycles %d, scheme %v, mesh %dx%d, mc %d; want 555, Ada-ARI, 4x4, 4",
			got.MeasureCycles, got.Scheme, got.MeshWidth, got.MeshHeight, got.NumMC)
	}
}

func TestRunEstimate(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-bench", "bfs", "-scheme", "Ada-ARI", "-estimate"}, &out, &errb); err != nil {
		t.Fatalf("estimate: %v\nstderr: %s", err, errb.String())
	}
	for _, want := range []string{"benchmark        bfs", "analytical estimate", "IPC"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("estimate output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "nosuchbench", "-estimate"},
		{"-scheme", "nosuchscheme", "-estimate"},
		{"-corrupt-prob", "2", "-estimate"},
		{"-shards", "-1", "-estimate"},
		{"-mesh", "100000x100000", "-estimate"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote output before failing:\n%s", args, out.String())
		}
	}
}
