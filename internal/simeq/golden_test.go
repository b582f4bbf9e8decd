package simeq

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

// goldenBenchmarks spans the three sensitivity classes (§6.2).
var goldenBenchmarks = []string{"bfs", "lud", "blackScholes"}

// goldenExtras are configurations beyond the scheme matrix whose router
// paths the plain schemes never reach: a chaos schedule (flit-corruption
// bursts plus permanent link deaths, so waiting VCs re-route after a kill)
// and a router at the validator's VC limit (32 VCs on six MultiPort input
// ports: 192 input VCs, more than one 64-bit word of VC-set state).
var goldenExtras = []struct {
	name  string
	bench string
	apply func(*core.Config)
}{
	{"bfs/Ada-ARI/chaos", "bfs", func(c *core.Config) {
		c.Scheme = core.AdaARI
		c.Fault = fault.ChaosConfig(7)
		c.Fault.LinkDeathProb = 0.01
	}},
	{"bfs/Ada-MultiPort/vcs32", "bfs", func(c *core.Config) {
		c.Scheme = core.AdaMultiPort
		c.VCs = 32
	}},
}

// TestGoldenDeterminism runs each benchmark x scheme pair (every scheme)
// and each goldenExtras configuration twice with the same seed and requires
// byte-identical encoded Results, then pins the encoding against the
// committed golden file. The first check catches
// nondeterminism introduced within a binary (map iteration, pointer-keyed
// ordering, uninitialised state); the second catches silent cross-commit
// drift in the simulated model.
func TestGoldenDeterminism(t *testing.T) {
	doc := make(map[string]json.RawMessage, len(goldenBenchmarks)*core.NumSchemes+len(goldenExtras))
	pin := func(key, bench string, cfg core.Config) {
		k, err := trace.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		first := RunEncoded(t, cfg, k)
		second := RunEncoded(t, cfg, k)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: two runs with the same seed diverged\n%s", key, diffLine(first, second))
		}
		doc[key] = json.RawMessage(first)
	}
	for _, name := range goldenBenchmarks {
		for s := core.Scheme(0); int(s) < core.NumSchemes; s++ {
			cfg := ShortConfig()
			cfg.Scheme = s
			pin(name+"/"+s.String(), name, cfg)
		}
	}
	for _, x := range goldenExtras {
		cfg := ShortConfig()
		x.apply(&cfg)
		pin(x.name, x.bench, cfg)
	}

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results drifted from %s (intentional model changes need -update)\n%s",
			path, diffLine(got, want))
	}
}
