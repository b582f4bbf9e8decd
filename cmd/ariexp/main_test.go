package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/core"
	"repro/internal/exp"
)

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "3", "11", "area", "decompose", "slo"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if line == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("figure list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-fig", "nosuchfigure"},
		{"-bench", "nosuchbench", "-fig", "3"},
		{"-nosuchflag"},
		{"-cycles", "0", "-fig", "3"},
		// ariexp does not take the fault or sharding flags.
		{"-corrupt-prob", "2", "-fig", "3"},
		{"-shards", "-1", "-fig", "3"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunTinyFigure also pins the precedence rule: -quick is a preset, and
// the explicitly passed horizons win over it.
func TestRunTinyFigure(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-fig", "3", "-quick", "-bench", "bfs", "-cycles", "300", "-warmup", "100", "-csv", dir}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	got := out.String()
	for _, want := range []string{"bfs", "simulations"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "300 measured + 100 warmup NoC cycles per run"; !strings.Contains(string(report), want) {
		t.Errorf("report.md does not state the requested horizons %q:\n%s", want, report)
	}
}

// runTracedFigure runs one trace-sampled figure through the CLI and checks
// that its CSV and report section are what the exp generator renders for
// the first -bench kernel at the same horizons.
func runTracedFigure(t *testing.T, id string, gen func(base core.Config) (*exp.Figure, error)) {
	t.Helper()
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-fig", id, "-bench", "srad,bfs", "-cycles", "1200", "-warmup", "300", "-csv", dir}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	base := exp.NewRunner().Base
	base.MeasureCycles, base.WarmupCycles = 1200, 300
	want, err := gen(base)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig_"+id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != want.Table.CSV() {
		t.Errorf("fig_%s.csv:\n%s\nwant:\n%s", id, csv, want.Table.CSV())
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), want.Markdown()) {
		t.Errorf("report.md lacks the %s section:\n%s\nwant section:\n%s", id, report, want.Markdown())
	}
}

func TestRunDecomposeFigure(t *testing.T) {
	runTracedFigure(t, "decompose", func(base core.Config) (*exp.Figure, error) {
		return exp.Decompose(base, "srad", 4)
	})
}

func TestRunSLOFigure(t *testing.T) {
	runTracedFigure(t, "slo", func(base core.Config) (*exp.Figure, error) {
		return exp.SLOFigure(base, "srad", 4, 0)
	})
}

// TestMainHelpExitsZero: -h prints the usage text and exits 0, with no
// "flag: help requested" error line.
func TestMainHelpExitsZero(t *testing.T) { clitest.HelpExitsZero(t, "ariexp", main) }
